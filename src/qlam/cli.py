"""Batch command-line front door for `.qlam` programs.

Subcommands: ``check`` (parse + typecheck), ``run`` (operational semantics),
``denote`` (truncated denotational semantics), ``adequacy`` (cross-validate
the two).  Output is line-oriented key/value text; ``denote --out`` writes
the serialized morphism.  Exit codes: 0 success, 1 type/semantic error,
2 parse error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import adequacy as A
from . import cpm as C
from . import denote as D
from . import machine as M
from . import parser as P
from . import syntax as S
from . import typecheck as T


def _load_term(path: str) -> S.Term:
    with open(path, encoding="utf-8") as fh:
        return P.parse_term(fh.read())


def _trunc_config(args) -> D.TruncationConfig:
    tol = float(os.environ.get("QLAM_TOL", D.DEFAULT_CONFIG.matrix_tol))
    return D.TruncationConfig(
        list_max=args.list_max,
        bang_max=args.bang_max,
        fix_iters=args.fix_iters,
        matrix_tol=tol,
    )


def cmd_check(args) -> int:
    term = _load_term(args.file)
    deriv = T.typecheck(term)
    print(f"|- {S.pretty(term)} : {deriv.type}")
    return 0


def cmd_run(args) -> int:
    term = _load_term(args.file)
    T.typecheck(term)
    closure = M.load(term)
    if args.mode == "sample":
        trace = M.sample(closure, args.seed, max_steps=args.max_steps)
        if args.trace:
            for i, (rule, prob, cl) in enumerate(trace.steps):
                print(f"step {i} {rule} p={prob:.9f} {S.pretty(cl.term)}")
        print(f"steps {len(trace.steps)}")
        print(f"final {S.pretty(trace.final.term)}")
        if trace.timed_out:
            print("note TIMEOUT")
        return 0
    dist = M.evaluate(closure, max_steps=args.max_steps)
    for key in sorted(dist.outcomes, key=repr):
        out = dist.outcomes[key]
        print(f"outcome p={out.prob:.9f} {S.pretty(out.closure.term)}")
    print(f"blocked {dist.blocked:.9f}")
    print(f"residual {dist.residual:.9f}")
    print(f"pruned {dist.pruned:.9f}")
    if dist.residual > 0:
        print("note TIMEOUT")
    return 0


def cmd_denote(args) -> int:
    term = _load_term(args.file)
    deriv = T.typecheck(term)
    cfg = _trunc_config(args)
    mor = D.denote(deriv, cfg)
    print(f"type {deriv.type}")
    for name, obj in (("src", mor.src), ("dst", mor.dst)):
        print(f"{name} web {len(obj.elems)} labels")
        for l, d, g in obj.elems:
            print(f"  {name} label {l!r} dim={d} group_order={g.order}")
    print(f"entries {len(mor.entries)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(C.serialize_morphism(mor))
        print(f"wrote {args.out}")
    return 0


def cmd_adequacy(args) -> int:
    cfg = _trunc_config(args)
    if args.fuzz is not None:
        failures = 0
        for i in range(args.fuzz):
            term = A.random_finitary_program(args.seed + i)
            rep = A.check_adequacy(term, cfg, max_steps=args.max_steps)
            print(rep.line())
            failures += rep.verdict != "PASS"
        print(f"total {args.fuzz} failures {failures}")
        return 1 if failures else 0
    term = _load_term(args.file)
    rep = A.check_adequacy(term, cfg, max_steps=args.max_steps)
    print(rep.line())
    return 0 if rep.verdict == "PASS" else 1


def _add_trunc_flags(sp) -> None:
    sp.add_argument("--list-max", type=int, default=D.DEFAULT_CONFIG.list_max)
    sp.add_argument("--bang-max", type=int, default=D.DEFAULT_CONFIG.bang_max)
    sp.add_argument("--fix-iters", type=int, default=D.DEFAULT_CONFIG.fix_iters)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qlam")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("check", help="parse and typecheck a program")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("run", help="run a program on the abstract machine")
    sp.add_argument("file")
    sp.add_argument("--mode", choices=["distribution", "sample"],
                    default="distribution")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-steps", type=int, default=10_000)
    sp.add_argument("--trace", action="store_true")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("denote", help="compute the truncated denotation")
    sp.add_argument("file")
    _add_trunc_flags(sp)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_denote)

    sp = sub.add_parser("adequacy", help="cross-validate the two semantics")
    sp.add_argument("file", nargs="?")
    sp.add_argument("--fuzz", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-steps", type=int, default=2000)
    _add_trunc_flags(sp)
    sp.set_defaults(fn=cmd_adequacy)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.cmd == "adequacy" and args.file is None and args.fuzz is None:
        ap.error("adequacy needs a file or --fuzz")
    try:
        return args.fn(args)
    except P.QlamSyntaxError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (T.TypingError, A.AdequacyError, M.MachineError, C.CpmError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
