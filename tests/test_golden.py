"""Golden corpus: denotations and machine results frozen from earlier commits.

Refactors of ``cpm`` and ``denote`` must reproduce every morphism file under
``tests/golden/`` to 1e-12 in the entrywise max norm (``cpm.diff_entries``).
The corpus covers the runnable programs at the default truncation, the qlist
denotation at small bounds, the exponential's structural maps on webs with a
nontrivial group and with mixed dimensions, the compact-closure, list,
biproduct and distributor maps and their inverses on the same two webs, and
the scalar denotations of the first fifty finitary fuzz programs.

Refactors of ``syntax`` and ``machine`` must reproduce ``machine.json``: for
every runnable program, each sorted ``canonical_key`` of
``evaluate(..., max_steps=200)`` (its term text, and the SHA-256 of its
``repr``, which covers the linking and the rounded amplitudes of up to 2^18
entries) with its probability, and the blocked and residual mass and steps
used; the halting mass and ``is_finitary`` of the
first fifty finitary fuzz programs; ``is_finitary`` and the pretty-printed
``lower_approximant(t, 3)`` of the first thirty letrec fuzz programs; the
unbounded ``evaluate(load(t), max_steps=300)`` of the same thirty programs,
as the SHA-256 of each sorted key's ``repr`` with its probability, and the
blocked, residual and pruned mass and steps used; and the traces of ``sample(load(p), seed)`` for seeds 0..9 of four programs, each step
as its rule, probability, qubit count and ``pretty(alpha_canonical(term))``
(bound names are not frozen, free qubit names are), plus the final term and
the timeout flag.  Keys and text must match exactly, masses and step
probabilities to 1e-12.

``qlist`` and ``qlist-run`` are left out at the default bounds
(``list_max=4, bang_max=2``): denoting ``qlist-run`` there needs more memory
than an 8 GB machine has (the process was killed), so qlist is frozen at
``list_max=3, bang_max=1`` applied to a free qubit instead.

Regenerate only when a change of behaviour is intended, and say so in the
change log::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

import qlam.adequacy as A
import qlam.cpm as C
import qlam.denote as D
import qlam.machine as M
import qlam.parser as P
import qlam.syntax as S
import qlam.typecheck as T

ROOT = Path(__file__).resolve().parent
GOLDEN = ROOT / "golden"
PROGRAMS = ROOT.parent / "programs"
TOL = 1e-12

PROGRAM_NAMES = ["coin-unit", "cointoss", "entangle", "omega", "tt",
                 "teleport", "teleport-applied", "teleport-roundtrip"]
N_SCALAR_SEEDS = 50
# every program in programs/ that parses and typechecks
MACHINE_PROGRAMS = PROGRAM_NAMES + ["qlist", "qlist-run"]
MACHINE_STEPS = 200
N_LETREC_SEEDS = 30
LETREC_STEPS = 300
SAMPLE_PROGRAMS = ["teleport-roundtrip", "teleport-applied", "cointoss", "entangle"]
N_SAMPLE_SEEDS = 10

S2 = C.PermGroup(2, ((0, 1), (1, 0)))
# a 2-dim web with group S2, and a mixed 2-dim (with S2) + 1-dim web
WEBS = {
    "d2s": C.CpmObject(((C.STAR, 2, S2),)),
    "mixed": C.CpmObject(((("a",), 2, S2), (("b",), 1, C.PermGroup.trivial(1)))),
}


def _program(name: str) -> C.Morphism:
    term = P.parse_term((PROGRAMS / f"{name}.qlam").read_text())
    return D.denote(T.typecheck(term), D.DEFAULT_CONFIG)


def _qlist() -> C.Morphism:
    term = P.parse_term((PROGRAMS / "qlist.qlam").read_text())
    deriv = T.typecheck(S.App(term, S.Var("x")), None, (("x", S.QUBIT),))
    return D.denote(deriv, D.TruncationConfig(list_max=3, bang_max=1))


def _cases() -> dict:
    """Golden file stem -> function computing the morphism."""
    cases = {f"program-{n}": (lambda n=n: _program(n)) for n in PROGRAM_NAMES}
    cases["qlist-L3K1"] = _qlist
    for w, a in WEBS.items():
        cases[f"contraction-{w}-K2"] = lambda a=a: C.contraction(a, 2)
        cases[f"digging-{w}-K2"] = lambda a=a: C.digging(a, 2)
        cases[f"bierman_tensor-{w}-K2"] = lambda a=a: C.bierman_tensor(a, a, 2)
        cases[f"assoc_right-{w}"] = lambda a=a: C.assoc_right(a, a, a)
        cases[f"eta-{w}"] = lambda a=a: C.eta(a)
        cases[f"epsilon-{w}"] = lambda a=a: C.epsilon(a)
        cases[f"list_roll-{w}-L2"] = lambda a=a: C.list_roll(a, 2)
        cases[f"list_unroll-{w}-L2"] = lambda a=a: C.list_unroll(a, 2)
        cases[f"injection-{w}"] = lambda a=a: C.injection((C.QUBIT_OBJ, a), 1)
        cases[f"projection-{w}"] = lambda a=a: C.projection((C.QUBIT_OBJ, a), 1)
        cases[f"distribute_left-{w}"] = (
            lambda a=a: C.distribute_left(a, (WEBS["d2s"], WEBS["mixed"])))
        cases[f"undistribute_left-{w}"] = (
            lambda a=a: C.undistribute_left(a, (WEBS["d2s"], WEBS["mixed"])))
    cases["bierman_tensor-d2s-mixed-K2"] = (
        lambda: C.bierman_tensor(WEBS["d2s"], WEBS["mixed"], 2))
    return cases


def _scalars() -> list:
    return [A.scalar_denotation(A.random_finitary_program(s, 10))
            for s in range(N_SCALAR_SEEDS)]


def _evaluation(name: str) -> dict:
    term = P.parse_term((PROGRAMS / f"{name}.qlam").read_text())
    dist = M.evaluate(M.load(term), max_steps=MACHINE_STEPS)
    keys = sorted(dist.outcomes, key=repr)
    return {"outcomes": [[k[0], hashlib.sha256(repr(k).encode()).hexdigest(),
                          dist.outcomes[k].prob] for k in keys],
            "blocked": dist.blocked, "residual": dist.residual,
            "steps_used": dist.steps_used}


def _finitary(seed: int) -> list:
    term = A.random_finitary_program(seed, 10)
    halt = M.evaluate(M.load(term), max_steps=2000).halt_mass
    return [halt, A.is_finitary(term)]


def _letrec(seed: int) -> list:
    term = A.random_letrec_program(seed)
    return [A.is_finitary(term), S.pretty(S.lower_approximant(term, 3))]


def _letrec_evaluation(seed: int) -> dict:
    dist = M.evaluate(M.load(A.random_letrec_program(seed)), max_steps=LETREC_STEPS)
    keys = sorted(dist.outcomes, key=repr)
    return {"outcomes": [[hashlib.sha256(repr(k).encode()).hexdigest(),
                          dist.outcomes[k].prob] for k in keys],
            "blocked": dist.blocked, "residual": dist.residual,
            "pruned": dist.pruned, "steps_used": dist.steps_used}


def _canon_text(term: S.Term) -> str:
    return S.pretty(S.alpha_canonical(term))


def _samples(name: str) -> list:
    term = P.parse_term((PROGRAMS / f"{name}.qlam").read_text())
    out = []
    for seed in range(N_SAMPLE_SEEDS):
        trace = M.sample(M.load(term), seed)
        out.append({"steps": [[rule, prob, c.num_qubits, _canon_text(c.term)]
                              for rule, prob, c in trace.steps],
                    "final": _canon_text(trace.final.term),
                    "timed_out": trace.timed_out})
    return out


def _machine() -> dict:
    return {"programs": {n: _evaluation(n) for n in MACHINE_PROGRAMS},
            "finitary": [_finitary(s) for s in range(N_SCALAR_SEEDS)],
            "letrec": [_letrec(s) for s in range(N_LETREC_SEEDS)],
            "letrec_evaluation": [_letrec_evaluation(s) for s in range(N_LETREC_SEEDS)],
            "samples": {n: _samples(n) for n in SAMPLE_PROGRAMS}}


CASES = _cases()


def _golden_machine() -> dict:
    return json.loads((GOLDEN / "machine.json").read_text())


@pytest.mark.parametrize("stem", sorted(CASES))
def test_golden_morphism(stem):
    golden = (GOLDEN / f"{stem}.txt").read_text()
    text = C.serialize_morphism(CASES[stem]())
    # the header lines name the source and target webs
    assert text.splitlines()[:3] == golden.splitlines()[:3]
    diff = C.diff_entries(C.deserialize_entries(golden), C.deserialize_entries(text))
    assert diff[None] <= TOL, stem


def test_golden_scalars():
    golden = json.loads((GOLDEN / "scalars.json").read_text())
    assert len(golden) == N_SCALAR_SEEDS
    for seed, (want, got) in enumerate(zip(golden, _scalars())):
        assert abs(want - got) <= TOL, seed


@pytest.mark.parametrize("name", MACHINE_PROGRAMS)
def test_golden_evaluation(name):
    want, got = _golden_machine()["programs"][name], _evaluation(name)
    assert [k[:2] for k in got["outcomes"]] == [k[:2] for k in want["outcomes"]]
    for (*_, p), (*_, q) in zip(want["outcomes"], got["outcomes"]):
        assert abs(p - q) <= TOL
    for mass in ("blocked", "residual"):
        assert abs(want[mass] - got[mass]) <= TOL, mass
    assert got["steps_used"] == want["steps_used"]


def test_golden_finitary_halting():
    golden = _golden_machine()["finitary"]
    assert len(golden) == N_SCALAR_SEEDS
    for seed, (halt, fin) in enumerate(golden):
        got_halt, got_fin = _finitary(seed)
        assert abs(halt - got_halt) <= TOL, seed
        assert got_fin == fin, seed


def test_golden_letrec_approximants():
    golden = _golden_machine()["letrec"]
    assert len(golden) == N_LETREC_SEEDS
    for seed, want in enumerate(golden):
        assert _letrec(seed) == want, seed


def test_golden_letrec_evaluation():
    golden = _golden_machine()["letrec_evaluation"]
    assert len(golden) == N_LETREC_SEEDS
    for seed, want in enumerate(golden):
        got = _letrec_evaluation(seed)
        assert [k for k, _ in got["outcomes"]] == [k for k, _ in want["outcomes"]], seed
        for (_, p), (_, q) in zip(want["outcomes"], got["outcomes"]):
            assert abs(p - q) <= TOL, seed
        for mass in ("blocked", "residual", "pruned"):
            assert abs(want[mass] - got[mass]) <= TOL, (seed, mass)
        assert got["steps_used"] == want["steps_used"], seed


@pytest.mark.parametrize("name", SAMPLE_PROGRAMS)
def test_golden_sample_traces(name):
    golden = _golden_machine()["samples"][name]
    assert len(golden) == N_SAMPLE_SEEDS
    for seed, (want, got) in enumerate(zip(golden, _samples(name))):
        assert len(got["steps"]) == len(want["steps"]), seed
        for i, ((r, p, n, text), (r2, p2, n2, text2)) in enumerate(
                zip(want["steps"], got["steps"])):
            assert (r2, n2, text2) == (r, n, text), (seed, i)
            assert abs(p - p2) <= TOL, (seed, i)
        assert (got["final"], got["timed_out"]) == (want["final"], want["timed_out"]), seed


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, make in CASES.items():
        (GOLDEN / f"{stem}.txt").write_text(C.serialize_morphism(make()))
    (GOLDEN / "scalars.json").write_text(json.dumps(_scalars(), indent=1) + "\n")
    (GOLDEN / "machine.json").write_text(json.dumps(_machine(), indent=1) + "\n")
