"""Golden corpus: denotations frozen from an earlier commit.

Refactors of ``cpm`` and ``denote`` must reproduce every file under
``tests/golden/`` to 1e-12 in the entrywise max norm (``cpm.diff_entries``).
The corpus covers the runnable programs at the default truncation, the qlist
denotation at small bounds, the exponential's structural maps on webs with a
nontrivial group and with mixed dimensions, and the scalar denotations of the
first fifty finitary fuzz programs.

``qlist`` and ``qlist-run`` are left out at the default bounds
(``list_max=4, bang_max=2``): denoting ``qlist-run`` there needs more memory
than an 8 GB machine has (the process was killed), so qlist is frozen at
``list_max=3, bang_max=1`` applied to a free qubit instead.

Regenerate only when a change of behaviour is intended, and say so in the
change log::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

import qlam.adequacy as A
import qlam.cpm as C
import qlam.denote as D
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
    cases["bierman_tensor-d2s-mixed-K2"] = (
        lambda: C.bierman_tensor(WEBS["d2s"], WEBS["mixed"], 2))
    return cases


def _scalars() -> list:
    return [A.scalar_denotation(A.random_finitary_program(s, 10))
            for s in range(N_SCALAR_SEEDS)]


CASES = _cases()


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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, make in CASES.items():
        (GOLDEN / f"{stem}.txt").write_text(C.serialize_morphism(make()))
    (GOLDEN / "scalars.json").write_text(json.dumps(_scalars(), indent=1) + "\n")
