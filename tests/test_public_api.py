"""Every public name of ``qlam`` has a caller outside the tests.

A public function, method or class defined in ``src/qlam`` must be referenced,
as a ``Name`` or an ``Attribute``, somewhere in ``src/``, ``scripts/`` or
``perfbench/``.  Code that only tests call belongs in the tests.  The check
goes by bare name, so a name shared with a used one passes unseen.  Two kinds
of reference do not count: one inside a definition of that name (a recursive
call is no caller), and an attribute of a numerical library (``np.linalg.norm``
does not call ``QState.norm``).

Every ``functools.lru_cache`` of ``src/qlam`` is listed, too, with a
``perfbench`` workload on which it hits: a cache that no workload hits is
dead weight, and a new one must name the workload it serves.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "scripts", "perfbench")
# public names with no such reference, each with the reason it stays
EXCEPTIONS = {
    "cpm.eval_mor": "the laws check application against it; perfbench/tracer.py patches it by name",
    "cpm.lunit_intro": "the laws build curry's composite from it; perfbench/tracer.py patches it by name",
    "denote.denote_closure": "the planned density-level adequacy check calls it",
    "parser.parse_type": "perfbench/tracer.py patches it by name, from a string",
    "syntax.lower_approximant": "the golden corpus and the finitary-approximant tests call it",
}
# attributes reached from these names belong to the libraries, not to qlam
LIBRARIES = {"np", "numpy", "scipy", "sparse"}
# every lru_cache of src/qlam, with a workload of BENCHMARK.json that hits it
# (hits over misses in one process, on perfbench's seed 77, session 0; that
# session of denote-large denotes teleport)
CACHES = {
    "cpm._digit_group": "denote-large",        # 353 / 12 on one cold teleport
    "cpm._vec_pair_parts": "denote-large",     # 27 / 2 on one cold teleport
    "cpm.bang_obj": "letrec-sandwich",         # 30 / 4 over 256 items
    "cpm.group_channel": "denote-large",       # 19 / 3 on one cold teleport
    "cpm.identity": "adequacy-fuzz",           # 524 / 54
    "cpm.lunit_elim": "adequacy-fuzz",         # 1403 / 54
    "cpm.swap": "adequacy-fuzz",               # 910 / 35
    "cpm.tensor_obj": "adequacy-fuzz",         # 4320 / 153
    "denote._route": "adequacy-fuzz",          # 1205 / 193
    "denote.denote": "letrec-sandwich",        # 283 / 77 over 256 items
    "denote.denote_type": "adequacy-fuzz",     # 2616 / 67
    "machine._plan": "sample-teleport",        # 1868 / 52 over 64 samples
    "syntax.strip_ascriptions": "adequacy-fuzz",  # 1823 / 1486
    "typecheck.check": "letrec-sandwich",      # 290 / 77 over 256 items
}


def _is_public_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def public_defs() -> dict:
    """Module-qualified name -> bare name, for every public top-level
    function and class of ``src/qlam`` and every public method of a class."""
    defs = {}
    for path in sorted((ROOT / "src" / "qlam").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if _is_public_def(node):
                defs[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for sub in filter(_is_public_def, node.body):
                    defs[f"{path.stem}.{node.name}.{sub.name}"] = sub.name
    return defs


def _root(node: ast.Attribute):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _references(node, enclosing=frozenset()):
    """The names referenced under ``node``, outside definitions of the same
    name (``enclosing`` holds the names of the definitions around it)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    if isinstance(node, ast.Name) and node.id not in enclosing:
        yield node.id
    elif (isinstance(node, ast.Attribute) and node.attr not in enclosing
          and _root(node) not in LIBRARIES):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def referenced_names() -> set:
    names = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            names.update(_references(ast.parse(path.read_text())))
    return names


def test_every_public_name_has_a_caller():
    used = referenced_names()
    unused = sorted(q for q, name in public_defs().items() if name not in used)
    # a listed exception that gained a caller, or lost its definition, fails too
    assert unused == sorted(EXCEPTIONS), f"public names with no caller: {unused}"


def _names_lru_cache(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "lru_cache"
            or isinstance(node, ast.Attribute) and node.attr == "lru_cache")


def cached_functions() -> set:
    """Module-qualified names of the functions of ``src/qlam`` decorated with
    an ``lru_cache``; any other use of ``lru_cache`` fails the check."""
    names = set()
    for path in sorted((ROOT / "src" / "qlam").glob("*.py")):
        tree = ast.parse(path.read_text())
        uses = sum(map(_names_lru_cache, ast.walk(tree)))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    if _names_lru_cache(dec.func if isinstance(dec, ast.Call) else dec):
                        names.add(f"{path.stem}.{node.name}")
                        uses -= 1
        assert uses == 0, f"{path.name} makes an lru_cache other than by decorator"
    return names


def test_every_cache_is_listed_with_a_workload_that_hits_it():
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert set(CACHES.values()) <= workloads
    # an unlisted cache, or a listed one that is gone, fails
    assert sorted(cached_functions()) == sorted(CACHES)
