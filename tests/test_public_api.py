"""Every public name of ``qlam`` has a caller outside the tests.

A public function, method or class defined in ``src/qlam`` must be referenced,
as a ``Name`` or an ``Attribute``, somewhere in ``src/``, ``scripts/`` or
``perfbench/``.  Code that only tests call belongs in the tests.  The check
goes by bare name, so a name shared with a used one passes unseen.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "scripts", "perfbench")
# public names with no such reference, each with the reason it stays
EXCEPTIONS = {
    "denote.denote_closure": "the planned density-level adequacy check calls it",
    "parser.parse_type": "perfbench/tracer.py patches it by name, from a string",
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


def referenced_names() -> set:
    names = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    used = referenced_names()
    unused = sorted(q for q, name in public_defs().items() if name not in used)
    # a listed exception that gained a caller, or lost its definition, fails too
    assert unused == sorted(EXCEPTIONS), f"public names with no caller: {unused}"
