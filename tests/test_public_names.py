"""Guard: every public top-level name of the package is used outside the other tests.

A name counts as used when its identifier appears in code (not in a string
or docstring) anywhere under ``src/`` or ``scripts/``, or in
``tests/test_acceptance.py``, other than at its own definition. A name that
only the other tests reach is test-only code: move it into the tests that
need it, or delete it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rectidistill"
USERS = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
         ROOT / "tests" / "test_acceptance.py"]


def public_names(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def referenced_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_name_is_used_outside_the_unit_tests():
    used = set().union(*(referenced_names(path) for path in USERS))
    unused = sorted(
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in public_names(path) - used
    )
    assert unused == []


def test_a_docstring_mention_does_not_count(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text('"""helper is documented here."""\n\ndef helper():\n    pass\n')
    assert public_names(source) == {"helper"}
    assert "helper" not in referenced_names(source)
