"""Guard: every public top-level name of the package is used outside the other tests.

A name counts as used when its identifier appears in code (not in a string
or docstring) anywhere under ``src/`` or ``scripts/``, or in
``tests/test_acceptance.py``, other than at its own definition. A name that
only the other tests reach is test-only code: move it into the tests that
need it, or delete it.

The same holds for the annotated fields of the package's public classes
(its dataclasses): each must be read as an attribute (``obj.field`` in a
load, not only assigned) somewhere in those files. A field that only the
other tests read is filled on every call for nothing.

And no ``raise`` under ``src/`` names a Python builtin exception class: every
error the package raises derives from ``errors.RectiDistillError``, so the
CLI maps it to an exit code. A bare re-raise is allowed.

Bad input is rejected once, where it enters the program, so only the file
readers and the ``Dataset`` invariant build an ``InvalidInputError``. The CLI
and ``TrainConfig`` raise ``ConfigError``.

The modes have one set of names, the ones ``--mode`` takes. The library's
former names stay retired: no string constant under ``src/``, ``scripts/`` or
``tests/`` equals one, outside the few places listed in ``RETIRED_NAME_SITES``,
and ``README.md`` names none as a mode.

What a mode does has one home, its row of ``schedule.MODES``: no code under
``src/`` or ``scripts/`` compares a value with a mode's name.
"""

import ast
import builtins
import re
from pathlib import Path

from rectidistill.schedule import MODES

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


def public_fields(path: Path) -> set[tuple[str, str]]:
    fields = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            fields.update(
                (node.name, item.target.id) for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                and not item.target.id.startswith("_")
            )
    return fields


def attribute_reads(path: Path) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


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


def test_every_public_field_is_read_outside_the_unit_tests():
    read = set().union(*(attribute_reads(path) for path in USERS))
    unread = sorted(
        f"{path.stem}.{cls}.{field}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls, field in public_fields(path)
        if field not in read
    )
    assert unread == []


def test_an_assignment_does_not_count_as_a_read(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("class Box:\n    size: int\n\ndef fill(box):\n    box.size = 3\n")
    assert public_fields(source) == {("Box", "size")}
    assert "size" not in attribute_reads(source)


def builtin_raises(path: Path) -> list[str]:
    """``path:line`` of each ``raise`` that names a builtin exception class."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
            if isinstance(cls, type) and issubclass(cls, BaseException):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_raise_names_a_builtin_exception():
    hits = [hit for path in sorted((ROOT / "src").rglob("*.py")) for hit in builtin_raises(path)]
    assert hits == []


def test_builtin_raise_guard_allows_a_bare_reraise(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "def f(x):\n"
        "    try:\n"
        "        return int(x)\n"
        "    except ValueError:\n"
        "        raise\n"
        "    raise InvalidInputError('bad')\n"
        "    raise ValueError('bad')\n"
        "    raise KeyError\n"
    )
    assert builtin_raises(source) == ["mod.py:7", "mod.py:8"]


# The only functions that build an InvalidInputError; a nested function counts as its parent.
INPUT_CHECKS = {
    "data.Dataset.__post_init__",
    "data._data_lines",
    "data.load_csv",
    "model.load_checkpoint",
}


def input_error_sites(path: Path) -> list[tuple[str, int]]:
    """(qualified name of the enclosing def, line) of each InvalidInputError the code builds."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            # a call builds one, and so does a raise that names the class itself
            built = child.func if isinstance(child, ast.Call) else (
                child.exc if isinstance(child, ast.Raise) else None)
            name = built.attr if isinstance(built, ast.Attribute) else getattr(built, "id", None)
            if name == "InvalidInputError":
                sites.append((scope, child.lineno))
            visit(child, scope)

    visit(ast.parse(path.read_text()), path.stem)
    return sites


def test_invalid_input_error_is_built_only_at_the_boundary():
    stray = [f"{path.name}:{line} in {scope}"
             for path in sorted(PACKAGE.glob("*.py"))
             for scope, line in input_error_sites(path)
             if not any(scope == f or scope.startswith(f + ".") for f in INPUT_CHECKS)]
    assert stray == []


def test_input_error_sites_name_the_enclosing_def(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "class Box:\n"
        "    def check(self):\n"
        "        def inner():\n"
        "            return errors.InvalidInputError('a')\n"
        "        raise InvalidInputError('b')\n"
        "\n"
        "def other():\n"
        "    raise InvalidInputError\n"
    )
    assert input_error_sites(source) == [
        ("mod.Box.check.inner", 4), ("mod.Box.check", 5), ("mod.other", 8)]


RETIRED_MODE_NAMES = {"eliminate_only", "rectify_only", "vanilla_kd", "step_b_ablation",
                      "fixed_gamma"}
# (file, enclosing definition) of the only constants that may equal one
RETIRED_NAME_SITES = {
    # the bad-mode CLI test's rejected inputs
    ("test_cli.py", "TestDistill.test_bad_mode_is_train_config_s_usage_error_before_output"),
    ("test_public_names.py", "RETIRED_MODE_NAMES"),
}


def retired_name_constants(path: Path) -> list[tuple[str, int]]:
    """(enclosing definition, line) of each string constant equal to a retired mode name.

    A definition is a def or class, decorators included, or a module-level
    assignment's target; constants outside any have the scope ``""``.
    """
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            elif isinstance(child, ast.Assign) and not scope:
                inner = ",".join(t.id for t in child.targets if isinstance(t, ast.Name))
            if isinstance(child, ast.Constant) and child.value in RETIRED_MODE_NAMES:
                found.append((scope, child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text()), "")
    return sorted(found, key=lambda site: site[1])


def test_retired_mode_names_stay_retired():
    paths = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
             *sorted((ROOT / "tests").glob("*.py"))]
    stray = [f"{path.name}:{line} in {scope or '<module>'}"
             for path in paths
             for scope, line in retired_name_constants(path)
             if (path.name, scope) not in RETIRED_NAME_SITES]
    assert stray == []


def test_retired_name_constants_name_the_enclosing_definition(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "NAMES = ('vanilla_kd', 'vanilla')\n"
        "\n"
        "class Box:\n"
        "    @mark('fixed_gamma')\n"
        "    def run(self, fixed_gamma=None):\n"
        "        return 'step_b_ablation'\n"
        "\n"
        "print('rectify_only')\n"
    )
    assert retired_name_constants(source) == [
        ("NAMES", 1), ("Box.run", 4), ("Box.run", 6), ("", 8)]


def readme_mode_mentions(text: str) -> list[str]:
    """Each retired name the text uses as a mode: code-quoted, quoted or after ``--mode``.

    ``fixed_gamma`` as a bare identifier, as in a signature
    ``gamma(mode, epoch, epochs, fixed_gamma)``, does not count.
    """
    names = "|".join(sorted(RETIRED_MODE_NAMES))
    return [quoted or flag for quoted, flag in
            re.findall(rf"""[`"']({names})[`"']|--mode[ =]({names})\b""", text)]


def test_readme_names_no_retired_mode():
    assert readme_mode_mentions((ROOT / "README.md").read_text()) == []


def test_readme_guard_reads_a_mode_not_a_field():
    names = sorted(RETIRED_MODE_NAMES)[:3]
    text = "run `{}`, mode '{}' or --mode {}; gamma(mode, epoch, epochs, fixed_gamma), `fixed-gamma`"
    assert readme_mode_mentions(text.format(*names)) == names


def mode_comparisons(path: Path) -> list[str]:
    """``path:line`` of each ``==``, ``!=``, ``in`` or ``not in`` whose operand names a mode:
    a string constant equal to a key of ``schedule.MODES``, or a tuple, list or set literal
    that holds one."""
    def names_a_mode(node):
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return any(isinstance(item, ast.Constant) and item.value in MODES for item in items)

    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                   and (names_a_mode(left) or names_a_mode(right))
                   for op, left, right in zip(node.ops, operands, operands[1:])):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_code_branches_on_a_mode_name():
    paths = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]
    assert [hit for path in paths for hit in mode_comparisons(path)] == []


def test_mode_comparison_guard_reads_comparisons_not_calls_or_loops(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "a = mode == 'full'\n"
        "b = 'vanilla' != mode\n"
        "c = mode in ('step-b', 'other')\n"
        "d = mode not in {'rectify'}\n"
        "e = 0 < g < 1 and mode in ['bogus', 'eliminate']\n"
        "f = flag.startswith('fixed-gamma')\n"
        "g = mode == 'full-ish' or MODES['full'].hard\n"
        "for m in ('full', 'vanilla'):\n"
        "    pass\n"
    )
    assert mode_comparisons(source) == ["mod.py:1", "mod.py:2", "mod.py:3", "mod.py:4", "mod.py:5"]
