import ast
import collections
import re
import sys
from pathlib import Path

import lowrank


def test_package_imports_only_the_standard_library():
    sources = sorted(Path(lowrank.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, (
                    f"{path.name}:{node.lineno} imports {name}"
                )


def test_package_modules_use_every_module_level_import():
    """A name a module imports at module level is read somewhere in that
    module; __init__.py only re-exports, so it is exempt."""
    sources = sorted(Path(lowrank.__file__).parent.glob("*.py"))
    for path in sources:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                # `import a.b` binds a; `import a as b` and `from m import a as b` bind b
                name = alias.asname or alias.name.split(".")[0]
                assert name in used, f"{path.name}:{node.lineno} imports {name} but never uses it"


_ROOT = Path(__file__).resolve().parent.parent
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _references(tree):
    """How often each name is read in tree: as a name, an attribute, an
    imported name, or a part of a dotted string such as
    "StructureConstants.__init__"."""
    refs = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                refs.update(node.value.split("."))
    return refs


def _unnamed_definitions(folders, kept):
    """The functions and classes of the package whose name passes `kept`
    and is named in no .py file under `folders` outside its own
    definition, as "file:line name"."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for folder in folders
        for path in sorted((_ROOT / folder).rglob("*.py"))
    }
    refs = collections.Counter()
    for tree in trees.values():
        refs.update(_references(tree))
    package = _ROOT / "src" / "lowrank"
    unused = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if kept(name) and refs[name] == _references(node)[name]:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_package_defines_nothing_unused():
    """Every function and class of the package, dunder methods aside, is
    named in src/, tests/ or perfbench/ outside its own definition."""
    dunder = lambda name: name.startswith("__") and name.endswith("__")
    assert _unnamed_definitions(("src", "tests", "perfbench"), lambda name: not dunder(name)) == []


def test_package_uses_every_private_definition():
    """Every private function and class of the package (one leading
    underscore) is named in src/ outside its own definition, so no code
    that only the tests call hides in the package under a private name."""
    private = lambda name: name.startswith("_") and not name.startswith("__")
    assert _unnamed_definitions(("src",), private) == []


def test_package_parses_at_the_oldest_supported_python():
    """Every module parses with the grammar of the oldest Python that
    pyproject.toml's requires-python admits, so syntax from a newer
    release fails here even when the tests run on that release."""
    pyproject = (_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)', pyproject).groups()
    oldest = (int(major), int(minor))
    sources = sorted(Path(lowrank.__file__).parent.rglob("*.py"))
    assert len(sources) > 5
    for path in sources:
        ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path), feature_version=oldest
        )


def test_readme_names_every_guard():
    """Each check_guard(count, limit, "label") call in the package names
    its label in README's Guards section, so the message a refusal
    prints can be looked up there."""
    labels = set()
    for path in sorted(Path(lowrank.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "check_guard"
            ):
                label = node.args[2]
                assert isinstance(label, ast.Constant), f"{path.name}:{node.lineno}"
                labels.add(label.value)
    assert len(labels) >= 5
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Guards\n", 1)[1].split("\n## ", 1)[0]
    text = " ".join(section.split())
    assert sorted(label for label in labels if label not in text) == []


def test_unchecked_table_constructor_names_its_callers():
    """StructureConstants._canonical stores rows without checking them,
    so its docstring names every function that calls it, by module and
    qualified name: the places that must build canonical rows stay
    listed as callers are added."""
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "_canonical"
            ):
                callers.add(".".join(scope))
            visit(child, scope)

    for path in sorted(Path(lowrank.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
    assert len(callers) >= 3
    doc = " ".join(lowrank.StructureConstants._canonical.__doc__.split())
    assert sorted(name for name in callers if f"`{name}`" not in doc) == []


def test_package_writes_json_only_through_its_canonical_writer():
    """No module calls json.dump or json.dumps, or imports either by
    name: rings._canonical_json writes every JSON byte the package
    prints, in the bytes of json.dumps(obj, indent=2, sort_keys=True)."""
    writers = {"dump", "dumps"}
    found = []
    for path in sorted(Path(lowrank.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "json":
                found += [f"{path.name}:{node.lineno}" for alias in node.names if alias.name in writers]
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in writers
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_exported_name_has_a_docstring():
    """Each name in lowrank.__all__ has a docstring, read as obj.__doc__:
    its own for a module, class or function (Python does not inherit a
    class docstring), its class's for an instance such as ZZ."""
    missing = [name for name in lowrank.__all__ if not getattr(lowrank, name).__doc__]
    assert missing == []


# The functions outside rings.py that may compare a ring's kind with "Q":
# algebra's lift helpers, each of which hands Z and F_p their input
# unchanged, the entry of the determinant loop that lifts it to ints, and
# _basis_values, which picks the ring's canonical constants.
_Q_LIFT_HELPERS = {
    "algebra._on_ints",
    "algebra._divided",
    "algebra._integral_model",
    "algebra._integral_models",
    "algebra._on_model",
    "algebra._char_poly_values",
    "algebra._basis_values",
}


def test_only_the_lift_helpers_ask_whether_the_ring_is_q():
    """A `.kind` attribute is compared with "Q" only in rings.py and in
    the lift helpers that _Q_LIFT_HELPERS names, by module and qualified
    name; every other function (in cubic, involutions, classify,
    quadratic, cli and the rest of algebra) takes one path on Z, Q and
    F_p."""
    found = set()

    def is_q_test(node):
        operands = [node.left, *node.comparators]
        return any(
            isinstance(a, ast.Attribute) and a.attr == "kind" for a in operands
        ) and any(
            isinstance(a, ast.Constant) and a.value == "Q"
            or isinstance(a, (ast.Tuple, ast.List, ast.Set))
            and any(isinstance(e, ast.Constant) and e.value == "Q" for e in a.elts)
            for a in operands
        )

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Compare) and is_q_test(child):
                found.add(".".join(scope))
            visit(child, scope)

    for path in sorted(Path(lowrank.__file__).parent.glob("*.py")):
        if path.name != "rings.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
    assert "algebra._on_ints" in found
    assert sorted(found - _Q_LIFT_HELPERS) == []
