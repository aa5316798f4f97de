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


def test_package_defines_nothing_unused():
    """Every function and class of the package, dunder methods aside, is
    named in src/, tests/ or perfbench/ outside its own definition."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for folder in ("src", "tests", "perfbench")
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
            if name.startswith("__") and name.endswith("__"):
                continue
            if refs[name] == _references(node)[name]:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
