import ast
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
