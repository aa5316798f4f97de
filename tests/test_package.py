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
