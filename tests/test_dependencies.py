"""locmult has no runtime dependencies: every module imports only the
standard library and locmult itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "locmult"


def test_every_import_is_stdlib_or_locmult():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # relative imports stay inside locmult
            for name in names:
                top = name.split(".")[0]
                assert top == "locmult" or top in sys.stdlib_module_names, (
                    path.name, name)
