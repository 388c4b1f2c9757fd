"""List the names each module of the package, its tests and its tools imports but never uses.

    python3 tools/unused_imports.py

Every module under ``src/rkhslab``, ``tests`` and ``tools``, except the
package's ``__init__.py`` (which imports to re-export), is parsed with the
standard-library ``ast``.  A name bound by an ``import`` or
``from ... import`` statement counts as used when it appears anywhere in the
module as a name, including as the base of an attribute access and inside
annotations.  One line per unused import is printed:

    <module path from the repository root>: <name>

The exit status is 1 when any line is printed, 0 otherwise.
"""
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = (ROOT / "src" / "rkhslab", ROOT / "tests", ROOT / "tools")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used, key=imported.get)


def main() -> int:
    found = False
    for directory in SCANNED:
        for path in sorted(directory.glob("*.py")):
            if path.name == "__init__.py":
                continue
            for name in unused_imports(path.read_text()):
                print(f"{path.relative_to(ROOT)}: {name}")
                found = True
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
