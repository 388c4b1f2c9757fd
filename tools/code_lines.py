"""Count the code lines of each module of the package.

    python3 tools/code_lines.py [path ...]

A code line holds at least one token other than a comment, outside the
docstrings of the module, its classes and its functions.  Blank lines,
comment lines and docstring lines do not count; a string that spans lines
and is not a docstring counts on every line it spans.  Without arguments
every module under ``src/rkhslab`` is counted.  One line is printed per
module, then the total:

    <module path from the repository root> <code lines>
    total <code lines>
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: tokens that hold no code
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """Where each module, class and function docstring starts, as ``(line, column)``."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if token.type not in NON_CODE and not (token.type == tokenize.STRING and token.start in docstrings):
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(arg).resolve() for arg in argv] or sorted((ROOT / "src" / "rkhslab").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{path.relative_to(ROOT) if path.is_relative_to(ROOT) else path} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
