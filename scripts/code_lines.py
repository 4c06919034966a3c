"""Count the code lines of Python files: physical lines that hold a token
other than a comment or a docstring. Blank lines, comment lines and the
lines of module, class and function docstrings do not count.

    python3 scripts/code_lines.py src/vlprep/*.py
    python3 scripts/code_lines.py src/vlprep   # every .py file under it

Prints each file's count, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, str(path))))


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: code_lines.py PATH...", file=sys.stderr)
        return 2
    files = [f for p in map(Path, argv)
             for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
