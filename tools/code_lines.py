"""Count the package's code lines, per module and in total, then the tools'.

Usage: python tools/code_lines.py

A code line is a line of src/fleetcontest/*.py (or of tools/*.py) that
is not blank, not a comment alone, and not part of a docstring (the
string that opens a module, class or function body).
"""

import ast
import io
import tokenize
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
PACKAGE = TOOLS.parent / "src" / "fleetcontest"


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in one module's source text."""
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in skipped:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main():
    for folder, prefix in ((PACKAGE, ""), (TOOLS, "tools/")):
        total = 0
        for path in sorted(folder.glob("*.py")):
            count = code_lines(path.read_text())
            total += count
            print(f"{count:6d}  {prefix}{path.name}")
        print(f"{total:6d}  {prefix}total")


if __name__ == "__main__":
    main()
