"""Count the lines of the package and of its tests.

Usage: python tools/line_counts.py

Prints the non-blank and code lines of each module of src/treeprotect and
of the package, then the non-blank lines of tests.  A line is non-blank if
it holds any non-space character.  A code line holds a token other than
COMMENT, NL, NEWLINE, INDENT, DEDENT and ENDMARKER (tokenize), outside the
docstrings of the module, its classes and its functions (ast).
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def non_blank(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip())


def docstring_lines(text: str) -> set[int]:
    """The line numbers that the docstrings of the module, classes and functions span."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    docs = docstring_lines(text)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


def main() -> None:
    src = {path.name: path.read_text() for path in sorted((ROOT / "src" / "treeprotect").glob("*.py"))}
    counts = {name: (non_blank(text), code_lines(text)) for name, text in src.items()}
    tests = [path.read_text() for path in sorted((ROOT / "tests").glob("*.py"))]
    for name, (lines, code) in counts.items():
        print(f"src/treeprotect/{name}: {lines} non-blank, {code} code")
    lines, code = (sum(column) for column in zip(*counts.values()))
    print(f"src/treeprotect: {lines} non-blank, {code} code")
    print(f"tests: {sum(map(non_blank, tests))} non-blank")


if __name__ == "__main__":
    main()
