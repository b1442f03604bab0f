"""Raw and code line counts of each module of ``src/sublayer_lab``.

Code lines leave out blank lines, comment-only lines and docstrings (the
string that opens a module, class or function body). Stdlib only; run from
anywhere as ``python3 tools/src_lines.py [package-dir]``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sublayer_lab"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) or not body:
            continue
        first = body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total_raw = total_code = 0
    print(f"{'module':<28}{'raw':>7}{'code':>7}")
    for path in sorted(package.glob("*.py")):
        raw, code = count(path.read_text(encoding="utf-8"))
        total_raw += raw
        total_code += code
        print(f"{path.name:<28}{raw:>7,}{code:>7,}")
    print(f"{'total':<28}{total_raw:>7,}{total_code:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
