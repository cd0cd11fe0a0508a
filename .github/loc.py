"""Print the line counts of ``src/repro`` as a Markdown table.

raw = ``wc -l``; code = non-blank, non-comment, non-docstring lines, the
measure simplicity changes are judged by (reflowing docstrings or deleting
comments cannot move it).  Run from the repository root::

    python3 .github/loc.py
"""

import ast
import io
import pathlib
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(path):
    """``(raw, code-only)`` line counts of one Python file."""
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno,
                                    body[0].end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIP:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main():
    print("### `src/repro` lines per package")
    print("| package | lines | code-only lines |")
    print("|---|---|---|")
    total = [0, 0]
    root = pathlib.Path("src/repro")
    for package in [root, *sorted(p for p in root.iterdir() if p.is_dir())]:
        files = package.glob("*.py") if package == root else package.rglob("*.py")
        raw, code = map(sum, zip(*(count(f) for f in files)))
        total = [total[0] + raw, total[1] + code]
        print(f"| {package.name} | {raw} | {code} |")
    print(f"| **total** | {total[0]} | {total[1]} |")


if __name__ == "__main__":
    main()
