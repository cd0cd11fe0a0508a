"""The code-only line count that simplicity changes are judged by: blank
lines, comments and docstrings are not code; every other token's lines are."""

import importlib.util
import pathlib
import textwrap

import pytest

LOC = pathlib.Path(__file__).resolve().parents[2] / ".github" / "loc.py"


def load():
    spec = importlib.util.spec_from_file_location("loc", LOC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("source,expected", [
    ("x = 1\n", {1}),
    ("\n\nx = 1\n\n", {3}),
    ("# a comment\nx = 1  # trailing comment\n", {2}),
    ('"""Module\ndocstring."""\nx = 1\n', {3}),
    ('def f():\n    """Doc."""\n    return 1\n', {1, 3}),
    ('class C:\n    """One\n    two."""\n    x = 1\n', {1, 4}),
    ('async def f():\n    """Doc."""\n    return 1\n', {1, 3}),
    ("f(\n    1,\n\n    2)\n", {1, 2, 4}),
    ('x = """a\nb"""\n', {1, 2}),
    ('def f():\n    x = 1\n    "not first, so not a docstring"\n', {1, 2, 3}),
    ('def f():\n    return 1\n    """after code"""\n', {1, 2, 3}),
], ids=["statement", "blank", "comments", "module-doc", "function-doc",
        "class-doc", "async-doc", "continuation", "string-value",
        "string-expression", "late-string"])
def test_code_lines(source, expected):
    assert load().code_lines(source) == expected


def test_count_is_raw_and_code_only(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent('''\
        """Doc."""

        # comment
        def f():
            return 1
        '''))
    assert load().count(path) == (5, 2)
