"""List the ``def``s in ``src/repro`` that no user-facing command runs.

Profiles one fixed command list in this process -- ``harness all --profile
smoke --no-save``, the ``--smoke``, ``--storage``, ``--dcl`` and
``--recovery`` chaos slices, every ``examples/*.py`` and ``repro.perf`` --
and matches the profiler's function keys against every ``def`` in
``src/repro``.  A decorated def matches on its ``def`` line or on its first
decorator's line.  Prints the unreached defs as ``file:line name
code-lines``, grouped by package, with a total; code-only lines are counted
by ``loc.py``.  A def nested in a listed def is not listed again.  Pool
workers are not profiled, so ``REPRO_JOBS`` is unset.  Takes several
minutes.  Run from the repository root::

    python3 .github/reach.py
"""

import ast
import contextlib
import cProfile
import importlib.util
import os
import pathlib
import pstats
import runpy
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

_spec = importlib.util.spec_from_file_location(
    "loc", pathlib.Path(__file__).with_name("loc.py"))
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)


def unreached(paths, keys):
    """The defs in ``paths`` that no profiler key ``(file, line, name)``
    reaches, as ``(path, def line, name, code-only lines)`` in file order,
    and the number of defs looked at."""
    called = {(os.path.realpath(file), line) for file, line, _name in keys}
    found, total = [], 0
    for path in paths:
        source = pathlib.Path(path).read_text()
        code = loc.code_lines(source)
        real = os.path.realpath(path)
        listed = []
        # ast.walk is breadth first: a def comes before the defs nested in it
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            total += 1
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            if ((real, node.lineno) in called or (real, first) in called
                    or any(a <= first <= b for a, b, _ in listed)):
                continue
            listed.append((first, node.end_lineno, node))
        for first, last, node in sorted(listed, key=lambda item: item[0]):
            lines = sum(1 for n in code if first <= n <= last)
            found.append((path, node.lineno, node.name, lines))
    return found, total


def run_example(path):
    """Run one example script as ``python examples/NAME.py`` would."""
    sys.argv[:] = [str(path)]
    runpy.run_path(str(path), run_name="__main__")


def profile_commands():
    """Run the command list under one profiler; its function keys."""
    os.environ.pop("REPRO_JOBS", None)
    sys.path.insert(0, str(PACKAGE.parent))
    from repro.chaos.__main__ import main as chaos
    from repro.harness.__main__ import main as harness
    from repro.perf.__main__ import main as perf

    profile = cProfile.Profile()
    with tempfile.TemporaryDirectory() as out, \
            open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        commands = [("harness all", harness,
                     ["all", "--profile", "smoke", "--no-save"])]
        commands += [(f"chaos --{name}", chaos,
                      [f"--{name}", "--out", os.path.join(out, name)])
                     for name in ("smoke", "storage", "dcl", "recovery")]
        commands += [(path.name, run_example, path)
                     for path in sorted((ROOT / "examples").glob("*.py"))]
        commands.append(("perf", perf, []))
        for name, command, argument in commands:
            if profile.runcall(command, argument):
                sys.exit(f"reach map not taken: {name} exited non-zero")
    return pstats.Stats(profile).stats.keys()


def package(path):
    """The ``src/repro`` package a file belongs to."""
    parts = pathlib.Path(path).relative_to(PACKAGE).parts
    return parts[0] if len(parts) > 1 else "repro"


def main():
    keys = profile_commands()
    paths = sorted(PACKAGE.rglob("*.py"))
    found, total = unreached(paths, keys)
    print("### `src/repro` defs that no command reaches")
    print("```text")
    for group in sorted({package(row[0]) for row in found}):
        rows = [row for row in found if package(row[0]) == group]
        print(f"## {group}: {len(rows)} defs, "
              f"{sum(row[3] for row in rows)} code-only lines")
        for path, line, name, lines in rows:
            print(f"{path.relative_to(ROOT)}:{line} {name} {lines}")
    print(f"total: {len(found)} of {total} defs unreached, "
          f"{sum(row[3] for row in found)} code-only lines")
    print("```")


if __name__ == "__main__":
    main()
