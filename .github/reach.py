"""List the ``def``s in ``src/repro`` that no user-facing command runs.

Profiles one fixed command list in this process -- :data:`COMMANDS`, every
``python -m repro...`` command that README.md and docs/ document, with the
files they write kept in a temporary directory, then every ``examples/*.py``
-- and matches the profiler's function keys against every ``def`` in
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
import shutil
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


#: ``(module, arguments)``, each run as ``python -m module arguments``, in
#: order; ``{tmp}`` is the temporary directory, which starts with a copy of
#: the count baseline
COMMANDS = [
    ("repro.harness", ["all", "--profile", "smoke",
                       "--save-dir", "{tmp}/results"]),
    ("repro.harness", ["fig6", "--profile", "smoke", "--metrics",
                       "--save-dir", "{tmp}/metrics"]),
    ("repro.harness.experiments_md", ["--results", "{tmp}/results",
                                      "--out", "{tmp}/EXPERIMENTS.md"]),
    ("repro.tools.compare", ["{tmp}/results", "results",
                             "--allow", "*_quick.json:"]),
    *[("repro.chaos", [f"--{name}", "--out", f"{{tmp}}/{name}"])
      for name in ("smoke", "storage", "dcl", "recovery")],
    ("repro.chaos", ["--recovery", "--list", "--filter", "pcl",
                     "--policy", "spare", "--seed", "1"]),
    ("repro.obs", ["record", "--protocol", "pcl", "-o", "{tmp}/run.jsonl"]),
    ("repro.obs", ["timeline", "{tmp}/run.jsonl",
                   "-o", "{tmp}/run.trace.json"]),
    ("repro.obs", ["validate", "{tmp}/run.trace.json"]),
    ("repro.verify", ["{tmp}/run.jsonl"]),
    ("repro.perf", []),
    ("repro.perf", ["--baseline", "{tmp}/BENCH_engine.json", "--update"]),
]


def run_module(module, argv):
    """Run ``python -m module *argv`` in this process; its exit status.
    The environment a command sets (``--metrics`` sets ``REPRO_METRICS``)
    is put back afterwards."""
    if importlib.util.find_spec(module).submodule_search_locations:
        module += ".__main__"
    environ = dict(os.environ)
    try:
        return importlib.import_module(module).main(argv)
    finally:
        os.environ.clear()
        os.environ.update(environ)


def run_example(path):
    """Run one example script as ``python examples/NAME.py`` would."""
    sys.argv[:] = [str(path)]
    runpy.run_path(str(path), run_name="__main__")


def profile_commands():
    """Run the command list under one profiler; its function keys."""
    os.environ.pop("REPRO_JOBS", None)
    sys.path.insert(0, str(PACKAGE.parent))
    profile = cProfile.Profile()
    with tempfile.TemporaryDirectory() as tmp, \
            open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        shutil.copy(ROOT / "BENCH_engine.json", tmp)
        for module, argv in COMMANDS:
            argv = [argument.format(tmp=tmp) for argument in argv]
            if profile.runcall(run_module, module, argv):
                sys.exit(f"reach map not taken: python -m {module} "
                         f"{' '.join(argv)} exited non-zero")
        for path in sorted((ROOT / "examples").glob("*.py")):
            profile.runcall(run_example, path)
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
