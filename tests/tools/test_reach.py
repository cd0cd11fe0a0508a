"""The reach map's matcher: a def reached through a decorator, a closure or
a property is reached; only a def never called is listed.  Its command list
runs every module the docs document."""

import cProfile
import importlib
import importlib.util
import os
import pathlib
import pstats
import re

import pytest

REACH = pathlib.Path(__file__).resolve().parents[2] / ".github" / "reach.py"

TOY = '''\
import functools


def decorate(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


@decorate
def decorated(x):
    return x + 1


def outer():
    def nested():
        return 2
    return nested()


class Box:
    @property
    def size(self):
        return 3


def never():
    # a comment is not a code line
    return 4
'''


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_the_never_called_def_is_listed(tmp_path):
    reach = load("reach", REACH)
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    profile = cProfile.Profile()
    profile.enable()
    toy = load("toy", path)
    assert (toy.decorated(1), toy.outer(), toy.Box().size) == (2, 2, 3)
    profile.disable()

    found, total = reach.unreached([path], pstats.Stats(profile).stats)
    assert found == [(path, 28, "never", 2)]
    assert total == 7


NESTED = '''\
def top():
    """Doc."""
    # comment
    def inner():
        return 1
    return inner()


@decorate
def decorated():
    return 2


async def coro():
    return 3
'''


def nested_module(tmp_path, name="nested.py"):
    path = tmp_path / name
    path.write_text(NESTED)
    return path


def test_unreached_outer_def_hides_its_nested_defs(tmp_path):
    path = nested_module(tmp_path)
    found, total = load("reach", REACH).unreached([path], [])
    assert found == [(path, 1, "top", 4), (path, 10, "decorated", 3),
                     (path, 14, "coro", 2)]
    assert total == 4


def test_nested_def_listed_when_only_its_parent_ran(tmp_path):
    path = nested_module(tmp_path)
    keys = [(str(path), 1, "top"), (str(path), 10, "decorated"),
            (str(path), 14, "coro")]
    found, _ = load("reach", REACH).unreached([path], keys)
    assert found == [(path, 4, "inner", 2)]


@pytest.mark.parametrize("line", [9, 10], ids=["decorator", "def"])
def test_decorated_def_reached_on_either_line(tmp_path, line):
    path = nested_module(tmp_path)
    keys = [(str(path), 1, "top"), (str(path), 4, "inner"),
            (str(path), line, "wrapper"), (str(path), 14, "coro")]
    found, _ = load("reach", REACH).unreached([path], keys)
    assert found == []


def test_key_of_another_file_does_not_reach(tmp_path):
    path = nested_module(tmp_path)
    other = nested_module(tmp_path, "other.py")
    keys = [(str(other), line, name)
            for line, name in [(1, "top"), (4, "inner"), (10, "decorated"),
                               (14, "coro")]]
    found, total = load("reach", REACH).unreached([path, other], keys)
    assert [(p, line) for p, line, _, _ in found] == [
        (path, 1), (path, 10), (path, 14)]
    assert total == 8


@pytest.mark.parametrize("parts,group", [
    (("__init__.py",), "repro"),
    (("mpi", "context.py"), "mpi"),
    (("harness", "figures", "fig6.py"), "harness"),
])
def test_package_groups_by_first_directory(parts, group):
    reach = load("reach", REACH)
    assert reach.package(reach.PACKAGE.joinpath(*parts)) == group


def test_every_module_the_docs_run_is_in_the_command_list():
    """Each ``python -m repro...`` that README.md or docs/ names is run by
    the map: a command it left out would list live code as dead."""
    root = REACH.parents[1]
    documented = set()
    for path in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        documented.update(re.findall(r"python3? -m (repro[\w.]*)",
                                     path.read_text()))
    commands = {module for module, _argv in load("reach", REACH).COMMANDS}
    assert "repro.harness" in documented
    assert documented <= commands, sorted(documented - commands)


def test_every_command_names_a_module_with_a_main():
    for module, argv in load("reach", REACH).COMMANDS:
        spec = importlib.util.find_spec(module)
        if spec.submodule_search_locations:
            module += ".__main__"
        assert callable(importlib.import_module(module).main), module
        assert all(isinstance(argument, str) for argument in argv)


def test_run_module_runs_a_package_main_and_puts_the_environment_back(
        tmp_path, monkeypatch):
    package = tmp_path / "reachtoy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(
        "import os\n\n\ndef main(argv):\n"
        "    os.environ['REACH_TOY'] = '1'\n    return len(argv)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delenv("REACH_TOY", raising=False)
    assert load("reach", REACH).run_module("reachtoy", ["a", "b"]) == 2
    assert "REACH_TOY" not in os.environ


def test_run_module_runs_a_plain_module_main(tmp_path, monkeypatch):
    (tmp_path / "reachtoymod.py").write_text(
        "def main(argv):\n    return argv[0]\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    assert load("reach", REACH).run_module("reachtoymod", ["x"]) == "x"


def test_the_command_list_writes_only_into_its_temporary_directory():
    """Every output path -- results, reports, recordings, the refreshed
    baseline -- is under ``{tmp}``: the map never rewrites the repo's
    results/ or BENCH_engine.json."""
    writes = {"--save-dir", "--out", "-o", "--baseline"}
    for module, argv in load("reach", REACH).COMMANDS:
        for flag, value in zip(argv, argv[1:]):
            if flag in writes:
                assert value.startswith("{tmp}/"), (module, flag, value)
        assert "--no-save" not in argv
