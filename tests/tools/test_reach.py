"""The reach map's matcher: a def reached through a decorator, a closure or
a property is reached; only a def never called is listed."""

import cProfile
import importlib.util
import pathlib
import pstats

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
