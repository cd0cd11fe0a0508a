"""The examples must at least import cleanly, and the quickstart (plus the
traced failure demo) must run end to end."""

import importlib.util
import pathlib
import re
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load(name):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples.{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", [
    "quickstart",
    "cluster_checkpoint_study",
    "myrinet_crossover",
    "grid_deployment",
    "failure_recovery_demo",
])
def test_example_imports(name):
    module = load(name)
    assert callable(module.main)


def test_quickstart_runs(capsys):
    load("quickstart").main()
    out = capsys.readouterr().out
    assert "failures / restarts: 1 / 1" in out
    assert "despite the failure" in out


def test_failure_recovery_demo_runs(capsys):
    load("failure_recovery_demo").main()
    out = capsys.readouterr().out
    assert "ft.failure_detected" in out
    replayed = re.findall(r"^  t=\s*\S+\s+ft\.replayed ", out, re.M)
    assert replayed  # the kill lands where the log has something to replay
    assert f"restart replayed {len(replayed)} logged" in out
