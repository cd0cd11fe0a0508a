"""Golden-results sweep: every checked-in smoke result is reproducible.

``results/*_smoke.json`` are the committed smoke-profile figure documents
(seed 0).  Re-running each experiment must reproduce its file **byte for
byte** — series, shape checks, monitor verdicts, everything.  A diff here
means a simulation-behaviour change shipped without regenerating the
goldens (``python -m repro.harness all --profile smoke --save-dir
results``) — which is exactly the drift this sweep exists to catch.

The sweep is marked ``golden`` so it can be deselected for fast local
iteration with ``-m "not golden"``; CI always runs it.
"""

import glob
import json
import os

import pytest

from repro.harness import get_experiment, get_profile
from repro.tools.compare import diff

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "results")
GOLDEN_PATHS = sorted(glob.glob(os.path.join(RESULTS_DIR, "*_smoke.json")))


def _figure_id(path):
    return os.path.basename(path)[:-len("_smoke.json")]


def test_sweep_covers_every_committed_smoke_result():
    assert len(GOLDEN_PATHS) >= 12, \
        "golden smoke results missing from results/"


@pytest.mark.golden
@pytest.mark.parametrize("path", GOLDEN_PATHS, ids=_figure_id)
def test_smoke_result_is_byte_identical(path, monkeypatch):
    # goldens are generated metrics-off; don't let the environment leak in
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    with open(path) as handle:
        golden_text = handle.read()
    golden = json.loads(golden_text)
    assert golden["profile"] == "smoke"
    result = get_experiment(golden["figure"])(get_profile("smoke", seed=0))
    regenerated = json.dumps(result.as_dict(), indent=2)
    assert result.all_checks_pass, \
        f"{golden['figure']}: shape checks failed on regeneration"
    assert regenerated == golden_text, (
        f"{golden['figure']}: regenerated document differs from the "
        f"committed golden — if the simulation change is intentional, "
        f"regenerate results/ (see the module docstring):\n"
        + moved(golden, json.loads(regenerated))
    )


def moved(golden, regenerated, limit=20):
    """The paths at which two documents differ, old -> new, one a line
    (``repro.tools.compare``'s diff; at most ``limit`` of them)."""
    lines = [f"  {name}: {old!r} -> {new!r}"
             for name, old, new in diff(golden, regenerated)]
    if len(lines) > limit:
        lines[limit:] = [f"  ... and {len(lines) - limit} more"]
    return "\n".join(lines) or "  (no path differs: the bytes do)"


def test_a_failed_sweep_names_the_moved_paths():
    with open(GOLDEN_PATHS[0]) as handle:
        golden = json.load(handle)
    edited = json.loads(json.dumps(golden))
    before = golden["series"][0]["ys"][0]
    edited["series"][0]["ys"][0] = before * 2
    del edited["notes"]
    assert moved(golden, edited).splitlines() == [
        f"  series[0].ys[0]: {before!r} -> {before * 2!r}",
        f"  notes: {golden['notes']!r} -> absent",
    ]
    assert moved(golden, edited, limit=1).splitlines()[1:] == [
        "  ... and 1 more"]
