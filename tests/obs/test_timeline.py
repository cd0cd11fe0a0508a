"""Timeline export tests: Perfetto-loadable documents whose wave-phase
slices tile the protocol's own wave durations exactly."""

import json
import math

import pytest

from repro.apps import BT
from repro.ft import Fault
from repro.obs.timeline import (
    build_timeline,
    export_timeline,
    phase_sums,
    validate_trace_events,
)
from repro.runtime import DeploymentSpec, build_run
from repro.sim import Simulator
from repro.sim.trace import Tracer, dump_jsonl


def _traced_run(protocol, seed=123):
    sim = Simulator(seed=seed, trace=Tracer(enabled=True))
    bench = BT(klass="B", scale=0.05)
    spec = DeploymentSpec(
        n_procs=4, protocol=protocol, period=1.5, procs_per_node=2,
        image_bytes=bench.image_bytes(4) * 0.05,
    )
    run = build_run(sim, spec, bench.make_app(4), name="timeline-probe")
    run.start()
    sim.run_until_complete(run.completed, limit=1e8)
    return sim, run


@pytest.mark.parametrize("protocol", ["pcl", "vcl"])
def test_timeline_is_valid_trace_events(protocol):
    sim, run = _traced_run(protocol)
    doc = build_timeline(sim.trace.records)
    assert validate_trace_events(doc) == []
    events = doc["traceEvents"]
    assert any(e["ph"] == "M" for e in events)
    phases = {e["name"] for e in events
              if e["ph"] == "X" and e.get("cat") == "wave"}
    assert phases == {"markers", "flush", "stream", "commit"}


@pytest.mark.parametrize("protocol", ["pcl", "vcl"])
def test_phase_slices_tile_wave_durations(protocol):
    """The acceptance check: per wave, the four phase slices sum exactly
    (up to float addition error) to the FTStats wave duration."""
    sim, run = _traced_run(protocol)
    sums = phase_sums(sim.trace.records)
    durations = {wave: end - start
                 for wave, start, end in run.stats.wave_records}
    assert sums  # at least one completed wave
    assert set(sums) == set(durations)
    for wave, total in sums.items():
        assert math.isclose(total, durations[wave], abs_tol=1e-9), \
            f"wave {wave}: phases sum {total} != duration {durations[wave]}"


def test_pcl_timeline_shows_blocked_rank_slices():
    sim, run = _traced_run("pcl")
    doc = build_timeline(sim.trace.records)
    blocked = [e for e in doc["traceEvents"]
               if e["ph"] == "X" and e.get("cat") == "rank"
               and "blocked" in e["name"]]
    assert blocked
    ranks = {e["tid"] for e in blocked}
    assert ranks == {0, 1, 2, 3}
    assert all(e["dur"] >= 0.0 for e in blocked)


def test_vcl_timeline_shows_logging_windows_and_logged_counter():
    sim, run = _traced_run("vcl")
    doc = build_timeline(sim.trace.records)
    logging = [e for e in doc["traceEvents"]
               if e["ph"] == "X" and e.get("cat") == "rank"
               and "logging" in e["name"]]
    assert logging
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    if run.stats.logged_bytes > 0:
        assert counters
        final = counters[-1]["args"]["bytes"]
        assert final == pytest.approx(run.stats.logged_bytes)


def test_recovery_slices_and_agreement_instants():
    """A survivor recovery adds a second protocol-track thread with the
    detect/agree/promote/restore spans and one instant per agreement
    ballot; failure-free runs carry none of it (no thread metadata)."""
    sim = Simulator(seed=123, trace=Tracer(enabled=True))
    bench = BT(klass="B", scale=0.05)
    spec = DeploymentSpec(
        n_procs=4, protocol="pcl", period=1.5,
        image_bytes=bench.image_bytes(4) * 0.05,
        recovery_policy="spare", spares=2,
    )
    run = build_run(sim, spec, bench.make_app(4), name="recovery-probe")
    run.start()
    run.schedule(Fault("node", 1, 2.8))
    sim.run_until_complete(run.completed, limit=1e8)
    doc = build_timeline(sim.trace.records)
    assert validate_trace_events(doc) == []
    slices = [e for e in doc["traceEvents"]
              if e["ph"] == "X" and e.get("cat") == "recovery"]
    assert {e["name"] for e in slices} == \
        {"detect", "agree", "promote", "restore"}
    assert all(e["tid"] == 2 and e["args"]["policy"] == "spare"
               for e in slices)
    instants = [e for e in doc["traceEvents"]
                if e["ph"] == "i" and e.get("cat") == "recovery"]
    assert instants and all("ballot" in e["name"] for e in instants)
    threads = [e for e in doc["traceEvents"]
               if e["ph"] == "M" and e["pid"] == 1 and e["tid"] == 2]
    assert threads and threads[0]["args"]["name"] == "recovery"
    # failure-free twin: the recovery thread does not exist at all
    clean_sim, _clean = _traced_run("pcl")
    clean_doc = build_timeline(clean_sim.trace.records)
    assert not [e for e in clean_doc["traceEvents"]
                if e.get("cat") == "recovery"
                or (e["ph"] == "M" and e.get("pid") == 1
                    and e.get("tid") == 2)]


def test_export_round_trip(tmp_path):
    sim, run = _traced_run("pcl")
    jsonl = str(tmp_path / "run.jsonl")
    out = str(tmp_path / "run.trace.json")
    assert dump_jsonl(sim.trace.records, jsonl) > 0
    doc = export_timeline(jsonl, out)
    with open(out) as handle:
        loaded = json.load(handle)
    assert loaded == doc
    assert validate_trace_events(loaded) == []


def test_validate_rejects_malformed_documents():
    assert validate_trace_events([]) == ["document is not a JSON object"]
    assert validate_trace_events({}) == ["missing traceEvents array"]
    problems = validate_trace_events({"traceEvents": [
        {"ph": "Z", "ts": 0},
        {"ph": "X", "name": "x", "pid": 1, "tid": 0, "ts": 0.0},
        {"ph": "i", "name": "i", "pid": "one", "tid": 0, "ts": 1.0},
    ]})
    assert any("unknown phase" in p for p in problems)
    assert any("dur" in p for p in problems)
    assert any("pid is not an integer" in p for p in problems)


def test_unfinished_wave_slices_are_emitted_zero_length():
    from repro.sim.trace import TraceRecord

    records = [TraceRecord(1.0, "ft.enter_wave",
                           (("rank", 0), ("wave", 1)))]
    doc = build_timeline(records)
    unfinished = [e for e in doc["traceEvents"]
                  if "unfinished" in e.get("name", "")]
    assert len(unfinished) == 1
    assert unfinished[0]["dur"] == 0.0
