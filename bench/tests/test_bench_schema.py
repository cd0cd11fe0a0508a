"""BENCHMARK.json against the contract's limits and against ``spec``."""

import re

import spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
MANIFEST = spec.load_manifest()


def test_exactly_the_contract_keys():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["bench"]
    assert MANIFEST["command"] == ["python3", "bench/run.py"]
    assert isinstance(MANIFEST["run_seconds"], int)
    assert 1 <= MANIFEST["run_seconds"] <= 60
    assert spec.MANIFEST_PATH.stat().st_size <= 64 * 1024


def test_names_units_and_directions():
    names = []
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in MANIFEST["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names)), "a name is used once"
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128


def test_setup_time_is_an_end_to_end_metric_with_the_largest_bound():
    by_name = {m["name"]: m for m in MANIFEST["end_to_end"]}
    assert by_name["setup_s"]["unit"] == "s"
    assert by_name["setup_s"]["better"] == "lower"
    assert by_name["setup_s"]["bound"] == max(
        m["bound"] for m in MANIFEST["end_to_end"])


def test_manifest_and_spec_name_the_same_things():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(spec.WORKLOADS)
    assert ([m["name"] for m in MANIFEST["per_layer"]]
            == spec.layer_metric_names())
    # simulated seconds are labelled as such, host seconds never are
    for metric in MANIFEST["per_layer"]:
        assert ("sim_s" in metric["name"] or
                metric["name"].endswith("sim_completion_s")) \
            == (metric["unit"] == "sim_s"), metric


def test_every_layer_metric_has_an_interaction_row_with_real_targets():
    end_to_end = {m["name"] for m in MANIFEST["end_to_end"]}
    for metric in MANIFEST["per_layer"]:
        row = spec.interaction_for(metric["name"])
        assert row is not None, f"{metric['name']} has no interaction row"
        if metric["name"] != "trace_overhead_x":
            assert row.moves, f"{metric['name']} moves nothing"
        for target in row.moves + row.stays:
            name, _, workload = target.partition("@")
            assert name in end_to_end, target
            assert workload in spec.WORKLOADS, target
        assert not set(row.moves) & set(row.stays), metric["name"]


def test_exact_rows_win_over_layer_wildcards():
    assert "wall_s@fig7_cg_latency" in spec.interaction_for("net.flow_sends").stays
    assert "wall_s@scale_10k" in spec.interaction_for("net.calls_in").moves
