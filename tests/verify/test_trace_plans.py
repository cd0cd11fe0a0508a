"""The positional trace plans and the monitors behind them.

`test_monitor_negatives` proves each check fires through both transports;
this suite pins the plumbing between them: the declared schemas agree with
every handler's signature, a site passing the wrong values fails loudly, a
storing tracer materialises exactly the record the keyword API builds, the
live verdicts of a real run equal an offline re-check of its dump, the
offline CLI rejects malformed lines at the boundary, and the documented
category table is the declared one.
"""

import inspect
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.apps import BENCHMARKS
from repro.ft import Fault
from repro.harness.config import SMOKE
from repro.harness.runner import execute
from repro.sim import Simulator, Tracer
from repro.sim.trace import SCHEMAS, TraceRecord, dump_jsonl
from repro.verify import MonitorBus, all_monitors
from repro.verify.cli import check_trace, main

pytestmark = pytest.mark.unmonitored  # every run here attaches its own bus

DOCS = Path(__file__).resolve().parents[2] / "docs"


def run(protocol, policy="restart", kill=True, **kwargs):
    """One 4-rank BT run at the chaos campaign's scale, optionally with a
    task kill between waves 1 and 2."""
    bench = BENCHMARKS["bt"](klass="B", scale=0.05)
    return execute(
        bench, 4, protocol, replace(SMOKE, time_scale=0.05, seed=0),
        period=30.0, seed=0, time_limit=8.0 * bench.expected_time(4),
        faults=[Fault("task", 1, 2.8)] if kill else (),
        policy=policy, spares=2 if policy == "spare" else 0, **kwargs)


# -------------------------------------------------------------------- schemas
def test_handler_signatures_match_declared_schemas():
    """Each handler names exactly its category's declared fields, in order
    (or takes none of them); a default marks a field a site may omit."""
    handled = set()
    for monitor in all_monitors():
        for category, name in monitor.handlers.items():
            handled.add(category)
            schema = SCHEMAS[category]  # a handler of an undeclared category
            params = list(inspect.signature(
                getattr(monitor, name)).parameters.values())
            assert params[0].name == "time", (monitor.name, name)
            kinds = {p.kind for p in params[1:]}
            if kinds == {inspect.Parameter.VAR_POSITIONAL,
                         inspect.Parameter.VAR_KEYWORD}:
                continue  # serves several categories, reads no field
            assert tuple(p.name for p in params[1:]) == schema.names, (
                f"{monitor.name}.{name} does not take {category}'s "
                f"declared fields {schema.names}")
            for param in params[1:]:
                if param.default is not inspect.Parameter.empty:
                    assert param.default is None
                    assert param.name not in schema.required, (
                        f"{monitor.name}.{name}: {param.name} has a default "
                        f"but {category} declares it required")
    assert {"net.sent", "net.delivered", "mpi.send", "mpi.recv",
            "mpi.deliver"} <= handled


def test_wrong_number_of_values_at_a_site_fails_loudly():
    sim = Simulator()
    MonitorBus(all_monitors()).attach(sim)
    sim.trace.probes["net.sent"](0.0, "conn1.ab", 1, 8.0)
    with pytest.raises(TypeError):
        sim.trace.probes["net.sent"](0.0, "conn1.ab", 2)
    with pytest.raises(TypeError):
        sim.trace.probes["net.delivered"](0.0, "conn1.ab", 1, 8.0)
    with pytest.raises(TypeError):  # the keyword API, a misspelt field
        sim.trace.record(0.0, "net.delivered", pipe="conn1.ab", mesg=1)


def test_positional_and_keyword_emission_store_the_same_record():
    tracer = Tracer(enabled=True)
    tracer.probes["net.sent"](1.0, "conn1.ab", 1, 8.0)
    tracer.record(1.0, "net.sent", pipe="conn1.ab", msg=1, nbytes=8.0)
    tracer.record(2.0, "ft.failure", kind="task", rank=3)  # optional omitted
    first, second, failure = tracer.records
    assert first == second
    assert first.fields == (("pipe", "conn1.ab"), ("msg", 1), ("nbytes", 8.0))
    assert failure.fields == (("kind", "task"), ("rank", 3))


def test_probes_follow_subscriptions_and_storage():
    tracer = Tracer(enabled=False)
    assert tracer.probes == {}  # dark: a hot site's only cost is the lookup
    seen = []
    tracer.subscribe(seen.append, ["net.sent"])
    assert set(tracer.probes) == {"net.sent"}
    tracer.probes["net.sent"](1.0, "conn1.ab", 1, 8.0)
    assert seen == [TraceRecord(1.0, "net.sent", (
        ("pipe", "conn1.ab"), ("msg", 1), ("nbytes", 8.0)))]
    tracer.unsubscribe(seen.append)
    assert tracer.probes == {}
    assert set(Tracer(enabled=True).probes) == set(SCHEMAS)
    assert set(Tracer(categories=["mpi.recv"]).probes) == {"mpi.recv"}


# --------------------------------------------------------------- differential
@pytest.mark.parametrize("protocol", ["pcl", "vcl", "dcl"])
def test_online_verdicts_equal_offline_recheck(protocol, tmp_path):
    """Storing tracer and bus attached together: the dump, re-checked
    offline through ``on_record``, reproduces the live verdict rows."""
    tracer = Tracer(enabled=True)
    result = run(protocol, tracer=tracer)
    online = result.meta["monitors"]["verdicts"]
    assert result.stats.restarts == 1 and all(v["ok"] for v in online.values())
    path = str(tmp_path / "run.jsonl")
    dump_jsonl(tracer.records, path)
    offline = check_trace(path, stop_early=False).verdicts()
    # the pop stream is not in the dump: offline, monotone-clock sees only
    # the record timestamps, online it sees every pop as well
    pops = result.meta["events"]
    assert pops > 0
    assert (offline["monotone-clock"]["checked"] == len(tracer.records)
            == online["monotone-clock"]["checked"] - pops)
    for name in set(online) - {"monotone-clock"}:
        assert offline[name] == online[name], name
    for name in set(offline) - set(online):  # not selected for this run
        assert offline[name]["ok"], name


# ------------------------------------------------------------------- boundary
@pytest.mark.parametrize("line,message", [
    ('{"category": "net.delivered", "pipe": "conn1.ab", "msg": 1}',
     "net.delivered record lacks 'time'"),
    ('{"time": 0.2, "category": "net.delivered", "pipe": "conn1.ab"}',
     "net.delivered record lacks field 'msg'"),
    ('{"time": 0.2, "category": "mpi.recv", "job": 1, "rank": 0, "src": 1, '
     '"seq": "2"}',
     "mpi.recv field 'seq' is str, expected int"),
])
def test_offline_cli_rejects_malformed_lines_at_the_boundary(
        line, message, tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"time": 0.1, "category": "net.sent", "pipe": "conn1.ab", '
        '"msg": 1, "nbytes": 8}\n' + line + "\n")
    assert main([str(path)]) == 2
    assert capsys.readouterr().err.strip() == f"{path}:2: {message}"


# ----------------------------------------------------------------------- docs
def category_table():
    """The trace-category table of docs/OBSERVABILITY.md, from the schemas."""
    consumers = {}
    for monitor in all_monitors():
        for category in monitor.handlers:
            consumers.setdefault(category, []).append(monitor.name)
    rows = ["| category | fields, in order | emitted by | consumed by |",
            "|---|---|---|---|"]
    for category, schema in sorted(SCHEMAS.items()):
        fields = ", ".join(
            name if name in schema.required else f"{name}?"
            for name in schema.names)
        rows.append(
            f"| `{category}` | {fields} | `{schema.module}` | "
            f"{', '.join(consumers.get(category, [])) or '—'} |")
    return "\n".join(rows)


def test_documented_category_table_is_the_declared_one():
    text = (DOCS / "OBSERVABILITY.md").read_text()
    block = re.search(r"<!-- trace-categories:begin -->\n(.*?)\n"
                      r"<!-- trace-categories:end -->", text, re.S)
    assert block, "docs/OBSERVABILITY.md lost its trace-category table"
    assert block.group(1) == category_table(), (
        "docs/OBSERVABILITY.md's trace-category table is stale; replace it "
        "with:\n" + category_table())
