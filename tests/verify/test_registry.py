"""The monitor registry: one enumeration, guards declared by the classes.

``repro.verify.monitors.REGISTRY`` is the only list of shipped monitors;
``all_monitors()`` instantiates it and ``monitors_for(spec)`` filters it by
what each class says it guards.  Pinned here: the selection for every
protocol x recovery policy (as the hand-written ``applies`` table this
replaced gave it), that no protocol or survivor policy is left unguarded, that
the two functions stay free of class names and string comparisons, and
that a monitor defined *outside* ``repro.verify`` joins by declaring a
guard — the seam the next protocol family's monitor uses.
"""

import ast
import inspect
import json
import pathlib

import pytest

from repro.ft import PROTOCOLS, RECOVERY_POLICIES
from repro.ft.recovery import SURVIVOR_POLICIES
from repro.runtime import DeploymentSpec
from repro import verify
from repro.verify import Monitor, all_monitors, monitors, monitors_for, on
from tests.verify.test_trace_plans import run

pytestmark = pytest.mark.unmonitored  # the one run here attaches its own bus

#: ``[m.name for m in monitors_for(spec)]``, per (protocol, recovery
#: policy)
SELECTED = {
    (None, "restart"):
        "monotone-clock fifo-delivery fd-budget",
    (None, "spare"):
        "monotone-clock fifo-delivery fd-budget "
        "membership-agreement spare-consistency",
    (None, "shrink"):
        "monotone-clock fifo-delivery fd-budget "
        "membership-agreement spare-consistency",
    ("pcl", "restart"):
        "monotone-clock fifo-delivery pcl-flush fd-budget "
        "wave-liveness storage-durability",
    ("pcl", "spare"):
        "monotone-clock fifo-delivery pcl-flush fd-budget "
        "wave-liveness storage-durability "
        "membership-agreement spare-consistency",
    ("pcl", "shrink"):
        "monotone-clock fifo-delivery pcl-flush fd-budget "
        "wave-liveness storage-durability "
        "membership-agreement spare-consistency",
    ("vcl", "restart"):
        "monotone-clock fifo-delivery vcl-no-orphan vcl-logging fd-budget "
        "wave-liveness storage-durability",
    ("vcl", "spare"):
        "monotone-clock fifo-delivery vcl-no-orphan vcl-logging fd-budget "
        "wave-liveness storage-durability "
        "membership-agreement spare-consistency",
    ("vcl", "shrink"):
        "monotone-clock fifo-delivery vcl-no-orphan vcl-logging fd-budget "
        "wave-liveness storage-durability "
        "membership-agreement spare-consistency",
    ("dcl", "restart"):
        "monotone-clock fifo-delivery dcl-network-empty dcl-drain-liveness "
        "fd-budget wave-liveness storage-durability",
    ("dcl", "spare"):
        "monotone-clock fifo-delivery dcl-network-empty dcl-drain-liveness "
        "fd-budget wave-liveness storage-durability "
        "membership-agreement spare-consistency",
    ("dcl", "shrink"):
        "monotone-clock fifo-delivery dcl-network-empty dcl-drain-liveness "
        "fd-budget wave-liveness storage-durability "
        "membership-agreement spare-consistency",
}

#: ``[m.name for m in all_monitors()]``: the key order under
#: ``monitors.*.verdicts`` in every golden
SHIPPED = ("monotone-clock fifo-delivery vcl-no-orphan vcl-logging pcl-flush "
           "dcl-network-empty dcl-drain-liveness fd-budget "
           "wave-liveness storage-durability membership-agreement "
           "spare-consistency")


def spec(protocol, policy="restart"):
    return DeploymentSpec(n_procs=4, protocol=protocol, recovery_policy=policy)


def names(found):
    return [monitor.name for monitor in found]


@pytest.mark.parametrize("protocol,policy", sorted(SELECTED, key=str))
def test_selection_matches_the_table_pinned_from_the_parent(protocol, policy):
    assert names(monitors_for(spec(protocol, policy))) \
        == SELECTED[protocol, policy].split()


def test_registry_order_is_the_verdict_key_order_of_the_goldens():
    assert names(all_monitors()) == SHIPPED.split()
    assert [type(m) for m in all_monitors()] == list(monitors.REGISTRY)


def test_every_protocol_and_survivor_policy_is_guarded():
    """A family or a survivor policy registered in ``repro.ft`` that arms
    no monitor of its own would ship unchecked."""
    assert {protocol for protocol, _ in SELECTED} == {None, *PROTOCOLS}
    assert {policy for _, policy in SELECTED} == set(RECOVERY_POLICIES)
    unguarded = set(names(monitors_for(spec(None))))
    armed_by = {protocol: set(names(monitors_for(spec(protocol)))) - unguarded
                for protocol in PROTOCOLS}
    shared = set.intersection(*armed_by.values())
    assert shared == {"wave-liveness", "storage-durability"}
    for protocol, armed in armed_by.items():
        assert armed - shared, f"{protocol} has no monitor of its own"
    assert SURVIVOR_POLICIES == ("spare", "shrink")
    for policy in RECOVERY_POLICIES:
        armed = set(names(monitors_for(spec(None, policy)))) - unguarded
        assert bool(armed) == (policy in SURVIVOR_POLICIES), policy


@pytest.mark.parametrize("function", [all_monitors, monitors_for])
def test_enumeration_names_no_class_and_compares_no_literal(function):
    tree = ast.parse(inspect.getsource(function))
    shipped = {cls.__name__ for cls in monitors.REGISTRY}
    referenced = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)} \
        | {node.attr for node in ast.walk(tree)
           if isinstance(node, ast.Attribute)}
    assert not referenced & shipped
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            assert not any(isinstance(operand, ast.Constant)
                           and isinstance(operand.value, str)
                           for operand in operands), ast.unparse(node)
    body = tree.body[0].body
    code = body[1:] if isinstance(body[0].value, ast.Constant) else body
    assert code[-1].end_lineno - code[0].lineno + 1 <= 6


def test_each_class_is_enumerated_exactly_once():
    """``REGISTRY`` is the one list: neither package ``__init__`` repeats a
    class name in an import block, an ``__all__`` or a selection table."""
    enumerators = inspect.getsource(verify) + inspect.getsource(monitors)
    assert len(set(monitors.REGISTRY)) == 12
    for cls in monitors.REGISTRY:
        assert enumerators.count(cls.__name__) == 1, cls.__name__


def test_a_monitor_outside_the_package_joins_by_declaring_its_guard(
        monkeypatch):
    class CollectiveCutToy(Monitor):
        name = "toy-collective-cut"
        protocols = ("dcl",)

        @on("ft.wave_started")
        def on_ft_wave_started(self, time, wave, protocol) -> None:
            if wave < 1:
                self.violation(time, "waves count from 1")

    monkeypatch.setattr(monitors, "REGISTRY",
                        (*monitors.REGISTRY, CollectiveCutToy))
    assert names(monitors_for(spec("dcl")))[-1] == "toy-collective-cut"
    assert "toy-collective-cut" not in names(monitors_for(spec("pcl")))
    assert names(all_monitors())[-1] == "toy-collective-cut"
    # ... and rides a real run: execute() selects through the same registry
    verdict = run("dcl", kill=False).meta["monitors"]["verdicts"]
    assert list(verdict)[-1] == "toy-collective-cut"
    assert verdict["toy-collective-cut"]["ok"]
    assert verdict["toy-collective-cut"]["checked"] > 0


def test_no_committed_result_names_a_monitor_the_code_lacks():
    """Every verdict a ``results/*.json`` document records is keyed by the
    ``name`` of a registered monitor: a document written before a monitor
    was deleted (or renamed) shows here until it is regenerated."""
    names = {cls.name for cls in verify.REGISTRY}
    results = pathlib.Path(__file__).resolve().parents[2] / "results"
    documents = sorted(results.glob("*.json"))
    assert documents
    stale = sorted({(path.name, monitor) for path in documents
                    for run in json.loads(path.read_text()).get(
                        "monitors", {}).values()
                    for monitor in run["verdicts"] if monitor not in names})
    assert stale == []
