"""The reference races' pop accounting (``tests/races.py``): on each rig's
witness programs, every pop a side's rules drop is counted by the one rule
that drops it, and the raw stream minus the compared one is their sum."""

from collections import Counter

import pytest

from tests.mpi import (test_chv_reference, test_rx_reference,
                       test_send_reference)
from tests.net import test_pump_reference
from tests.races import normalise

pytestmark = pytest.mark.unmonitored


@pytest.mark.parametrize("rig", [
    test_pump_reference, test_rx_reference, test_chv_reference,
    test_send_reference,
], ids=lambda module: module.RULES.name)
def test_every_dropped_pop_is_in_its_rules_count(rig):
    drops = [rule for rule in rig.RULES if rule.to is None]
    total = 0
    for left, right, program in rig.witness_races():
        for side in (left, right):
            raw = side.run(program).recorder.pops
            compared, counts = normalise(raw, rig.RULES)
            dropped = Counter()
            for _, priority, kind, label in raw:
                matched = [rule.name for rule in drops
                           if rule.matches(priority, kind, label)]
                assert len(matched) <= 1  # no pop is two rules' to drop
                dropped.update(matched)
            assert dropped == +Counter({rule.name: counts[rule.name]
                                        for rule in drops})
            assert len(raw) - len(compared) == sum(dropped.values())
            total += len(raw) - len(compared)
    assert total > 0
