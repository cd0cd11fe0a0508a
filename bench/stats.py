"""Summaries of repeated measurements and the two-sided decision rule.

The rule is the one in the choosing-metrics guide (section 8) and the
simplicity-review guide: a gain needs nine tenths of the pairs *and* a
median shift larger than the parent's own quartile distance; "no worse"
needs the median inside the metric's bound *and* a spread narrow enough to
read that bound through.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

__all__ = ["summarise", "spread", "worsening", "judge"]


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3] as ``statistics.quantiles(n=4)`` gives them; a
    single value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """Median with min, max, quartiles and n.  No percentile is claimed:
    with the handful of repetitions a run makes, none has ten samples
    beyond it.

    The median is the *low* median (the middle sample, or the lower of the
    two middle ones).  Noise on a shared host only ever adds time, so when a
    time-capped run affords two repetitions, their mean would be the noisier
    of the two readings; for odd n the two medians are the same number.
    """
    q1, _, q3 = quartiles(values)
    return {"median": statistics.median_low(values), "min": min(values),
            "max": max(values), "q1": q1, "q3": q3, "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median, as the pipeline takes it."""
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of
    ``parent``; negative when it is better."""
    delta = change - parent if better == "lower" else parent - change
    return delta / abs(parent) if parent else (0.0 if delta == 0 else float("inf"))


def judge(parent: Sequence[float], change: Sequence[float], better: str,
          bound: float) -> Dict[str, object]:
    """Compare two sample lists of one metric on one workload.

    Samples are paired in order (run the two sides alternately).  Verdicts:

    * ``improved``   — the change wins at least 9/10 of the pairs (ties count
      for neither side) and the medians differ, the right way, by more than
      the parent's quartile distance;
    * ``regressed``  — the change's median is worse than the parent's by more
      than ``bound``;
    * ``unresolved`` — the median is inside the bound, but either side's
      spread is wider than the bound, so "unchanged" cannot be read — unless
      every run of the change is better than every run of the parent;
    * ``no worse``   — otherwise.
    """
    p, c = summarise(parent), summarise(change)
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (a - b) > 0 for a, b in pairs)
    losses = sum(sign * (a - b) < 0 for a, b in pairs)
    win_fraction = wins / len(pairs) if pairs else 0.0
    worse_by = worsening(p["median"], c["median"], better)
    parent_iqr = p["q3"] - p["q1"]
    gain = sign * (p["median"] - c["median"])
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)

    if win_fraction >= 0.9 and gain > parent_iqr:
        verdict = "improved"
    elif worse_by > bound:
        verdict = "regressed"
    elif max(spread(parent), spread(change)) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "no worse"
    return {"verdict": verdict, "parent": p, "change": c,
            "wins": wins, "losses": losses, "pairs": len(pairs),
            "win_fraction": win_fraction, "worse_by": worse_by}
