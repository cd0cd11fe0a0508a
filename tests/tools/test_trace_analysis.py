"""``linear_fit`` against its oracle.

The harness fits its time-vs-waves lines with a closed form so that no
figure imports ``numpy``; ``numpy.polyfit`` — what it called before — is
the reference the closed form must agree with.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.tools import linear_fit

#: wave counts against completion times on a millisecond grid
points = st.lists(
    st.tuples(st.integers(0, 300), st.integers(0, 10**7).map(lambda ms: ms / 1000)),
    min_size=2, max_size=12,
).filter(lambda pts: len({x for x, _y in pts}) >= 2)


@settings(max_examples=300, deadline=None)
@given(points)
def test_linear_fit_is_numpy_polyfit(pts):
    xs = [float(x) for x, _y in pts]
    ys = [y for _x, y in pts]
    fit = linear_fit(xs, ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    x, y = np.asarray(xs), np.asarray(ys)
    total = ((y - y.mean()) ** 2).sum()
    r2 = 1.0 if total == 0.0 else 1.0 - ((y - (slope * x + intercept)) ** 2).sum() / total

    scale = 1e-12 * (max(ys) or 1.0)  # 1e-12 relative to the data
    assert abs(fit.slope - slope) <= scale
    assert abs(fit.intercept - intercept) <= scale * (1.0 + max(xs))
    assert all(abs(fit.predict(v) - (slope * v + intercept)) <= scale for v in xs)
    if len(set(ys)) > 1:  # r2 of a flat line is rounding noise over rounding noise
        assert abs(fit.r2 - r2) <= 1e-9
