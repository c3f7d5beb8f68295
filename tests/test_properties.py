"""Seeded property tests over log-uniform metric triples."""

import math
import random
import sys

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homsphere.core import GroupKind, MetricTriple
from homsphere.eigensolve import TOL
from homsphere.rigidity import invariants, recover_triple
from homsphere.spectrum import spectrum_up_to

exponents = st.floats(min_value=-150.0, max_value=150.0)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(
    x=exponents,
    y=exponents,
    z=exponents,
    shape=st.sampled_from(["generic", "b=c", "a=b", "round"]),
    group=st.sampled_from(list(GroupKind)),
)
def test_recover_round_trip_property(x, y, z, shape, group):
    a, b, c = sorted((10.0**x, 10.0**y, 10.0**z), reverse=True)
    if shape == "b=c":
        c = b
    elif shape == "a=b":
        b = a
    elif shape == "round":
        b = c = a
    # unequal neighbours closer than this fix the invariants too loosely
    assume(all(p == q or p / q - 1.0 >= 1e-3 for p, q in ((a, b), (b, c))))
    t = MetricTriple(a, b, c)
    # finite invariants need abc below about 1e308 and ab/c below about
    # 1e154; a subnormal abc is rejected as out of range, and an abc of 0
    # by invariants itself
    assume(sys.float_info.min <= t.a * t.b * t.c < math.inf)
    inv = invariants(t, group)
    assume(math.isfinite(inv.scal))
    rec = recover_triple(inv, group)
    err = max(abs(p - q) / q for p, q in zip(rec.as_tuple(), t.as_tuple()))
    assert err <= 1e-8


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    # a seed for log-uniform draws: float strategies favour the ends of
    # their range, and so do the values of st.randoms()
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    top=st.integers(min_value=0, max_value=12),
    group=st.sampled_from(list(GroupKind)),
)
def test_rows_beyond_the_float_range_leave_the_d0_run(seed, top, group):
    # a/b in [1e140, 1e170] and b/c in [1, 1e3]; with b <= 1e-17, a^2 <= 1e306
    # stays finite at the caller's scale.  At the unit scale (b in [1, 2))
    # a^2 reaches 1e280-1e340, far past spectrum._DECOUPLED = 2^128, which
    # caps it, so no row is +inf: every row with d = k-2l != 0 lies far
    # above the bound, and the table is the d = 0 run 2p(p+1)(b^2 + c^2),
    # weight 2p+1
    rng = random.Random(seed)
    b = 10.0 ** rng.uniform(-30.0, -17.0)
    t = MetricTriple(b * 10.0 ** rng.uniform(140.0, 170.0), b, b / 10.0 ** rng.uniform(0.0, 3.0))
    bc2 = t.b * t.b + t.c * t.c
    table = spectrum_up_to(2 * (top + 1) ** 2 * bc2, t, group)
    assert [m for _, m in table.entries] == [2 * p + 1 for p in range(top + 1)]
    for p, (value, _) in enumerate(table.entries):
        closed = 2 * p * (p + 1) * bc2
        assert abs(value - closed) <= 0.5 * TOL * closed
