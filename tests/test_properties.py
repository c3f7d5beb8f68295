"""Seeded property tests over log-uniform metric triples."""

import math
import sys

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homsphere.core import GroupKind, MetricTriple
from homsphere.rigidity import invariants, recover_triple

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
    inv = invariants(t, group)
    # finite invariants need abc below about 1e308 and ab/c below about
    # 1e154; a subnormal abc is rejected as out of range
    assume(math.isfinite(inv.scal) and sys.float_info.min <= inv.vol_param < math.inf)
    rec = recover_triple(inv, group)
    err = max(abs(p - q) / q for p, q in zip(rec.as_tuple(), t.as_tuple()))
    assert err <= 1e-8
