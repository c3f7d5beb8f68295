"""Seeded property tests over log-uniform metric triples."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homsphere.core import GroupKind, MetricTriple
from homsphere.rigidity import invariants, recover_triple

exponents = st.floats(min_value=-3.0, max_value=3.0)


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
    rec = recover_triple(invariants(t, group), group)
    err = max(abs(p - q) / q for p, q in zip(rec.as_tuple(), t.as_tuple()))
    assert err <= 1e-8
