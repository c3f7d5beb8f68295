import copy
import itertools
import math
import pickle
import random
import re

import pytest

from homsphere import spectrum_up_to
from homsphere.core import (
    EigenPair,
    GroupKind,
    MetricClass,
    MetricTriple,
    NonPositiveParameter,
    SpectrumTable,
    _spectrum_table,
    classify,
    normalize_triple,
)


def test_normalize_sorts_descending():
    assert normalize_triple(1, 2, 1).as_tuple() == (2.0, 1.0, 1.0)
    assert normalize_triple(1, 1, 1).as_tuple() == (1.0, 1.0, 1.0)
    assert normalize_triple(0.5, 3.0, 1.25).as_tuple() == (3.0, 1.25, 0.5)


@pytest.mark.parametrize("bad", [(0, 1, 1), (-1, 2, 2), (1, math.nan, 1), (1, math.inf, 1)])
def test_normalize_rejects_nonpositive_and_nonfinite(bad):
    with pytest.raises(NonPositiveParameter):
        normalize_triple(*bad)


def _accepts_by_the_per_value_loop(vals):
    # the rule MetricTriple checked value by value before one chained comparison
    return all(math.isfinite(v) and v > 0.0 for v in vals)


_EDGE_PARAMETERS = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324,
                    1.7976931348623157e308, 1.0]


def test_the_chained_check_accepts_exactly_what_the_per_value_loop_did():
    for vals in itertools.product(_EDGE_PARAMETERS, repeat=3):
        if _accepts_by_the_per_value_loop(vals):
            t = MetricTriple(*vals)
            assert t.as_tuple() == tuple(sorted(vals, reverse=True)), vals
        else:
            message = f"metric parameters must be finite and positive, got {vals}"
            with pytest.raises(NonPositiveParameter, match=re.escape(message)):
                MetricTriple(*vals)


def test_normalize_is_idempotent():
    t = normalize_triple(0.3, 7.1, 2.2)
    again = normalize_triple(*t.as_tuple())
    assert again == t


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((1, 1, 1), MetricClass.ROUND),
        ((2, 1, 1), MetricClass.BERGER_BC),
        ((2, 2, 1), MetricClass.BERGER_AB),
        ((3, 2, 1), MetricClass.GENERIC),
    ],
)
def test_classify(triple, expected):
    assert classify(normalize_triple(*triple)) is expected


def test_classify_is_permutation_invariant():
    for vals in [(2.0, 1.0, 1.0), (3.0, 2.0, 1.0), (1.5, 1.5, 1.5)]:
        results = {classify(normalize_triple(*p)) for p in itertools.permutations(vals)}
        assert len(results) == 1


def test_scaled_triple():
    t = MetricTriple(3.0, 2.0, 1.0)
    assert t.scaled(2.0).as_tuple() == (6.0, 4.0, 2.0)


def test_eigenpair_validation():
    with pytest.raises(ValueError):
        EigenPair(-1.0, 1)
    with pytest.raises(ValueError):
        EigenPair(1.0, 0)
    # NaN fails every comparison, so each check tests the valid condition
    with pytest.raises(ValueError, match="nonnegative"):
        EigenPair(math.nan, 1)
    with pytest.raises(ValueError, match="multiplicity"):
        EigenPair(1.0, math.nan)
    # a multiplicity is an int: a float, even a whole or infinite one, and
    # a bool are not
    for bad in (1.5, math.inf, 2.0, True):
        with pytest.raises(ValueError, match="multiplicity must be an int"):
            EigenPair(1.0, bad)


@pytest.mark.parametrize(
    "roundtrip",
    [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_eigenpair_round_trips_keep_type_and_fields(roundtrip):
    pair = EigenPair(1.5, 2)
    back = roundtrip(pair)
    assert type(back) is EigenPair
    assert (back.value, back.multiplicity) == (1.5, 2)
    assert back == pair == (1.5, 2)


def test_eigenpair_is_a_named_pair():
    pair = EigenPair(1.0, 2)
    assert pair.value == 1.0 and pair.multiplicity == 2
    assert hash(pair) == hash((1.0, 2))
    assert EigenPair._fields == ("value", "multiplicity")
    assert pair._asdict() == {"value": 1.0, "multiplicity": 2}
    moved = pair._replace(multiplicity=3)
    assert type(moved) is EigenPair and moved == (1.0, 3)
    assert pair == (1.0, 2)
    value, multiplicity = pair
    assert (value, multiplicity) == (1.0, 2)
    with pytest.raises(AttributeError):
        pair.value = 2.0


def test_spectrum_table_invariants():
    t = MetricTriple(1, 1, 1)
    good = SpectrumTable(
        entries=(EigenPair(0.0, 1), EigenPair(3.0, 4)),
        truncation_bound=5.0,
        group=GroupKind.SU2,
        triple=t,
        k_sources=((0,), (1,)),
    )
    assert good.counting_function(5.0) == 5
    assert good.counting_function(1.0) == 1
    assert good.counting_function(-math.inf) == 0
    # above the bound the table cannot see every eigenvalue, and NaN is no bound
    for lam in (math.nextafter(5.0, math.inf), 1e9, math.inf, math.nan):
        with pytest.raises(ValueError, match="at most the truncation bound"):
            good.counting_function(lam)
    with pytest.raises(ValueError, match="first spectrum entry"):
        SpectrumTable(
            entries=(EigenPair(3.0, 4),),
            truncation_bound=5.0,
            group=GroupKind.SU2,
            triple=t,
            k_sources=((1,),),
        )
    with pytest.raises(ValueError, match="exceeds the truncation bound"):
        SpectrumTable(
            entries=(EigenPair(0.0, 1), EigenPair(9.0, 4)),
            truncation_bound=5.0,
            group=GroupKind.SU2,
            triple=t,
            k_sources=((0,), (1,)),
        )
    with pytest.raises(ValueError, match="exceeds the truncation bound"):
        SpectrumTable(((0.0, 1),), math.nan, GroupKind.SU2, t, ((0,),))
    with pytest.raises(ValueError, match="one tuple per spectrum entry"):
        SpectrumTable(
            entries=(EigenPair(0.0, 1), EigenPair(3.0, 4)),
            truncation_bound=5.0,
            group=GroupKind.SU2,
            triple=t,
            k_sources=((0,),),
        )
    with pytest.raises(TypeError):  # k_sources has no default
        SpectrumTable(
            entries=(EigenPair(0.0, 1),), truncation_bound=5.0, group=GroupKind.SU2, triple=t
        )


def test_an_empty_spectrum_table_is_rejected():
    # 0 is an eigenvalue of every metric and below every bound, so a table
    # complete below its bound holds (0, 1)
    with pytest.raises(ValueError, match="first spectrum entry"):
        SpectrumTable(
            entries=(),
            truncation_bound=5.0,
            group=GroupKind.SU2,
            triple=MetricTriple(1, 1, 1),
            k_sources=(),
        )


def test_spectrum_table_rejects_a_multiplicity_below_one():
    # an entry built past EigenPair's own check, with tuple.__new__; a NaN
    # multiplicity after the first entry is rejected too, where a minimum
    # of the multiplicities would not see it, and so is a float, whose
    # counting_function would be a float (inf for an inf multiplicity)
    unchecked = tuple.__new__(EigenPair, (1.0, 0))
    assert unchecked == (1.0, 0) and unchecked.multiplicity == 0
    for entries in ((EigenPair(0.0, 1), unchecked), ((0.0, 1), (1.0, math.nan)),
                    ((0.0, 1), (1.0, math.inf)), ((0.0, 1), (1.0, 1.5)),
                    ((0.0, 1), (1.0, 4.0)), ((0.0, 1.0), (1.0, 4))):
        with pytest.raises(ValueError, match="multiplicities must be >= 1"):
            SpectrumTable(
                entries=entries,
                truncation_bound=5.0,
                group=GroupKind.SU2,
                triple=MetricTriple(1, 1, 1),
                k_sources=((0,), (1,)),
            )


def test_spectrum_table_rejects_a_bool_multiplicity():
    # a sum of bools is an int, so the check of the columns lets one pass;
    # the public constructor rejects it, as EigenPair(0.0, True) does
    for entries in (((0.0, True), (1.0, 4)), ((0.0, 1), (1.0, True))):
        with pytest.raises(ValueError, match="multiplicities must be >= 1 and ints"):
            SpectrumTable(entries, 5.0, GroupKind.SU2, MetricTriple(1, 1, 1), ((0,), (1,)))


def test_both_construction_routes_give_equal_tables():
    # spectrum_up_to's tables, built from their columns, rebuilt through
    # the public constructor: every metric class, both groups
    rng = random.Random(41)
    for i in range(80):
        a, b, c = (10.0 ** rng.uniform(-1, 1) for _ in range(3))
        t = normalize_triple(*((a, b, c), (a, a, c), (a, b, b), (a, a, a))[i % 4])
        g = tuple(GroupKind)[i // 4 % 2]
        table = spectrum_up_to(rng.uniform(1.1, 6.0) * 4.0 * (t.b**2 + t.c**2), t, g)
        again = SpectrumTable(
            table.entries, table.truncation_bound, table.group, table.triple, table.k_sources
        )
        assert again == table and hash(again) == hash(table)
        assert all(type(e) is EigenPair for e in again.entries + table.entries)


_FIRST = "first spectrum entry must be (0, 1)"
_INCREASING = "spectrum entries must be strictly increasing"
_MULTS = "spectrum multiplicities must be >= 1 and ints"
_ABOVE = "spectrum entry exceeds the truncation bound"
_SOURCES = "k_sources must hold one tuple per spectrum entry"


@pytest.mark.parametrize(
    "values,mults,k_sources,message",
    [
        ([1.0], [1], ((0,),), _FIRST),
        ([0.0], [2], ((0,),), _FIRST),
        ([0.0, 2.0, 2.0], [1, 3, 4], ((0,), (1,), (2,)), _INCREASING),
        ([0.0, 3.0, 2.0], [1, 3, 4], ((0,), (1,), (2,)), _INCREASING),
        ([0.0, math.nan], [1, 3], ((0,), (1,)), _INCREASING),
        ([0.0, 2.0], [1, 0], ((0,), (1,)), _MULTS),
        ([0.0, 2.0], [1, math.nan], ((0,), (1,)), _MULTS),
        ([0.0, 2.0], [1, 1.5], ((0,), (1,)), _MULTS),
        ([0.0, 2.0], [1, math.inf], ((0,), (1,)), _MULTS),
        ([0.0, 2.0, 6.0], [1, 3, 4], ((0,), (1,), (2,)), _ABOVE),
        ([0.0, 2.0], [1, 3], ((0,),), _SOURCES),
    ],
)
def test_both_construction_routes_reject_an_invalid_table_alike(values, mults, k_sources, message):
    # the columns as spectrum_up_to passes them, and as entries to the constructor
    t = MetricTriple(1, 1, 1)
    with pytest.raises(ValueError) as columns:
        _spectrum_table(values, mults, 5.0, GroupKind.SU2, t, k_sources)
    with pytest.raises(ValueError) as public:
        SpectrumTable(tuple(zip(values, mults)), 5.0, GroupKind.SU2, t, k_sources)
    assert str(columns.value) == str(public.value) == message
