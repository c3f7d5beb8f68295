import copy
import itertools
import math
import pickle

import pytest

from homsphere.core import (
    EigenPair,
    GroupKind,
    MetricClass,
    MetricTriple,
    NonPositiveParameter,
    SpectrumTable,
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
    # entries built unchecked, as spectrum._cluster builds them
    unchecked = tuple.__new__(EigenPair, (1.0, 0))
    assert unchecked == (1.0, 0) and unchecked.multiplicity == 0
    with pytest.raises(ValueError, match="multiplicities must be >= 1"):
        SpectrumTable(
            entries=(EigenPair(0.0, 1), unchecked),
            truncation_bound=5.0,
            group=GroupKind.SU2,
            triple=MetricTriple(1, 1, 1),
            k_sources=((0,), (1,)),
        )
