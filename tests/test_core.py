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
        values=(0.0, 3.0),
        multiplicities=(1, 4),
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
            values=(3.0,),
            multiplicities=(4,),
            truncation_bound=5.0,
            group=GroupKind.SU2,
            triple=t,
            k_sources=((1,),),
        )
    with pytest.raises(ValueError, match="exceeds the truncation bound"):
        SpectrumTable(
            values=(0.0, 9.0),
            multiplicities=(1, 4),
            truncation_bound=5.0,
            group=GroupKind.SU2,
            triple=t,
            k_sources=((0,), (1,)),
        )
    with pytest.raises(ValueError, match="exceeds the truncation bound"):
        SpectrumTable((0.0,), (1,), math.nan, GroupKind.SU2, t, ((0,),))
    with pytest.raises(ValueError, match="one tuple per spectrum entry"):
        SpectrumTable(
            values=(0.0, 3.0),
            multiplicities=(1, 4),
            truncation_bound=5.0,
            group=GroupKind.SU2,
            triple=t,
            k_sources=((0,),),
        )
    with pytest.raises(TypeError):  # k_sources has no default
        SpectrumTable(
            values=(0.0,), multiplicities=(1,), truncation_bound=5.0, group=GroupKind.SU2, triple=t
        )


def test_an_empty_spectrum_table_is_rejected():
    # 0 is an eigenvalue of every metric and below every bound, so a table
    # complete below its bound holds (0, 1)
    with pytest.raises(ValueError, match="first spectrum entry"):
        SpectrumTable(
            values=(),
            multiplicities=(),
            truncation_bound=5.0,
            group=GroupKind.SU2,
            triple=MetricTriple(1, 1, 1),
            k_sources=(),
        )


def test_spectrum_table_rejects_a_multiplicity_below_one():
    # a NaN multiplicity after the first entry is rejected too, where a
    # minimum of the multiplicities would not see it, and so is a float,
    # whose counting_function would be a float (inf for an inf multiplicity)
    for mults in ((1, 0), (1, math.nan), (1, math.inf), (1, 1.5), (1, 4.0), (1.0, 4)):
        with pytest.raises(ValueError, match="multiplicities must be >= 1"):
            SpectrumTable(
                values=(0.0, 1.0),
                multiplicities=mults,
                truncation_bound=5.0,
                group=GroupKind.SU2,
                triple=MetricTriple(1, 1, 1),
                k_sources=((0,), (1,)),
            )


def test_spectrum_table_rejects_a_bool_multiplicity():
    # True == 1 and a sum of bools is an int; the constructor rejects a
    # bool as EigenPair(0.0, True) does
    for mults in ((True, 4), (1, True)):
        with pytest.raises(ValueError, match="multiplicities must be >= 1 and ints"):
            SpectrumTable((0.0, 1.0), mults, 5.0, GroupKind.SU2, MetricTriple(1, 1, 1),
                          ((0,), (1,)))


def _seeded_tables(seed, n):
    """``n`` tables of ``spectrum_up_to``: every metric class, both groups."""
    rng = random.Random(seed)
    for i in range(n):
        a, b, c = (10.0 ** rng.uniform(-1, 1) for _ in range(3))
        t = normalize_triple(*((a, b, c), (a, a, c), (a, b, b), (a, a, a))[i % 4])
        g = tuple(GroupKind)[i // 4 % 2]
        yield spectrum_up_to(rng.uniform(1.1, 6.0) * 4.0 * (t.b**2 + t.c**2), t, g)


def _rebuilt(table):
    return SpectrumTable(table.values, table.multiplicities, table.truncation_bound,
                         table.group, table.triple, table.k_sources)


def test_a_table_rebuilt_from_its_columns_is_equal():
    # spectrum_up_to's tables, rebuilt through the constructor from the
    # public columns
    for table in _seeded_tables(41, 80):
        again = _rebuilt(table)
        assert again == table and hash(again) == hash(table) and repr(again) == repr(table)
        for name in SpectrumTable.__slots__:
            assert type(getattr(table, name)) is type(getattr(again, name))


def test_a_table_compares_copies_and_writes_without_its_entries(monkeypatch, capsys):
    from homsphere import cli, rigidity

    tables = []

    def recording(*args):
        tables.append(spectrum_up_to(*args))
        return tables[-1]

    def refuse(table):
        raise AssertionError("entries were built")

    monkeypatch.setattr(SpectrumTable, "entries", property(refuse))
    monkeypatch.setattr(cli, "spectrum_up_to", recording)
    monkeypatch.setattr(rigidity, "spectrum_up_to", recording)
    argv = "spectrum --a 1.8 --b 1.8 --c 1 --group su2 --lambda-max 2000 --berger-closed-form"
    for extra in ([], ["--format", "csv"]):
        assert cli.main(argv.split() + extra) == 0
    compare = "rigidity --a 3 --b 1 --c 1 --group su2 --compare 3.0001,1,1 --lambda-max 12"
    assert cli.main(compare.split()) == 0
    capsys.readouterr()
    assert len(tables) == 4 and len(tables[0].values) > 100
    for table in tables + list(_seeded_tables(44, 16)):
        table.counting_function(table.truncation_bound / 2)
        again = _rebuilt(table)
        assert again == table and not again != table and hash(again) == hash(table)
        assert repr(again) == repr(table)
        for roundtrip in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            assert roundtrip(table) == table


def test_entries_are_the_columns_as_eigenpairs():
    for table in _seeded_tables(44, 16):
        entries = table.entries
        assert all(type(e) is EigenPair for e in entries)
        assert entries == tuple(zip(table.values, table.multiplicities))
        assert table.entries == entries


def test_every_field_of_a_table_is_frozen():
    table = next(_seeded_tables(45, 1))
    fields = [getattr(table, name) for name in SpectrumTable.__slots__]
    for name in SpectrumTable.__slots__ + ("entries", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(table, name, ())
        with pytest.raises(AttributeError):
            delattr(table, name)
    assert [getattr(table, name) for name in SpectrumTable.__slots__] == fields
    with pytest.raises(AttributeError, match="not_a_field"):
        table.not_a_field


def test_a_table_keeps_no_list_of_its_caller():
    t = MetricTriple(1, 1, 1)
    values, mults, labels = [0.0, 3.0], [1, 4], [(0,), (1,)]
    table = SpectrumTable(values, mults, 5.0, GroupKind.SU2, t, labels)
    values.append(4.0)
    mults.append(5)
    labels.append((2,))
    for name in ("values", "multiplicities", "k_sources"):
        assert type(getattr(table, name)) is tuple
    assert table == SpectrumTable((0.0, 3.0), (1, 4), 5.0, GroupKind.SU2, t, ((0,), (1,)))
    assert hash(table) == hash(_rebuilt(table))
    # the label groups themselves are kept as given: a list among them
    # leaves the table unhashable
    with pytest.raises(TypeError):
        hash(SpectrumTable(values[:2], mults[:2], 5.0, GroupKind.SU2, t, [(0,), [1]]))


def test_counting_function_equals_a_sum_over_the_entries():
    for table in _seeded_tables(46, 40):
        bound = table.truncation_bound
        points = [bound]
        for value, _ in table.entries:
            points += [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]
        for lam in points:
            if lam <= bound:
                expect = sum(m for v, m in table.entries if v <= lam)
                assert table.counting_function(lam) == expect, (table.triple, lam)
        for lam in (math.nan, math.nextafter(bound, math.inf), math.inf):
            with pytest.raises(ValueError, match="at most the truncation bound"):
                table.counting_function(lam)


_FIRST = "first spectrum entry must be (0, 1)"
_INCREASING = "spectrum entries must be strictly increasing"
_MULTS = "spectrum multiplicities must be >= 1 and ints"
_ABOVE = "spectrum entry exceeds the truncation bound"
_SOURCES = "k_sources must hold one tuple per spectrum entry"
_LENGTHS = "spectrum values and multiplicities must have equal lengths"


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
        ([0.0, 2.0], [1, 3], [(0,)], _SOURCES),
        ([0.0, 2.0], [1], ((0,), (1,)), _LENGTHS),
        ([0.0], [1, 3], ((0,), (1,)), _LENGTHS),
    ],
)
def test_the_constructor_rejects_an_invalid_table(values, mults, k_sources, message):
    with pytest.raises(ValueError) as error:
        SpectrumTable(values, mults, 5.0, GroupKind.SU2, MetricTriple(1, 1, 1), k_sources)
    assert str(error.value) == message

