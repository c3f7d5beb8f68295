"""The contract of the package's frozen result records.

Every record compares by its type and fields, and hashes by them when they
are hashable, never equals the plain tuple of its fields, prints as
``Name(field=value, ...)``, rejects assignment and deletion, and survives
``pickle`` and ``copy.deepcopy``.
"""

import copy
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from homsphere.acceptance import CriterionResult
from homsphere.core import (
    GroupKind,
    MetricTriple,
    SpectralInvariants,
    SpectrumTable,
    _Record,
)
from homsphere.geometry import BergerExtremaReport, DiamBounds, ProductEstimate, ProductSpec
from homsphere.oracle import GershgorinIntervals
from homsphere.rigidity import IsospectralResult, IsospectralVerdict
from homsphere.spectrum import Lambda1Result, Regime

_ROUND = "MetricTriple(a=1.0, b=1.0, c=1.0)"

# name -> (the record's class, its fields in order, its exact repr)
CASES = {
    "MetricTriple": (
        MetricTriple,
        dict(a=3.0, b=2.0, c=1.0),
        "MetricTriple(a=3.0, b=2.0, c=1.0)",
    ),
    "SpectrumTable": (
        SpectrumTable,
        dict(
            values=(0.0, 8.0),
            multiplicities=(1, 3),
            truncation_bound=10.0,
            group=GroupKind.SU2,
            triple=MetricTriple(1.0, 1.0, 1.0),
            k_sources=((0,), (1, 2)),
        ),
        "SpectrumTable(values=(0.0, 8.0), multiplicities=(1, 3), truncation_bound=10.0,"
        f" group=<GroupKind.SU2: 'su2'>, triple={_ROUND}, k_sources=((0,), (1, 2)))",
    ),
    "SpectralInvariants": (
        SpectralInvariants,
        dict(vol_param=2.0, scal=7.5, lambda1=8.0, mult1=3),
        "SpectralInvariants(vol_param=2.0, scal=7.5, lambda1=8.0, mult1=3)",
    ),
    "DiamBounds": (
        DiamBounds,
        dict(lower=1.0, upper=2.0, exact=None),
        "DiamBounds(lower=1.0, upper=2.0, exact=None)",
    ),
    "ProductSpec": (
        ProductSpec,
        dict(su2_factors=(MetricTriple(1.0, 1.0, 1.0),), so3_factors=()),
        f"ProductSpec(su2_factors=({_ROUND},), so3_factors=())",
    ),
    "ProductEstimate": (
        ProductEstimate,
        dict(
            lambda1=8.0,
            diam2_lower=1.5,
            diam2_upper=2.5,
            product_lower=12.0,
            product_upper=20.0,
            cap=78.5,
        ),
        "ProductEstimate(lambda1=8.0, diam2_lower=1.5, diam2_upper=2.5,"
        " product_lower=12.0, product_upper=20.0, cap=78.5)",
    ),
    "BergerExtremaReport": (
        BergerExtremaReport,
        dict(
            min_value=18.0,
            min_triple=MetricTriple(1.5, 1.0, 1.0),
            max_value=29.5,
            max_triple=MetricTriple(1.0, 1.0, 1.0),
        ),
        "BergerExtremaReport(min_value=18.0, min_triple=MetricTriple(a=1.5, b=1.0, c=1.0),"
        f" max_value=29.5, max_triple={_ROUND})",
    ),
    "IsospectralResult": (
        IsospectralResult,
        dict(verdict=IsospectralVerdict.DISTINCT_SPECTRA, mu_index=2, values=(8.0, None)),
        "IsospectralResult(verdict=<IsospectralVerdict.DISTINCT_SPECTRA:"
        " 'distinct_spectra'>, mu_index=2, values=(8.0, None))",
    ),
    "Lambda1Result": (
        Lambda1Result,
        dict(value=8.0, multiplicity=3, regime=Regime.FOUR_BC),
        "Lambda1Result(value=8.0, multiplicity=3, regime=<Regime.FOUR_BC: 'FourBC'>)",
    ),
    "CriterionResult": (
        CriterionResult,
        dict(cid=2, title="a title", passed=False, detail="mismatch at k=0"),
        "CriterionResult(cid=2, title='a title', passed=False, detail='mismatch at k=0')",
    ),
    # its interval columns are lists, so it compares by its fields but has no hash
    "GershgorinIntervals": (
        GershgorinIntervals,
        dict(lower=[1.0, 2.0], upper=[3.0, 4.5], floor=0.5, odd_floor=None),
        "GershgorinIntervals(lower=[1.0, 2.0], upper=[3.0, 4.5], floor=0.5, odd_floor=None)",
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    """(build the record by keyword, its fields, its exact repr)"""
    cls, fields, text = CASES[request.param]
    return lambda: cls(**fields), fields, text


def _hashable(fields: dict) -> bool:
    return not any(isinstance(value, list) for value in fields.values())


def _package_subclasses(cls: type) -> set[type]:
    subs = {sub for sub in cls.__subclasses__() if sub.__module__.startswith("homsphere.")}
    return subs.union(*map(_package_subclasses, subs))


def test_the_cases_cover_every_record():
    # every record class of the package is a _Record, the checks' included;
    # EigenPair stays a namedtuple, since its contract is tuple equality
    assert {cls for cls, _, _ in CASES.values()} == _package_subclasses(_Record)


def test_fields_read_back(case):
    build, fields, _ = case
    record = build()
    assert {name: getattr(record, name) for name in fields} == fields


def test_assignment_and_deletion_raise(case):
    build, fields, _ = case
    record = build()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 0
    assert {name: getattr(record, name) for name in fields} == fields


def test_equal_fields_give_equal_records_and_hashes(case):
    build, fields, _ = case
    one, two = build(), build()
    assert one is not two
    assert one == two and not one != two
    if _hashable(fields):
        assert hash(one) == hash(two)
        assert len({one, two}) == 1
    else:
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            hash(one)


def test_a_record_never_equals_the_tuple_of_its_fields(case):
    build, fields, _ = case
    record = build()
    values = tuple(fields.values())
    assert record != values and values != record
    assert record != list(values)


def test_a_different_field_gives_a_different_record():
    assert MetricTriple(3.0, 2.0, 1.0) != MetricTriple(3.0, 2.0, 0.5)
    assert DiamBounds(1.0, 2.0) != DiamBounds(1.0, 2.5)
    assert IsospectralResult(IsospectralVerdict.ISOMETRIC) != IsospectralResult(
        IsospectralVerdict.UNDECIDED
    )


def test_repr_is_exact(case):
    build, _, text = case
    assert repr(build()) == text


@pytest.mark.parametrize(
    "roundtrip",
    [copy.deepcopy, copy.copy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["deepcopy", "copy", "pickle"],
)
def test_pickle_and_copies_round_trip(case, roundtrip):
    build, fields, text = case
    record = build()
    back = roundtrip(record)
    assert type(back) is type(record)
    assert back == record
    assert not _hashable(fields) or hash(back) == hash(record)
    assert repr(back) == text
    with pytest.raises(AttributeError):
        setattr(back, next(iter(fields)), 0)


def test_defaults():
    assert DiamBounds(lower=1.0, upper=1.0).exact is None
    assert DiamBounds(1.0, 1.0, 1.0).exact == 1.0
    spec = ProductSpec()
    assert spec.su2_factors == () and spec.so3_factors == ()
    assert ProductSpec(so3_factors=(MetricTriple(2.0, 1.0, 1.0),)).su2_factors == ()
    result = IsospectralResult(IsospectralVerdict.ISOMETRIC)
    assert result.mu_index is None and result.values is None
    assert IsospectralResult(IsospectralVerdict.UNDECIDED, mu_index=3).values is None


@pytest.mark.parametrize(
    "lower, upper", [(2.0, 1.0), (math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)]
)
def test_diam_bounds_need_lower_at_most_upper(lower, upper):
    # NaN fails every comparison, so the check tests lower <= upper
    with pytest.raises(ValueError, match="lower bound exceeds upper bound"):
        DiamBounds(lower, upper)


def test_positional_and_keyword_construction_agree():
    assert MetricTriple(1.0, 3.0, 2.0) == MetricTriple(c=2.0, a=1.0, b=3.0)
    assert DiamBounds(1.0, 2.0) == DiamBounds(upper=2.0, lower=1.0)
    assert Lambda1Result(8.0, 3, Regime.SO3) == Lambda1Result(
        regime=Regime.SO3, value=8.0, multiplicity=3
    )
    distinct = IsospectralVerdict.DISTINCT_SPECTRA
    assert IsospectralResult(distinct, 1, (1.0, 2.0)) == IsospectralResult(
        values=(1.0, 2.0), mu_index=1, verdict=distinct
    )
    with pytest.raises(TypeError):
        MetricTriple(1.0, 2.0)
    with pytest.raises(TypeError):
        DiamBounds(1.0, 2.0, 2.0, 2.0)


def test_the_cli_imports_no_dataclasses():
    # every command starts a fresh interpreter: the records are plain slotted
    # classes and EigenPair a collections.namedtuple, so that the import pays
    # for neither dataclasses, inspect nor typing; verify imports the
    # acceptance suite and its oracle on top of the CLI
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "for name in ('homsphere.cli', 'homsphere.acceptance'):\n"
        "    __import__(name)\n"
        "    print(name, sorted({'dataclasses', 'inspect', 'ast', 'typing'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines() == ["homsphere.cli []", "homsphere.acceptance []"]
