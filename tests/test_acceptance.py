"""Acceptance gate: every criterion runs at its pinned tolerance.

Each test prints the one-line PASS/FAIL summary for its criterion (visible
with ``pytest -s`` or on failure) and asserts the criterion holds.  The
same checks back the ``homsphere verify`` CLI subcommand.  ``MUTANTS``
shows that they can fail: each row puts one library fault in place and
names the criteria that must then fail.
"""

import functools

import pytest

from homsphere import acceptance, eigensolve, oracle
from homsphere.acceptance import ALL_CRITERIA, criterion_1
from homsphere.casimir import _wang_halves
from homsphere.core import SpectrumTable
from homsphere.geometry import scalar_curvature
from homsphere.spectrum import ClusterMergeWarning, lambda1_closed

# criterion 9's rigidity samples make the near-degenerate cluster merges of
# ROADMAP item 2, eleven warnings; no other criterion merges
KNOWN_MERGES = {"criterion_9": 11}


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    merges = KNOWN_MERGES.get(criterion.__name__, 0)
    if merges:
        with pytest.warns(ClusterMergeWarning) as record:
            result = criterion()
        assert [w.category for w in record] == [ClusterMergeWarning] * merges
    else:
        result = criterion()
    print(result.line())
    assert result.passed, result.line()


def _skew_a_coupling(monkeypatch):
    # one coupling of one Wang half off by 1e-6 relative, as eigen_block sees it
    def skewed(k, a2, bc2, off):
        halves = _wang_halves(k, a2, bc2, off)
        for i, (diag, offdiag) in enumerate(halves):
            if offdiag:
                halves[i] = (diag, [offdiag[0] * (1 + 1e-6), *offdiag[1:]])
                break
        return halves

    monkeypatch.setattr(eigensolve, "_wang_halves", skewed)


def _move_a_solved_value(monkeypatch):
    # the largest value of one k = 12 block moved by 1e-11 relative, far
    # past its window of about 1e-12
    def moved(k, a2, bc2, off):
        values = eigensolve.eigen_block(k, a2, bc2, off)
        return (*values[:-1], values[-1] * (1 + 1e-11)) if k == 12 else values

    monkeypatch.setattr(acceptance, "eigen_block", moved)


def _raise_the_floor(monkeypatch):
    # at k = 2 the floor 4(b^2 + c^2) is an eigenvalue, which a raised
    # floor puts below it
    def raised(k, t):
        g = oracle.gershgorin(k, t)
        return oracle.GershgorinIntervals(g.lower, g.upper, g.floor * 1.01, g.odd_floor)

    monkeypatch.setattr(acceptance, "gershgorin", raised)


def _skew_the_closed_diagonal(monkeypatch):
    # entries of odd l scaled by 1 + 4e-16, at least one rounding step
    # for every nonzero entry
    diagonal = oracle._diagonal

    def skewed(k, a2, bc2, ls):
        return [v * (1 + 4e-16) if l % 2 else v for l, v in zip(ls, diagonal(k, a2, bc2, ls))]

    for module in (oracle, acceptance):
        monkeypatch.setattr(module, "_diagonal", skewed)


def _shift_the_generator_oracle(monkeypatch):
    def shifted(k, t):
        return [[x + 1.0 for x in row] for row in acceptance.casimir_matrix(k, t)]

    monkeypatch.setattr(acceptance, "casimir_matrix_oracle", shifted)


def _shrink_the_scal_term(monkeypatch):
    # lambda1 - 0.49 Scal: the round metrics' gap is no longer 0
    def gap(t, g):
        return lambda1_closed(t, g).value - 0.49 * scalar_curvature(t)

    monkeypatch.setattr(acceptance, "yamabe_gap", gap)


# fault -> (its patch, {criterion that must fail: its exact detail, or None})
MUTANTS = {
    "a Wang-half coupling off by 1e-6": (_skew_a_coupling, {"criterion_4": None}),
    "a solved value off by 1e-11": (_move_a_solved_value, {"criterion_4": None}),
    "the Gershgorin floor raised by 1%": (_raise_the_floor, {"criterion_3": None}),
    "the closed diagonal off by 4e-16": (
        _skew_the_closed_diagonal, {"criterion_2": None, "criterion_5": None}
    ),
    "the generator oracle off by 1": (
        _shift_the_generator_oracle, {"criterion_2": "mismatch at k=0, triple=(1, 1, 1)"}
    ),
    "yamabe_gap with 0.49 Scal": (
        _shrink_the_scal_term, {"criterion_10": "20 violations over 2020 checks"}
    ),
}


@functools.cache
def _unpatched(name):
    return getattr(acceptance, name)()


@pytest.mark.parametrize("fault", MUTANTS)
def test_a_library_fault_fails_its_criteria(fault, monkeypatch):
    patch, must_fail = MUTANTS[fault]
    passed = {name: _unpatched(name) for name in must_fail}
    patch(monkeypatch)
    for name, detail in must_fail.items():
        failed = getattr(acceptance, name)()
        assert passed[name].passed and not failed.passed, failed.line()
        # a criterion names itself alike on pass and fail
        assert (failed.cid, failed.title) == (passed[name].cid, passed[name].title)
        assert detail is None or failed.detail == detail


def test_a_criterion_that_raises_is_reported_as_a_failure(monkeypatch):
    # the last solver block dropped can leave a table of (0, 1) alone, where
    # criterion 1's read of the first positive eigenvalue raises IndexError
    def dropped(lam, t, g):
        return SpectrumTable((0.0,), (1,), lam, g, t, ((0,),))

    monkeypatch.setattr(acceptance, "spectrum_up_to", dropped)
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (criterion_1,))
    [result] = acceptance.run_all()
    assert result == acceptance.CriterionResult(
        1, "criterion_1", False, "raised IndexError: tuple index out of range"
    )
