"""Acceptance gate: every criterion runs at its pinned tolerance.

Each test prints the one-line PASS/FAIL summary for its criterion (visible
with ``pytest -s`` or on failure) and asserts the criterion holds.  The
same checks back the ``homsphere verify`` CLI subcommand.
"""

import dataclasses

import pytest

from homsphere import acceptance, eigensolve, oracle
from homsphere.acceptance import (
    ALL_CRITERIA,
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
)
from homsphere.casimir import _wang_halves
from homsphere.core import SpectrumTable
from homsphere.spectrum import ClusterMergeWarning

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


def test_criterion_4_checks_the_halves_the_solver_solves(monkeypatch):
    # one coupling of one Wang half off by 1e-6 relative, as eigen_block sees it
    def skewed(k, a2, bc2, off):
        halves = _wang_halves(k, a2, bc2, off)
        for i, (diag, offdiag) in enumerate(halves):
            if offdiag:
                halves[i] = (diag, [offdiag[0] * (1 + 1e-6), *offdiag[1:]])
                break
        return halves

    monkeypatch.setattr(eigensolve, "_wang_halves", skewed)
    result = criterion_4()
    assert not result.passed, result.line()


def test_criterion_4_sees_one_solved_value_off_by_1e_11(monkeypatch):
    # the largest value of one k = 12 block moved by 1e-11 relative, far
    # past its window of about 1e-12
    def moved(k, a2, bc2, off):
        values = eigensolve.eigen_block(k, a2, bc2, off)
        return (*values[:-1], values[-1] * (1 + 1e-11)) if k == 12 else values

    monkeypatch.setattr(acceptance, "eigen_block", moved)
    result = criterion_4()
    assert not result.passed, result.line()


def test_criterion_3_sees_the_floor_raised_by_1_percent(monkeypatch):
    # at k = 2 the floor 4(b^2 + c^2) is an eigenvalue, which a raised
    # floor puts below it
    def raised(k, t):
        g = oracle.gershgorin(k, t)
        return dataclasses.replace(g, floor=g.floor * 1.01)

    monkeypatch.setattr(acceptance, "gershgorin", raised)
    result = criterion_3()
    assert not result.passed, result.line()


def test_criteria_2_and_5_see_the_closed_diagonal_off_by_4e_16(monkeypatch):
    # entries of odd l scaled by 1 + 4e-16, at least one rounding step
    # for every nonzero entry
    diagonal = oracle._diagonal

    def skewed(k, a2, bc2, ls):
        return [v * (1 + 4e-16) if l % 2 else v for l, v in zip(ls, diagonal(k, a2, bc2, ls))]

    for module in (oracle, acceptance):
        monkeypatch.setattr(module, "_diagonal", skewed)
    for criterion in (criterion_2, criterion_5):
        result = criterion()
        assert not result.passed, result.line()


def test_criterion_2_names_itself_alike_on_pass_and_fail(monkeypatch):
    def skewed(k, t):
        return [[x + 1.0 for x in row] for row in acceptance.casimir_matrix(k, t)]

    passed = criterion_2()
    monkeypatch.setattr(acceptance, "casimir_matrix_oracle", skewed)
    failed = criterion_2()
    assert passed.passed and not failed.passed, failed.line()
    assert failed.title == passed.title
    assert failed.detail == "mismatch at k=0, triple=(1, 1, 1)"


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
