import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from homsphere import eigensolve
from homsphere.casimir import _squares, _wang_halves
from homsphere.core import MetricTriple
from homsphere.eigensolve import TOL, _newton, eigen_block, eigenvalues
from homsphere.oracle import casimir_matrix, kernel_rows, symmetrize, to_dense, tridiagonal_split


def _block(diag, off):
    """The (diagonal, off-diagonal) float lists of a block, the form ``eigenvalues`` takes."""
    return list(map(float, diag)), list(map(float, off))


def _random_blocks(rng, count, n, scale=5.0):
    diags = scale * rng.standard_normal((count, n))
    offs = scale * rng.standard_normal((count, n - 1))
    return diags, offs


def test_eigenvalues_diagonal_exact():
    got = eigenvalues([3.0, 3.0], [0.0])
    assert got == (3.0, 3.0)


def test_eigenvalues_match_dense_oracle():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 8, 13):
        diags, offs = _random_blocks(rng, 3, n)
        for diag, off in zip(diags, offs):
            t = _block(diag, off)
            got = np.array(eigenvalues(*t))
            want = np.linalg.eigvalsh(to_dense(*t))
            assert np.allclose(got, want, rtol=1e-11, atol=1e-11)


def test_eigenvalue_sum_preserves_trace():
    rng = np.random.default_rng(13)
    diags, offs = _random_blocks(rng, 5, 9)
    for diag, off in zip(diags, offs):
        vals = eigenvalues(*_block(diag, off))
        scale = max(1.0, np.abs(diag).sum())
        assert abs(sum(vals) - diag.sum()) <= 9 * 1e-12 * scale


def test_eigen_block_k0_and_k1():
    t = MetricTriple(3.1, 2.2, 1.3)
    sq = _squares(t.a, t.b, t.c)
    assert eigen_block(0, *sq) == (0.0,)
    s = t.a * t.a + (t.b * t.b + t.c * t.c)
    assert eigen_block(1, *sq) == (s,)  # the Wang mirror pair (s, s), given once


def test_eigen_block_generic_matches_dense_oracle():
    t = MetricTriple(2.9, 1.7, 0.8)
    sq = _squares(t.a, t.b, t.c)
    for k in range(11):
        got = np.repeat(eigen_block(k, *sq), 1 + k % 2)  # odd k: once per pair
        want = np.sort(np.linalg.eigvals(casimir_matrix(k, t)).real)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10 * max(1.0, want.max()))


def test_entries_beyond_float_range_raise_overflow():
    with pytest.raises(OverflowError):
        eigenvalues([1.0, float("inf")], [1.0])
    with pytest.raises(OverflowError):
        eigenvalues([1.0, 2.0], [1e160])  # its square overflows
    # a bounded call checks the float range before it compares the hull
    # with the bound: the first hull lies wholly above its bound
    with pytest.raises(OverflowError):
        eigenvalues([math.inf, math.inf], [1.0], 1.0)
    with pytest.raises(OverflowError):
        eigenvalues([5.0, 6.0], [math.nan], 1.0)
    with pytest.raises(OverflowError):
        eigenvalues([1.0, 2.0], [1e160], 0.5)


def _mp_eigenvalues(diag, off):
    """The sorted eigenvalues of the block (diag, off), by mpmath at the caller's precision."""
    block = mpmath.diag(diag)
    for i, v in enumerate(off):
        block[i, i + 1] = block[i + 1, i] = v
    return sorted(mpmath.eigsy(block, eigvals_only=True))


def _mp_parity_eigenvalues(k, t, p):
    """Eigenvalues of the parity-p block of irrep k, solved in mpmath from exact entries.

    The diagonal (k-2l)^2 a^2 + ((2l+1)k - 2l^2)(b^2 + c^2) and the
    coupling (c^2 - b^2) sqrt(l(l-1)(k-l+2)(k-l+1)) of l-2 and l are formed
    at the working precision from the exact squares of the float
    parameters, in the frame (a, b, c) as given, so the truth does not
    depend on the frame ``_squares`` picks for the solver, and nothing
    overflows where the float diagonal does.
    """
    a2, b2, c2 = (mpmath.mpf(x) ** 2 for x in (t.a, t.b, t.c))
    ls = range(p, k + 1, 2)
    diag = [(k - 2 * l) ** 2 * a2 + ((2 * l + 1) * k - 2 * l * l) * (b2 + c2) for l in ls]
    off = [(c2 - b2) * mpmath.sqrt(l * (l - 1) * (k - l + 2) * (k - l + 1)) for l in ls[1:]]
    return _mp_eigenvalues(diag, off)


@pytest.mark.parametrize("k, upper", [(4, 1e307), (11, math.inf), (12, math.inf), (13, math.inf)])
def test_dropping_overflowing_rows_is_exact_in_double_precision(k, upper):
    # a^2 = 1e306, b = 1, c = 0.5: the rows with |k - 2l| >= 14 are +inf in
    # floats, none for k <= 13.  With every row exact, each eigenvalue
    # below the bound is within the certificate of eigen_block's, and an
    # even block's smallest rounds to its d = 0 entry 2p(p+1)(b^2 + c^2).
    # Unbounded, k = 11-13 keep eigenvalues up to 1.69e308, whose brackets
    # have lo + hi above the float range: their midpoints lo/2 + hi/2 are finite
    t = MetricTriple(1e153, 1.0, 0.5)
    a2, bc2, off = _squares(t.a, t.b, t.c)
    got = eigen_block(k, a2, bc2, off, upper)
    with mpmath.workdps(350):  # 40 digits below a norm of about 1e308
        exact = sorted(v for p in ((0,) if k % 2 else (0, 1))
                       for v in _mp_parity_eigenvalues(k, t, p) if v <= upper)
        assert len(got) == len(exact)
        for value, want in zip(got, exact):
            assert abs(value - want) <= 0.5 * TOL * want
    if not k % 2:
        p = k // 2
        assert got[0] == float(exact[0]) == 2 * p * (p + 1) * bc2  # 15.0 for k = 4


@pytest.mark.parametrize("k, a", [(16, 1e153), (17, 1e153), (2, 1e154)], ids=["16", "17", "2"])
def test_eigen_block_raises_where_a_row_overflows(k, a):
    # at a^2 = 1e306 a prefix of a half is +inf for k = 16, and both ends
    # of the one half for k = 17; at a^2 = 1e308 the row l = 0 of k = 2 is
    # +inf, and it makes up 1x1 halves, which eigen_block reads off.  No
    # table reaches this, since spectrum_up_to reads a^2 above
    # spectrum._DECOUPLED off the closed form
    a2, bc2, off = _squares(a, 1.0, 0.5)
    with pytest.raises(OverflowError, match="leave the float range"):
        eigen_block(k, a2, bc2, off, 1e307)


# ---- the kernel contract: certified, accurate, independent of the bound ----


def _reference_eigenvalues(t):
    """Per-index bisection from the Gershgorin hull to the width test.

    Each index is bisected alone, with the kernel's width test and
    counting by ``_sturm_count``, so every value is within
    TOL/2 * max(1, |value|) of its eigenvalue.
    """
    diag, off = t
    radius = [abs(left) + abs(right) for left, right in zip((0.0, *off), (*off, 0.0))]
    lo0 = min(d - r for d, r in zip(diag, radius))
    hi0 = max(d + r for d, r in zip(diag, radius))
    out = []
    for m in range(len(diag)):
        lo, hi = lo0, hi0
        while True:
            mid = 0.5 * (lo + hi)
            if hi - lo <= TOL * max(1.0, abs(mid)):
                out.append(mid)
                break
            assert lo < mid < hi
            if _sturm_count(t, mid) > m:
                hi = mid
            else:
                lo = mid
    return sorted(out)


def _sturm_count(t, x):
    """Eigenvalues of ``t`` below ``x``: the negative pivots of T - x, from the kernel's rows."""
    d0, rows, pert = kernel_rows(*t)
    count = 0
    d = 1.0
    for di, o2 in [(d0, 0.0), *rows]:
        d = (di - x) - o2 / d
        if d == 0.0:
            d = pert
        if d < 0.0:
            count += 1
    return count


def _assert_contract(t, mp=True):
    """Counts certify every value, which is within TOL/2 of per-index
    bisection and, with ``mp``, within 1e-14 * max(1, |value|) of a
    40-digit mpmath solve."""
    got = eigenvalues(*t)
    assert len(got) == len(t[0]) and list(got) == sorted(got)
    for m, (value, ref) in enumerate(zip(got, _reference_eigenvalues(t))):
        h = 0.5 * TOL * max(1.0, abs(value))
        assert _sturm_count(t, value - h) <= m < _sturm_count(t, value + h)
        assert abs(value - ref) <= 0.5 * TOL * max(1.0, abs(ref))
    if mp:
        with mpmath.workdps(40):
            exact = _mp_eigenvalues(*t)
        for value, want in zip(got, exact):
            assert abs(value - want) <= 1e-14 * max(1.0, abs(want))


def _bits(values):
    return [float.hex(float(v)) for v in values]


def _assert_bounded_equals_unbounded(t, upper):
    full = eigenvalues(*t)
    assert _bits(eigenvalues(*t, upper)) == _bits(v for v in full if v <= upper)


def _random_block(rng, n):
    diags, offs = _random_blocks(rng, 1, n)
    return _block(diags[0], offs[0])


def test_unbounded_values_are_certified_and_accurate():
    rng = np.random.default_rng(2026)
    for n in (2, 3, 5, 8, 13, 21, 34):
        for _ in range(4):
            t = _random_block(rng, n)
            _assert_contract(t, mp=n <= 21)
            assert _bits(eigenvalues(*t, math.inf)) == _bits(eigenvalues(*t))


def test_bounded_equals_unbounded_on_random_blocks():
    rng = np.random.default_rng(11)
    for n in (2, 4, 7, 12, 20):
        for _ in range(4):
            t = _random_block(rng, n)
            full = eigenvalues(*t)
            for upper in (*rng.uniform(full[0] - 1.0, full[-1] + 1.0, 5), full[n // 2]):
                _assert_bounded_equals_unbounded(t, float(upper))


def test_bounded_with_repeated_eigenvalues():
    # zero couplings split the block into pieces with equal spectra
    blocks = [
        _block([1.0, 1.0, 2.0, 2.0, 2.0, 3.0], [0.0] * 5),
        _block([2.0, 1.0, 0.0, 2.0, 1.0], [0.5, 0.0, 0.0, 0.5]),
        _block([4.0, 1.0, 4.0, 1.0, 4.0, 1.0], [1.0, 0.0, 1.0, 0.0, 1.0]),
    ]
    for t in blocks:
        # a repeated eigenvalue is never isolated, so it gets the midpoint
        # of its bracket, within TOL/2 but not within 1e-14
        _assert_contract(t, mp=False)
        for upper in (*eigenvalues(*t), 0.5, 1.5, 2.5, 10.0):
            _assert_bounded_equals_unbounded(t, upper)
    # the simple eigenvalue 3 sits on the Gershgorin end; Newton still finds it
    assert abs(eigenvalues(*blocks[0])[-1] - 3.0) <= 1e-15


@pytest.mark.parametrize(
    "triple",
    [
        (2.0, 1.0, 1.0 - 1e-9),  # near-prolate: b ~ c < a
        (1.7, 1.0, 1.0 - 1e-4),
        (1.0, 1.0 - 1e-9, 0.6),  # near-oblate: a ~ b > c
        (1.0, 1.0 - 1e-4, 0.3),
        (1.7, 1.2, 0.8),
    ],
)
def test_bounded_on_near_degenerate_casimir_blocks(triple):
    t = MetricTriple(*triple)
    for k in (2, 5, 9, 16, 25):
        # Near b = c the even and odd blocks hold the Wang pairs, whose
        # splitting can be below TOL: those values have the certificate
        # only.  The halves the solver sees separate each pair.
        # eigenvalues takes blocks of two or more rows; eigen_block reads
        # a 1x1 half off itself
        split = tridiagonal_split(symmetrize(casimir_matrix(k, t), k), k)
        blocks = [(b, False) for b in split if b[1]]
        halves = _wang_halves(k, *_squares(t.a, t.b, t.c))
        blocks += [(h, True) for h in halves if h[1]]
        for block, mp in blocks:
            _assert_contract(block, mp)
            full = eigenvalues(*block)
            for value in (full[0], full[len(full) // 2], full[-1]):
                for upper in (
                    value,
                    math.nextafter(value, -math.inf),
                    math.nextafter(value, math.inf),
                ):
                    _assert_bounded_equals_unbounded(block, upper)


def test_newton_never_settles_on_a_neighbour_outside_its_bracket():
    # The bracket [2, 3] holds only 2.11725.  Its first Newton step, from
    # near a critical point, is clipped to lo = 2, where the next step
    # heads for the eigenvalue 2 - 1e-13 just outside; the counts reject it.
    t = _block([0.0, 2.0 - 1e-13, 2.11725, 3.1, 3.2, 3.3, 4.0], [0.0] * 6)
    _assert_contract(t)
    assert abs(eigenvalues(*t)[2] - 2.11725) <= 1e-15


def test_newton_never_settles_on_a_neighbour_above_its_bracket(monkeypatch):
    # The mirror of the test above: the bracket [-3, -2] holds only
    # -2.11725, and -2 + 1e-13 lies just above it.  A short step towards
    # that neighbour is accepted, and the count at x - h, above -2.11725,
    # moves hi down to x - h before Newton goes on to the eigenvalue
    counts = []
    count = eigensolve._sturm_count

    def recorded(*args):
        counts.append(count(*args))
        return counts[-1]

    monkeypatch.setattr(eigensolve, "_sturm_count", recorded)
    diag = [0.0, -2.0 + 1e-13, -2.11725, -3.1, -3.2, -3.3, -4.0]
    assert _newton_on(diag, [0.0] * 6, -3.0, -2.0, 4).hex() == "-0x1.0f020c49ba5e1p+1"
    assert 5 in counts  # a probe above the eigenvalue moved hi


def test_bound_below_the_hull_returns_nothing():
    t = _block([3.0, 5.0, 4.0], [1.0, 1.0])  # Gershgorin hull [2, 6]
    assert eigenvalues(*t, 1.999) == ()
    assert eigenvalues(*t, -math.inf) == ()


def test_bound_drops_brackets_above_it():
    t = _block([0.0, 10.0, 20.0, 30.0], [0.1, 0.1, 0.1])
    got = eigenvalues(*t, 5.0)
    assert len(got) == 1
    assert _bits(got) == _bits(eigenvalues(*t)[:1])
    _assert_contract(t)
    # eigenvalues (1 -+ sqrt 2) / 2: the one-index bracket [0.5, 1.5] of
    # the larger reaches past both bounds, and the count at cut drops it
    # before any Newton step
    for upper in (0.8, 1.0):
        _assert_bounded_equals_unbounded(_block([0.0, 1.0], [0.5]), upper)


def test_offdiag_must_be_one_shorter_than_diag():
    cases = (([1.0, 2.0], []), ([1.0, 2.0], [0.5, 0.5]), ([], [1.0]), ([1.0], [0.5]),
             ([], []), ([1.0], []))
    for diag, off in cases:
        with pytest.raises(ValueError, match="at least 2 rows and len"):
            eigenvalues(diag, off)


def test_eigen_block_reads_each_one_by_one_half_against_the_bound():
    # Only k <= 6 has 1x1 halves: 9 of them, which eigen_block reads off
    # without eigenvalues.  Each is kept bitwise exactly when it is <= the
    # bound, whether the bound is the value or 1 ulp either side of it.
    rng = np.random.default_rng(30)
    for _ in range(8):
        a, b, c = sorted(np.exp(rng.uniform(-2.0, 2.0, 3)), reverse=True)
        sq = _squares(float(a), float(b), float(c))
        ones = [(k, h[0][0]) for k in range(8) for h in _wang_halves(k, *sq) if not h[1]]
        assert len(ones) == 9 and max(k for k, _ in ones) <= 6
        for k, value in ones:
            for upper in (math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)):
                assert (value.hex() in _bits(eigen_block(k, *sq, upper))) == (value <= upper)


def test_eigen_block_raises_on_a_one_by_one_half_beyond_the_float_range(monkeypatch):
    # a2 = inf: the 1x1 halves of irrep 2 are +inf, +inf and the middle
    # row 0 * inf = NaN; a patched assembly gives each kind alone
    with pytest.raises(OverflowError, match="1x1 half"):
        eigen_block(2, math.inf, 2.0, -0.5)
    for bad in (math.inf, -math.inf, math.nan):
        monkeypatch.setattr(eigensolve, "_wang_halves", lambda *args: [([bad], [])])
        with pytest.raises(OverflowError, match="1x1 half"):
            eigen_block(0, 1.0, 1.0, 1.0)


def test_eigen_block_bound_keeps_every_value_below_it():
    # two equal parameters never reach eigen_block: their bound is checked
    # on spectrum._diagonal_runs
    for triple in ((1.7, 1.2, 0.8), (2.9, 1.7, 0.8)):
        sq = _squares(*triple)
        for k in (3, 8, 14):
            full = eigen_block(k, *sq)
            for upper in (full[0], full[len(full) // 2], 0.5 * (full[0] + full[-1])):
                assert eigen_block(k, *sq, upper) == tuple(v for v in full if v <= upper)


# ---- each guard of a bisection or Newton pass, pinned bitwise ----


def _newton_on(diag, off, lo, hi, m, start=math.nan):
    """``_newton`` on [lo, hi] for index m, with the arguments ``eigenvalues`` forms."""
    return _newton(lo, hi, m, *kernel_rows(diag, off), start)


@pytest.mark.parametrize("shift, want", [(-9, "0x1.bfffffffff600p+2"), (9, "0x1.0000000000500p+1")])
def test_a_split_count_outside_its_bracket_is_clamped(monkeypatch, shift, want):
    # In exact arithmetic the count at a midpoint lies between the counts
    # at the bracket's ends; the clamp guards against rounding that breaks
    # this, and a shifted count stands in for it.  Shifted down, every
    # count is clamped to ``first`` and all three indices are bisected to
    # the top of the Gershgorin hull [2, 7]; shifted up, to ``last`` and
    # its bottom.  Unclamped, a bracket would hold indices the block lacks
    count = eigensolve._sturm_count
    monkeypatch.setattr(eigensolve, "_sturm_count", lambda *args: count(*args) + shift)
    assert _bits(eigenvalues([3.0, 5.0, 4.0], [1.0, 1.0])) == [want] * 3


def test_a_newton_step_beyond_the_bracket_is_clipped():
    # from 0.25 the step to the critical point's far side, -0.125, is
    # clipped to lo = 0; from 0.75 the step to 1.125 to hi = 1
    got = eigenvalues([0.0, 1.0], [0.0])
    assert _bits(got) == ["0x1.ffffffffffffep-53", "0x1.0000000000001p+0"]


def test_a_newton_step_longer_than_half_the_last_is_rejected():
    got = eigenvalues([-0.489, -0.76], [-0.933])
    assert _bits(got) == ["-0x1.9139c9a3d1c76p+0", "0x1.45ed4b6c76383p-2"]


@pytest.mark.parametrize(
    "sign, m, want", [(1.0, 2, "0x1.a8c536fe1a8ccp-2"), (-1.0, 0, "-0x1.a8c536fe1a8c0p-2")]
)
def test_a_nan_newton_step_falls_back_to_the_midpoint(sign, m, want):
    # At x = 0 the g_i of the three pivots are +-(1/1.08, 1.4848..., -1/e),
    # whose sum, the slope, is exactly 0: the step is NaN.  Of the
    # eigenvalues, -+0.56, -+1.6 and +-e, only +-e lies in [-0.52, 0.52]; a
    # NaN taken for an end of the bracket would move x there instead
    e = 0.41481481481481486
    diag = [-sign * 1.08, -sign * 1.08, sign * e]
    assert _newton_on(diag, [0.52, 0.0], -0.52, 0.52, m).hex() == want


@pytest.mark.parametrize("start", [math.nan, -1.0, -3.0, -2.0, 5.0, math.inf])
def test_a_start_outside_the_bracket_is_the_midpoint(start):
    # the bracket [-3, -2] of the mirror test above; a start on an end
    # lies outside the open bracket too.  A start inside is taken: from
    # 1e-12 above the eigenvalue Newton settles 2 ulp from the midpoint's
    diag = [0.0, -2.0 + 1e-13, -2.11725, -3.1, -3.2, -3.3, -4.0]
    midpoint = _newton_on(diag, [0.0] * 6, -3.0, -2.0, 4).hex()
    assert midpoint == "-0x1.0f020c49ba5e1p+1"
    assert _newton_on(diag, [0.0] * 6, -3.0, -2.0, 4, start).hex() == midpoint
    assert _newton_on(diag, [0.0] * 6, -3.0, -2.0, 4, -2.117250000001).hex() != midpoint


def test_a_zero_pivot_is_replaced_by_pert():
    # zero couplings: the Newton iterates reach the diagonal entries 1 and 2
    assert _bits(eigenvalues([2.0, 1.0], [0.0])) == ["0x1.0000000000002p+0", "0x1.0000000000001p+1"]


def test_the_checks_count_with_the_kernels_rows_and_pert(monkeypatch):
    # every count eigenvalues takes, Newton's included, gets the d0, rows
    # and pert of oracle.kernel_rows bitwise, on blocks whose norm comes
    # from an interior row or from an end row
    seen = []
    count = eigensolve._sturm_count

    def recorded(x, *setup):
        seen.append(setup)
        return count(x, *setup)

    monkeypatch.setattr(eigensolve, "_sturm_count", recorded)
    rng = np.random.default_rng(40)
    blocks = [_random_block(rng, n) for n in (2, 3, 7)]
    blocks += [([2.0, 1.0], [0.0]), ([1.0, 5.0, 1.0], [0.0, 0.0]), ([-9.0, 1.0, 2.0], [-1.5, 3.0])]
    for t in blocks:
        seen.clear()
        eigenvalues(*t)
        assert seen and {repr(setup) for setup in seen} == {repr(kernel_rows(*t))}


# the triples of ``_deep_block_values``, each with its bound
DEEP_BOUNDS = {(3.1, 1.45, 0.6): 900.0, (2.2, 1.0, 0.99): 2000.0, (1.6, 1.5936, 0.9): 2500.0}
# SHA-256 over the value bits of ``_deep_block_values``: a change to the
# kernel that moves one value by one ulp, or drops or adds one, changes it.
# ``test_deep_blocks_are_near_a_40_digit_solve`` backs the values of k <= 20
# with a 40-digit solve.  Pinned again when the near-oblate triple moved to
# its (c, a, b) frame and Newton to its perturbed-diagonal start: 682 of the
# 3,741 unbounded values moved, 632 by 1 ulp, and three values far below
# their block's largest by 9, 13 and 17 ulp
PINNED_DEEP_BLOCKS = "45aaa13c3dbfb1be7d1c9953467aa719004d86417fd501e97232b8f66c4681fb"


def _deep_block_values():
    """Every block k <= 56 of a generic, a near-prolate (b ~ c < a) and a
    near-oblate (a ~ b > c) triple at the unit scale, b in [1, 2), unbounded
    and at a bound that cuts the blocks from about k = 30-50 on."""
    for triple, upper in DEEP_BOUNDS.items():
        sq = _squares(*triple)
        for k in range(57):
            for bound in (math.inf, upper):
                yield k, bound, eigen_block(k, *sq, bound)


def test_deep_blocks_are_pinned():
    digest = hashlib.sha256()
    for k, bound, values in _deep_block_values():
        digest.update(repr((k, bound, [v.hex() for v in values])).encode())
    assert digest.hexdigest() == PINNED_DEEP_BLOCKS


def test_deep_blocks_are_near_a_40_digit_solve():
    # the worst relative error over k <= 20 is 2.1e-15: 14 ulp of 190.27 in
    # a block that reaches 1919, under 2 ulp of that.  The mean is 0.46 ulp.
    # The truth is solved in the frame (a, b, c) as given, and the
    # near-oblate triple in its (c, a, b) frame
    a, b, c = 1.6, 1.5936, 0.9
    assert (a, b, c) in DEEP_BOUNDS
    assert _squares(a, b, c) == (c * c, a * a + b * b, b * b - a * a)
    for triple in DEEP_BOUNDS:
        t, sq = MetricTriple(*triple), _squares(*triple)
        for k in range(21):
            parities = (0,) if k % 2 or k == 0 else (0, 1)  # odd k: the odd block repeats
            with mpmath.workdps(40):
                exact = sorted(v for p in parities for v in _mp_parity_eigenvalues(k, t, p))
            got = eigen_block(k, *sq)
            assert len(got) == len(exact)
            for value, want in zip(got, exact):
                assert abs(value - want) <= 4e-15 * abs(want), (triple, k)


def test_values_are_certified_to_tol_and_accurate_to_the_half_norm():
    # irrep 46 of the SO(3) triple (4.250640112184861, 0.35332397722702963,
    # 0.26419535062341143) at its unit scale, b in [1, 2): the triple times
    # 4.  Newton from the bracket midpoint gave its value 3337.64 at 3.65e-14
    # relative (268 ulp, 0.98 eps * norm) from a 40-digit solve of its 12-row
    # half, whose norm is 5.6e5; from the perturbed diagonal it lands within
    # 1.5e-18 relative, and the worst value of the irrep is 0.43 eps * norm.
    # The error follows the half's norm, not the value
    sq = _squares(4 * 4.250640112184861, 4 * 0.35332397722702963, 4 * 0.26419535062341143)
    for t in _wang_halves(46, *sq):
        diag, off = t
        norm = max(map(abs, diag)) + 2 * max(map(abs, off))
        got = eigenvalues(diag, off)
        assert len(got) == len(diag)
        with mpmath.workdps(40):
            exacts = _mp_eigenvalues(diag, off)
        for m, (value, exact) in enumerate(zip(got, exacts)):
            h = 0.5 * TOL * max(1.0, abs(value))
            assert _sturm_count(t, value - h) <= m < _sturm_count(t, value + h)
            assert abs(value - exact) <= 2 * 2.0**-52 * norm, (len(diag), m)


# solves 2,000 seeded blocks of 2-12 rows in a child interpreter with a
# timeout, so a loop that stops terminating fails the test instead of hanging
# it.  Same-magnitude blocks (base 10^U(-300, 300), couplings down to 1e-16 of
# it or 0) must come back certified unless a squared coupling overflows;
# mixed-magnitude ones, with entries from +-10^U(-320, 307.5), zeros, +-5e-324
# and the smallest normal, need only return n values or raise OverflowError
_TERMINATION_CHILD = """
import json, math, random, sys
from homsphere.eigensolve import TOL, _sturm_count, eigenvalues
from homsphere.oracle import kernel_rows

def certified(diag, off, values):
    # counts, taken as the kernel takes them, hold index m within TOL/2 of value m
    setup = kernel_rows(diag, off)
    for m, v in enumerate(values):
        h = 0.5 * TOL * max(1.0, abs(v))
        if not _sturm_count(v - h, *setup) <= m < _sturm_count(v + h, *setup):
            return False
    return True

def entry(rng):
    u = rng.random()
    if u < 0.1:
        return 0.0
    if u < 0.15:
        size = 5e-324
    elif u < 0.2:
        size = sys.float_info.min
    else:
        size = 10.0 ** rng.uniform(-320, 307.5)
    return rng.choice((-size, size))

rng = random.Random(2026)
tally = {"same": [0, 0], "mixed": [0, 0]}  # solved, overflowed
failures = []
for family in ("same", "mixed"):
    for _ in range(1000):
        n = rng.randint(2, 12)
        if family == "same":
            base = 10.0 ** rng.uniform(-300, 300)
            diag = [base * rng.uniform(-2, 2) for _ in range(n)]
            off = [base * rng.uniform(-1, 1) * rng.choice((1, 1e-8, 1e-16, 0))
                   for _ in range(n - 1)]
        else:
            diag = [entry(rng) for _ in range(n)]
            off = [entry(rng) for _ in range(n - 1)]
        try:
            values = eigenvalues(diag, off)
        except OverflowError:
            tally[family][1] += 1
            if family == "same" and all(math.isfinite(o * o) for o in off):
                failures.append((family, diag, off, "overflow"))
            continue
        tally[family][0] += 1
        if len(values) != n or (family == "same" and not certified(diag, off, values)):
            failures.append((family, diag, off, values))
json.dump({"tally": tally, "failures": failures}, sys.stdout)
"""


def test_every_bisection_and_newton_loop_terminates():
    src = str(Path(eigensolve.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _TERMINATION_CHILD],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["failures"] == []
    (same_solved, same_overflowed), (mixed_solved, mixed_overflowed) = report["tally"].values()
    # a squared coupling overflows past base ~1e154, about a quarter of the range
    assert same_solved > 600 and same_overflowed > 100
    assert mixed_solved > 100 and mixed_overflowed > 100
