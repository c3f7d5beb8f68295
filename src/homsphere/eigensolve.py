"""Symmetric tridiagonal eigenvalues by Sturm-count bisection and Newton steps.

``eigenvalues`` is the one solver, a pure-Python loop over a single
block of two or more rows (the blocks arising from the spectra here are
small).  Only eigenvalues are needed, and a table below L needs only
those below L, usually a small share of each block, so the solver works
on brackets from the Gershgorin hull rather than on the whole matrix:
the indices a bracket holds share its Sturm counts, the count at its
midpoint splits it, and a bracket that lies above the bound is dropped
(Barth, Martin & Wilkinson 1967; LAPACK ``dstebz`` with RANGE='V').  A
bracket that holds one index is finished by Newton steps on the
characteristic polynomial, whose derivative comes from the same pivot
recurrence; the bracket guards every step, and counts certify the result
to the same width as a bisected midpoint.  This needs no second kernel:
QL would need a fallback for a value that fails its certificate.
Newton for index m starts from the diagonal entry d_i that ranks m-th,
perturbed to second order by its couplings:
d_i + e_{i-1}^2/(d_i - d_{i-1}) + e_i^2/(d_i - d_{i+1}), a zero gap
dropping its term, and from the midpoint when that start lies outside
the bracket or is NaN.  ``casimir._squares`` writes each block in the
frame where its couplings are smallest against its diagonal gaps, so
near a Berger sphere the start is close to the eigenvalue and Newton
needs few passes.  Each pass of the loops clamps and takes magnitudes by
comparisons, not by ``max``, ``abs`` or ``min``: the halves average
about 7 rows, and a builtin call costs about as much as a row of the
recurrence.  The squared couplings and the Gershgorin hull are built
once per call by ``map`` over ``operator`` functions, not by list
comprehensions: on CPython 3.11 each comprehension builds and calls a
function object, which on a half of a few rows costs more than its
arithmetic.  Midpoints are taken as lo/2 + hi/2, which cannot overflow
where lo + hi would and lies strictly inside every bracket wider than
the stopping width, so neither loop checks that it converges: the one
error left is ``OverflowError``, raised before the first bracket where
the Gershgorin hull or a squared coupling overflows, and finite entries
are the caller's duty.  A block is given as its diagonal and off-diagonal
sequences, the plain lists of ``casimir._wang_halves``, the form in
which ``oracle.tridiagonal_split`` gives a full block too, and
``oracle.kernel_rows`` forms a block's pivot rows and ``pert`` for the
checks exactly as ``eigenvalues`` does.
``eigen_block`` solves the Wang halves of one irrep from the three
squares of ``casimir._squares``, which ``spectrum_up_to`` forms once per
table, and it is the only code that reads a 1x1 half: that half is its
own value, the others go to ``eigenvalues``, exactly the values <= the
bound come back, and for odd k one value per Wang mirror pair.  The
bound has one owner too: the Sturm count at cut in ``eigenvalues``
decides which one-index brackets are solved, and ``_newton`` never sees
it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import add, mul, sub

from .casimir import _wang_halves

_EPS = 2.0**-52
# bisection stops at a bracket width of TOL * max(1, |midpoint|); a Newton
# result is certified to the same half-width
TOL = 1e-12


def eigenvalues(
    diag: Sequence[float], offdiag: Sequence[float], upper: float = math.inf
) -> tuple[float, ...]:
    """The eigenvalues <= ``upper`` of a symmetric tridiagonal block, sorted.

    The block has the diagonal ``diag``, two or more entries, and the
    off-diagonal ``offdiag``, one entry shorter; ``eigen_block`` reads a
    1x1 half off itself.

    Bisection starts from one bracket, the Gershgorin hull, holding every
    index.  Each bracket [lo, hi] holds the indices first..last-1; the
    Sturm count at its midpoint, clamped to [first, last], splits it in
    two, so the indices that share a path count each midpoint once (Barth,
    Martin & Wilkinson 1967).  A bracket with lo > ``upper`` is dropped.
    A bracket whose width drops below TOL * max(1, |midpoint|), however
    many halvings that takes (a few hundred at extreme aspect ratios),
    gives its midpoint once per index it holds.  A bracket that holds one
    index is finished by ``_newton``, unless it reaches past
    cut = ``upper`` + TOL * max(1, |``upper``|) and the count at cut
    shows its eigenvalue at or above cut: ``_newton`` certifies to
    TOL/2 * max(1, |x|), so it would return that value above ``upper``,
    and the bracket is dropped unsolved.  A bracket that is kept takes the
    same path as in an unbounded call, since ``_newton`` does not see the
    bound, and its value is kept if it is <= ``upper``: every value is
    bitwise what an unbounded call gives.

    The loops need no convergence check: ``lo`` and ``hi`` stay finite,
    and a bracket that fails the width test
    hi - lo <= TOL * max(1, |mid|) has its exact midpoint at least
    TOL/2 * max(1, |mid|) = 5e-13 * max(1, |mid|) from each end, while
    rounding lo/2 + hi/2 moves it by at most 2^-53 * |mid| plus 2^-1074
    for subnormals.  The midpoint is therefore strictly inside, and each
    split shrinks the bracket.

    Raises:
        ValueError: if ``diag`` has fewer than 2 entries or ``offdiag`` is
            not one entry shorter.
        OverflowError: if the Gershgorin hull or a squared coupling
            overflows.  Finite entries are the caller's duty; no table
            forms a NaN row, since ``MetricTriple`` rejects non-finite
            parameters and every half is finite at the unit scale.
    """
    n = len(diag)
    if n < 2 or len(offdiag) != n - 1:
        raise ValueError("a block needs at least 2 rows and len(diag) - 1 couplings")
    off2 = list(map(mul, offdiag, offdiag))
    absoff = list(map(abs, offdiag))
    radius = list(map(add, (0.0, *absoff), (*absoff, 0.0)))
    lo0 = min(map(sub, diag, radius))
    hi0 = max(map(add, diag, radius))
    norm = hi0 if hi0 > -lo0 else -lo0  # the largest |d| + r
    if not math.isfinite(norm + max(off2)):
        raise OverflowError(f"entries of a {n}x{n} block leave the float range")
    pert = _EPS * (norm or 1.0)
    if lo0 > upper:
        return ()

    d0 = diag[0]
    rows = list(zip(diag[1:], off2))
    order = None  # row order[m] ranks m-th; sorted for the first Newton start
    # an eigenvalue at or above cut comes back from _newton above upper
    cut = upper + TOL * (upper if upper > 1.0 else -upper if upper < -1.0 else 1.0)
    out = []
    stack = [(lo0, hi0, 0, n)]
    while stack:
        lo, hi, first, last = stack.pop()
        if last - first == 1:
            if cut < hi and _sturm_count(cut, d0, rows, pert) <= first:
                continue
            # the row's diagonal entry, perturbed to second order by its
            # couplings; two thirds of a sweep's calls never get here
            if order is None:
                order = sorted(range(n), key=diag.__getitem__)
            i = order[first]
            start = di = diag[i]
            if i and di != diag[i - 1]:
                start += off2[i - 1] / (di - diag[i - 1])
            if i < n - 1 and di != diag[i + 1]:
                start += off2[i] / (di - diag[i + 1])
            value = _newton(lo, hi, first, d0, rows, pert, start)
            if value <= upper:
                out.append(value)
            continue
        mid = 0.5 * lo + 0.5 * hi
        if hi - lo <= TOL * (mid if mid > 1.0 else -mid if mid < -1.0 else 1.0):
            if mid <= upper:
                out.extend([mid] * (last - first))
            continue
        split = _sturm_count(mid, d0, rows, pert)
        if split < first:
            split = first
        elif split > last:
            split = last
        if split < last and mid <= upper:
            stack.append((mid, hi, split, last))
        if split > first:
            stack.append((lo, mid, first, split))
    out.sort()
    return tuple(out)


def _sturm_count(x: float, d0: float, rows: list, pert: float) -> int:
    """Number of eigenvalues below ``x``: the negative pivots of T - x.

    The signed pivot recurrence is d_1 = T_11 - x,
    d_i = (T_ii - x) - off_{i-1}^2 / d_{i-1}; ``rows`` holds the pairs
    (T_ii, off_{i-1}^2) for i >= 2.  A zero pivot is replaced by ``pert``
    (eps * |T|_inf), so an eigenvalue exactly at x is not counted.
    """
    d = d0 - x
    if d == 0.0:
        d = pert
    count = 1 if d < 0.0 else 0
    for di, o2 in rows:
        d = (di - x) - o2 / d
        if d == 0.0:
            d = pert
        if d < 0.0:
            count += 1
    return count


def _newton(
    lo: float, hi: float, m: int, d0: float, rows: list, pert: float, start: float
) -> float:
    """Eigenvalue m, the only one in [lo, hi].

    Newton's method on det(T - x), safeguarded by the bracket, from
    ``start`` when it lies strictly inside [lo, hi] and from the midpoint
    otherwise, a NaN ``start`` included; ``eigenvalues`` passes the
    perturbed diagonal entry of the module docstring.  One pass
    of the pivot recurrence gives the Sturm count at x, which shrinks
    [lo, hi], and det'/det = sum g_i with g_i = d_i'/d_i: d_1' = -1 and
    d_i' = q g_{i-1} - 1 with q = off_{i-1}^2 / d_{i-1}.
    A step x -> x' shorter than h = TOL/2 * max(1, |x'|) is accepted once
    the counts at x' - h and x' + h, taken only where they fall inside
    the bracket, put [lo, hi] inside [x' - h, x' + h]: x' is then as close
    to the eigenvalue as a midpoint that passes the width test.  A longer
    step is clipped to the bracket, since an eigenvalue on a Gershgorin
    end is approached from outside; the midpoint replaces it if it is NaN,
    moves nothing, or moves more than half the previous step.  The width
    test and its midpoint stay in force, and the midpoint of a bracket
    that fails it is strictly inside, as ``eigenvalues`` shows, so a pass
    needs no convergence check.  The caller's entries are finite and so
    is their Gershgorin hull, which ``eigenvalues`` checks before any
    bracket; no entry is checked here.  The bound is not an argument:
    ``eigenvalues`` drops a bracket above it before the call and a value
    above it after, so a bounded call solves each kept bracket as an
    unbounded one does.
    """
    x = start if lo < start < hi else 0.5 * lo + 0.5 * hi
    prev = hi - lo
    while True:
        mid = 0.5 * lo + 0.5 * hi
        if hi - lo <= TOL * (mid if mid > 1.0 else -mid if mid < -1.0 else 1.0):
            return mid
        d = d0 - x
        if d == 0.0:
            d = pert
        g = -1.0 / d
        slope = g
        count = 1 if d < 0.0 else 0
        for di, o2 in rows:
            q = o2 / d
            d = (di - x) - q
            if d == 0.0:
                d = pert
            if d < 0.0:
                count += 1
            g = (q * g - 1.0) / d
            slope += g
        if count > m:
            hi = x
        else:
            lo = x
        step = -1.0 / slope if slope else math.nan
        nxt = x + step
        h = 0.5 * TOL * (nxt if nxt > 1.0 else -nxt if nxt < -1.0 else 1.0)
        if -h <= step <= h:
            x = nxt
            if lo < x - h < hi:
                if _sturm_count(x - h, d0, rows, pert) > m:
                    hi = x - h
                else:
                    lo = x - h
            if lo < x + h < hi:
                if _sturm_count(x + h, d0, rows, pert) > m:
                    hi = x + h
                else:
                    lo = x + h
            if x - h <= lo and hi <= x + h:
                return x
        else:
            # a NaN step fails both comparisons and stays NaN, so the
            # midpoint replaces it
            nxt = lo if nxt < lo else hi if nxt > hi else nxt
            move = nxt - x if nxt > x else x - nxt
            if 0.0 < move <= 0.5 * prev:
                prev = move
                x = nxt
                continue
        x = 0.5 * lo + 0.5 * hi
        prev = hi - lo


def eigen_block(
    k: int, a2: float, bc2: float, off: float, upper: float = math.inf
) -> tuple[float, ...]:
    """Sorted eigenvalues <= ``upper`` of irrep k, one per Wang mirror pair if k is odd.

    ``a2``, ``bc2`` and ``off`` are the squares ``casimir._squares``
    gives for a triple with b != c and a != b, so a caller forms them
    once for all its blocks: ``eigen_block(k, *_squares(t.a, t.b, t.c))``.
    The matrix is persymmetric under l <-> k-l (Wang 1929).  For odd k
    that map swaps the even and odd parity blocks, so the block of the
    even indices, whose (k+1)/2 eigenvalues are returned, carries the
    spectrum: every value is an eigenvalue of multiplicity 2 in the
    matrix, and ``spectrum_up_to`` weights it 2(k+1).  For even k all k+1
    eigenvalues are returned.  The halves of ``casimir._wang_halves``
    are, for odd k, the even block and, for even k, four halves of about
    k/4 rows.  A 1x1 half (only k <= 6 has them) is its own value, kept
    if it is <= ``upper``, and this is the only code that reads one;
    ``eigenvalues``, which takes two or more rows, solves every other
    half below ``upper``.  Each value is bitwise what an unbounded call
    gives.  With b >= 1 every positive eigenvalue is at least 2, so the
    floor of the stopping width never binds; this is why
    ``spectrum_up_to`` solves at a power-of-two scale with b in [1, 2),
    and why it reads a metric whose a^2 exceeds ``spectrum._DECOUPLED``
    there off the closed form instead.

    Raises:
        OverflowError: if a row (k-2l)^2 a2 + ... or the Gershgorin hull
            of a half leaves the float range, as ``eigenvalues`` does, a
            1x1 half included.
    """
    values = []
    for diag, offdiag in _wang_halves(k, a2, bc2, off):
        if offdiag:
            values += eigenvalues(diag, offdiag, upper)
            continue
        value = diag[0]
        if not math.isfinite(value):
            raise OverflowError(f"a row of irrep {k} and its 1x1 half leave the float range")
        if value <= upper:
            values.append(value)
    values.sort()
    return tuple(values)
