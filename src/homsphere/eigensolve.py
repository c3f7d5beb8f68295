"""Symmetric tridiagonal eigenvalues by Sturm-sequence bisection.

Bisection with Sturm counts was chosen over QL/QR style iterations:
only eigenvalues are needed, every eigenvalue is bracketed with a
guaranteed enclosure, the initial bracket comes directly from Gershgorin
bounds, and bisection can stop at a bound: a table below L needs only the
eigenvalues below L, which are usually a small share of each block.

``eigenvalues`` is the one bisection kernel, a pure-Python loop over a
single block (the blocks arising from the spectra here are small).  It
bisects brackets of eigenvalue indices rather than one index at a time:
the indices a bracket holds share its Sturm counts, the count at its
midpoint splits it, and a bracket that lies above the bound is dropped
(Barth, Martin & Wilkinson 1967; LAPACK ``dstebz`` with RANGE='V').
``eigen_block`` solves the even and odd blocks of one irrep, or reads the
eigenvalues off the diagonal when two parameters are equal.
"""

from __future__ import annotations

import math

from .casimir import TridiagBlock, _diagonal, build_irrep_block
from .core import HomsphereError, MetricTriple

_EPS = 2.0**-52
# bisection stops at a bracket width of TOL * max(1, |midpoint|)
TOL = 1e-12


class NonConvergence(HomsphereError, RuntimeError):
    """Bisection cannot shrink an eigenvalue bracket to the tolerance."""


def eigenvalues(t: TridiagBlock, upper: float = math.inf) -> tuple[float, ...]:
    """Eigenvalues of a symmetric tridiagonal block, sorted ascending.

    Every eigenvalue <= ``upper`` is returned; some above it may be too.
    Bisection starts from one bracket, the Gershgorin hull, holding every
    index.  Each bracket [lo, hi] holds the indices first..last-1; the
    Sturm count at its midpoint, clamped to [first, last], splits it in
    two, so the indices that share a path count each midpoint once.  A
    bracket whose width drops below TOL * max(1, |midpoint|), however many
    halvings that takes (a few hundred at extreme aspect ratios), gives its
    midpoint once per index it holds.  A bracket with lo > ``upper`` is
    dropped.  Index m goes left iff the count is >= m + 1, exactly as if
    it were bisected alone, so every value is bitwise independent of
    ``upper``.  The Sturm count of a midpoint runs the signed pivot
    recurrence d_1 = T_11 - x, d_i = (T_ii - x) - off_{i-1}^2 / d_{i-1}
    and counts negative pivots; a zero pivot is replaced by
    +eps * |T|_inf, so an eigenvalue exactly at the midpoint is not
    counted.

    Raises:
        OverflowError: if an entry or a squared coupling is not finite.
        NonConvergence: if the midpoint of a bracket is not strictly inside
            it before the width test passes (a NaN entry).
    """
    n = t.n
    if n == 0:
        return ()
    diag = t.diag
    off = t.offdiag
    off2 = [v * v for v in off]

    lo0 = hi0 = diag[0]
    norm = 0.0
    for i in range(n):
        left = abs(off[i - 1]) if i else 0.0
        right = abs(off[i]) if i < n - 1 else 0.0
        r = left + right
        lo0 = min(lo0, diag[i] - r)
        hi0 = max(hi0, diag[i] + r)
        norm = max(norm, abs(diag[i]) + left + right)
    if not math.isfinite(norm + max(off2, default=0.0)):
        raise OverflowError(f"entries of a {n}x{n} block leave the float range")
    pert = _EPS * (norm or 1.0)
    if lo0 > upper:
        return ()

    d0 = diag[0]
    rows = list(zip(diag[1:], off2))
    out = []
    stack = [(lo0, hi0, 0, n)]
    while stack:
        lo, hi, first, last = stack.pop()
        mid = 0.5 * (lo + hi)
        if hi - lo <= TOL * max(1.0, abs(mid)):
            out.extend([mid] * (last - first))
            continue
        if not lo < mid < hi:
            raise NonConvergence(
                f"eigenvalue {first} of a {n}x{n} block did not converge"
            )
        d = d0 - mid
        if d == 0.0:
            d = pert
        count = 1 if d < 0.0 else 0
        for di, o2 in rows:
            d = (di - mid) - o2 / d
            if d == 0.0:
                d = pert
            if d < 0.0:
                count += 1
        split = min(max(count, first), last)
        if split < last and mid <= upper:
            stack.append((mid, hi, split, last))
        if split > first:
            stack.append((lo, mid, first, split))
    out.sort()
    return tuple(out)


def eigen_block(k: int, t: MetricTriple, upper: float = math.inf) -> tuple[float, ...]:
    """Sorted eigenvalues of the irrep-k Casimir matrix for triple ``t``.

    Every eigenvalue <= ``upper`` is returned; some above it may be too,
    and each value is bitwise what an unbounded call gives.  When b = c
    the matrix is already diagonal, so the solver is bypassed and the
    whole diagonal is returned as computed.  When a = b > c the metric is
    isometric to (c, a, b), whose matrix is diagonal in the same way.
    Either way the values are bitwise the closed Berger eigenvalues
    ``oracle.berger_eigenvalue``.  Otherwise the even and odd tridiagonal
    blocks are solved below ``upper`` and merged.  With b >= 1 every
    positive eigenvalue is at least 2, so the floor of the stopping width
    never binds; this is why ``spectrum_up_to`` calls it at a power-of-two
    scale with b in [1, 2).

    Raises:
        OverflowError: if a block entry leaves the float range.
    """
    if t.b == t.c:
        return tuple(sorted(_diagonal(k, t.a * t.a, t.b * t.b + t.c * t.c)))
    if t.a == t.b:
        return tuple(sorted(_diagonal(k, t.c * t.c, t.a * t.a + t.b * t.b)))
    even, odd = build_irrep_block(k, t)
    return tuple(sorted((*eigenvalues(even, upper), *eigenvalues(odd, upper))))
