"""Symmetric tridiagonal eigenvalues by Sturm-sequence bisection.

Bisection with Sturm counts was chosen over QL/QR style iterations:
only eigenvalues are needed, every eigenvalue is bracketed with a
guaranteed enclosure, the per-index searches are independent, and the
initial brackets come directly from Gershgorin bounds.

``eigenvalues`` is the one bisection kernel, a pure-Python loop over a
single block (the blocks arising from the spectra here are small).
``eigen_block`` solves the even and odd blocks of one irrep, or reads the
eigenvalues off the diagonal when two parameters are equal.
"""

from __future__ import annotations

from .casimir import TridiagBlock, _diagonal, build_irrep_block
from .core import HomsphereError, MetricTriple

_EPS = 2.0**-52


class NonConvergence(HomsphereError, RuntimeError):
    """Bisection cannot shrink an eigenvalue bracket to the tolerance."""


def eigenvalues(t: TridiagBlock, tol: float = 1e-12) -> tuple[float, ...]:
    """All eigenvalues of a symmetric tridiagonal block, sorted ascending.

    Each eigenvalue is bisected inside the Gershgorin hull of the block
    until the bracket width drops below tol * max(1, |midpoint|), however
    many halvings that takes (a few hundred at extreme aspect ratios).  The
    Sturm count of a midpoint runs the signed pivot recurrence
    d_1 = T_11 - x, d_i = (T_ii - x) - off_{i-1}^2 / d_{i-1} and counts
    negative pivots; a zero pivot is replaced by +eps * |T|_inf, so an
    eigenvalue exactly at the midpoint is not counted.

    Raises:
        NonConvergence: if the midpoint of a bracket rounds to one of its
            ends before the width test passes (tol below the float spacing).
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
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
    pert = _EPS * (norm or 1.0)

    out = []
    for m in range(n):
        lo, hi = lo0, hi0
        while True:
            mid = 0.5 * (lo + hi)
            if hi - lo <= tol * max(1.0, abs(mid)):
                out.append(mid)
                break
            if not lo < mid < hi:
                raise NonConvergence(
                    f"eigenvalue {m} of a {n}x{n} block did not converge"
                )
            count = 0
            d = 1.0
            for i in range(n):
                d = (diag[i] - mid) - (off2[i - 1] / d if i else 0.0)
                if d == 0.0:
                    d = pert
                if d < 0.0:
                    count += 1
            if count >= m + 1:
                hi = mid
            else:
                lo = mid
    out.sort()
    return tuple(out)


def eigen_block(k: int, t: MetricTriple, tol: float = 1e-12) -> tuple[float, ...]:
    """Sorted eigenvalues of the irrep-k Casimir matrix for triple ``t``.

    When b = c the matrix is already diagonal, so the solver is bypassed
    and the diagonal entries are returned as computed.  When a = b > c the
    metric is isometric to (c, a, b), whose matrix is diagonal in the same
    way.  Either way the values are bitwise the closed Berger eigenvalues
    ``oracle.berger_eigenvalue``.  Otherwise the even and odd tridiagonal
    blocks are solved and merged.  ``tol`` is checked on every branch.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if t.b == t.c:
        return tuple(sorted(_diagonal(k, t.a * t.a, t.b * t.b + t.c * t.c)))
    if t.a == t.b:
        return tuple(sorted(_diagonal(k, t.c * t.c, t.a * t.a + t.b * t.b)))
    even, odd = build_irrep_block(k, t)
    return tuple(sorted((*eigenvalues(even, tol), *eigenvalues(odd, tol))))
