"""Independent output oracle for truncated spectra.

Nothing here calls homsphere's numerics.  Generic triples are solved by
LAPACK bisection (``scipy.linalg.eigvalsh_tridiagonal``) on symmetric
tridiagonal blocks written straight from the closed entry formulas; triples
with two equal parameters use the closed form
x^2 (k-2j)^2 + 2 y^2 ((2j+1)k - 2j^2) of the metric (x, y, y); round triples
use the law r^2 k(k+2) with multiplicity (k+1)^2.  Blocks are enumerated
up to the bound c^2 k(k+2) <= L, which holds because a >= b >= c makes the
Casimir operator at least c^2 times the round one.  That bound is looser
than the library's cut-off, so completeness below L is checked, not assumed.

Each table is judged at two levels:

* strict: oracle eigenvalues closer than ``RESOLUTION`` (relative) are one
  eigenvalue, anything farther apart must stay two entries.  This is what
  ``fail_frac`` counts, including the known defect that the default
  ``cluster_tol`` merges genuinely distinct eigenvalues.
* documented: oracle eigenvalues are clustered by the library's own
  documented rule at the ``cluster_tol`` the call used.  A miss here is a
  wrong value, a missing eigenvalue or a wrong count even by the library's
  own contract, and makes the run's ``correct`` flag false.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

VALUE_RTOL = 1e-9   # every reported eigenvalue must match to this (relative)
RESOLUTION = 1e-11  # well above both solvers' error, below every defect gap seen
BAND = 1e-10        # eigenvalues this close to the bound may fall on either side


def tridiagonal_blocks(k: int, a: float, b: float, c: float):
    """The even- and odd-index (diag, offdiag) blocks of irrep k.

    Diagonal: (k-2l)^2 a^2 + ((2l+1)k - 2l^2)(b^2 + c^2); the symmetrized
    coupling of l and l+2 is (c^2 - b^2) sqrt((l+1)(l+2)(k-l)(k-l-1)).
    """
    a2, b2, c2 = a * a, b * b, c * c
    out = []
    for parity in (0, 1):
        ls = np.arange(parity, k + 1, 2, dtype=float)
        diag = (k - 2 * ls) ** 2 * a2 + ((2 * ls + 1) * k - 2 * ls * ls) * (b2 + c2)
        lo = ls[:-1]
        off = (c2 - b2) * np.sqrt((lo + 1) * (lo + 2) * (k - lo) * (k - lo - 1))
        out.append((diag, off))
    return out


def contributions(lam_max: float, triple, group: str) -> list[tuple[float, int]]:
    """(eigenvalue, multiplicity) pairs up to lam_max (plus the band), unsorted."""
    a, b, c = sorted(triple, reverse=True)
    top = lam_max * (1.0 + BAND)
    step = 2 if group == "so3" else 1
    out: list[tuple[float, int]] = []
    k = 0
    while c * c * k * (k + 2) <= top:
        if a == c:
            out.append((a * a * k * (k + 2), (k + 1) ** 2))
        elif a == b or b == c:
            x, y = (a, b) if b == c else (c, a)
            j = np.arange(k + 1, dtype=float)
            vals = x * x * (k - 2 * j) ** 2 + 2.0 * (y * y) * ((2 * j + 1) * k - 2 * j * j)
            out.extend((float(v), k + 1) for v in vals if v <= top)
        else:
            for diag, off in tridiagonal_blocks(k, a, b, c):
                if not diag.size:
                    continue
                vals = eigvalsh_tridiagonal(diag, off, select="v", select_range=(-1.0, top))
                out.extend((float(v), k + 1) for v in vals)
        k += step
    return out


def cluster(contribs, rtol: float) -> list[tuple[float, int]]:
    """Merge sorted values within rtol * max(1, |first|) of a cluster's first value."""
    out: list[tuple[float, int]] = []
    for value, mult in sorted(contribs):
        if out and value - out[-1][0] <= rtol * max(1.0, abs(out[-1][0])):
            out[-1] = (out[-1][0], out[-1][1] + mult)
        else:
            out.append((value, mult))
    return out


def compare(entries, expected, lam_max: float) -> str | None:
    """None when two (value, multiplicity) lists agree below the band, else why not."""
    cut = lam_max * (1.0 - BAND)
    got = [e for e in entries if e[0] <= cut]
    want = [e for e in expected if e[0] <= cut]
    n_got, n_want = sum(m for _, m in got), sum(m for _, m in want)
    if n_got != n_want:
        return f"counting function N(L) = {n_got}, expected {n_want}"
    for i, ((v, m), (w, n)) in enumerate(zip(got, want)):
        if abs(v - w) > VALUE_RTOL * max(1.0, abs(w)):
            return f"entry {i} value {v!r}, expected {w!r}"
        if m != n:
            return f"entry {i} ({v:.12g}) multiplicity {m}, expected {n}"
    if len(got) != len(want):
        return f"{len(got)} distinct entries, expected {len(want)}"
    return None


def check_table(entries, lam_max: float, triple, group: str, cluster_tol: float):
    """Judge one table: (strict reason or None, documented contract holds)."""
    contribs = contributions(lam_max, triple, group)
    strict = compare(entries, cluster(contribs, RESOLUTION), lam_max)
    if strict is None:
        return None, True
    return strict, compare(entries, cluster(contribs, cluster_tol), lam_max) is None


def first_difference(pos1, pos2, tol: float = VALUE_RTOL):
    """1-based index of the first differing positive entry, with both values."""
    for idx in range(max(len(pos1), len(pos2))):
        if idx >= len(pos1):
            return idx + 1, (None, pos2[idx][0])
        if idx >= len(pos2):
            return idx + 1, (pos1[idx][0], None)
        (v1, m1), (v2, m2) = pos1[idx], pos2[idx]
        if abs(v1 - v2) > tol * max(1.0, abs(v1)) or m1 != m2:
            return idx + 1, (v1, v2)
    return None


def expected_isospectral(t1, t2, group: str, lam_max: float, rtol: float):
    """(verdict, index, values) that an exact comparison of the spectra gives."""
    cut = lam_max * (1.0 - BAND)
    pos = [
        [e for e in cluster(contributions(lam_max, t, group), rtol) if 0.0 < e[0] <= cut]
        for t in (t1, t2)
    ]
    diff = first_difference(*pos)
    if diff is not None:
        return ("distinct_spectra", *diff)
    same = all(
        math.isclose(x, y, rel_tol=VALUE_RTOL, abs_tol=VALUE_RTOL)
        for x, y in zip(sorted(t1), sorted(t2))
    )
    return ("isometric" if same else "undecided", None, None)
