"""Verification-only references: nothing on the user path imports this module.

Only this module, the acceptance suite and the tests need numpy.
``casimir._wang_halves`` writes the Wang halves of the two tridiagonal
blocks directly; the functions here build the full blocks and their
full diagonals the long way, the only way anything builds them, and the
tests check the halves against them bit for bit:

* ``casimir_matrix`` writes the dense (k+1)x(k+1) matrix from its closed
  entrywise formula;
* ``casimir_matrix_oracle`` builds it independently from the generator
  matrices, and agrees bitwise on integer-scaled inputs;
* ``symmetrize`` conjugates the dense matrix by a diagonal of binomial
  square roots into a symmetric one, checking the residue;
* ``tridiagonal_split`` reorders it into even and odd indices, checking
  that nothing lies outside the distance-2 pattern, and returns the two
  blocks as ``TridiagBlock``s.

``_diagonal`` writes the diagonal of the irrep-k matrix alone, which is
the whole matrix for the squares ``casimir._squares`` gives a triple
with two equal parameters: ``spectrum._diagonal_runs`` reads the same
floats in sorted runs.

The other references: ``to_dense`` expands a block for a dense solver,
``gershgorin`` gives certified eigenvalue intervals, ``sturm_counter``
counts the eigenvalues below a value without solving for any,
``berger_eigenvalue`` and ``low_irrep_eigenvalues`` are closed forms the
spectra are checked against, ``mu_index_of`` looks a value up in a
table, and ``mult3_auxiliary_root`` and ``sum_eigenvalue_positions`` are
diagnostics of the inverse problem and of the spectrum's ordering.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .casimir import _squares, _wang_halves
from .core import (
    GroupKind,
    HomsphereError,
    MetricTriple,
    SpectrumTable,
    normalize_triple,
)
from .eigensolve import _EPS, _sturm_count
from .rigidity import _bisect
from .spectrum import _DECOUPLED, spectrum_up_to


class ImaginaryResidue(HomsphereError, ArithmeticError):
    """The generator-built Casimir matrix had a nonzero imaginary part."""


class AsymmetryResidue(HomsphereError, ArithmeticError):
    """The symmetrized matrix failed the symmetry check."""


class PatternViolation(HomsphereError, ValueError):
    """An entry outside the expected sparsity pattern is significantly nonzero."""


class NotFound(HomsphereError, LookupError):
    """No spectrum entry matches the queried eigenvalue."""


@dataclass(frozen=True, eq=False, slots=True)
class TridiagBlock:
    """A real symmetric tridiagonal matrix stored as diagonal/off-diagonal."""

    diag: tuple[float, ...]
    offdiag: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.offdiag) != max(len(self.diag) - 1, 0):
            raise ValueError("offdiag must have length len(diag) - 1")

    @property
    def n(self) -> int:
        return len(self.diag)


def generator_matrices(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matrices of the three Lie-algebra generators on the k-th irrep.

    In the monomial basis (zero-based l), the generators act by
    M1: P_l -> (k-2l)i P_l,
    M2: P_l -> -l P_{l-1} + (k-l) P_{l+1},
    M3: P_l -> -l i P_{l-1} - (k-l) i P_{l+1},
    with terms outside 0..k dropped.  They satisfy [M1,M2] = 2 M3,
    [M3,M1] = 2 M2, [M2,M3] = 2 M1.
    """
    if k < 0:
        raise ValueError(f"irrep label must be nonnegative, got {k}")
    n = k + 1
    m1 = np.zeros((n, n), dtype=complex)
    m2 = np.zeros((n, n), dtype=complex)
    m3 = np.zeros((n, n), dtype=complex)
    for l in range(n):
        m1[l, l] = (k - 2 * l) * 1j
        if l >= 1:
            m2[l - 1, l] = -l
            m3[l - 1, l] = -l * 1j
        if l < k:
            m2[l + 1, l] = k - l
            m3[l + 1, l] = -(k - l) * 1j
    return m1, m2, m3


def casimir_matrix(k: int, t: MetricTriple) -> np.ndarray:
    """Closed-form matrix of the negative Casimir operator on irrep k.

    Zero-based entries (column l):
      [l, l]   = (k-2l)^2 a^2 + ((2l+1)k - 2l^2)(b^2 + c^2)
      [l-2, l] = l(l-1) (c^2 - b^2)
      [l+2, l] = (k-l)(k-l-1) (c^2 - b^2)
    and zero elsewhere.  The off-diagonal sign matches the generator
    product M2^2, M3^2 (see ``casimir_matrix_oracle``); flipping it is a
    similarity that leaves every eigenvalue unchanged.
    """
    if k < 0:
        raise ValueError(f"irrep label must be nonnegative, got {k}")
    a2, b2, c2 = t.a * t.a, t.b * t.b, t.c * t.c
    n = k + 1
    m = np.zeros((n, n))
    off = c2 - b2
    for l in range(n):
        m[l, l] = (k - 2 * l) ** 2 * a2 + ((2 * l + 1) * k - 2 * l * l) * (b2 + c2)
        if l >= 2:
            m[l - 2, l] = l * (l - 1) * off
        if l + 2 <= k:
            m[l + 2, l] = (k - l) * (k - l - 1) * off
    return m


def _diagonal(k: int, a2: float, bc2: float, ls: range) -> list[float]:
    """Diagonal (k-2l)^2 a2 + ((2l+1)k - 2l^2) bc2 of the irrep-k matrix, l in ``ls``.

    ``a2`` is a^2 and ``bc2`` is b^2 + c^2.  With b = c the matrix is
    this diagonal alone, and 2 b^2 = b^2 + b^2 exactly, so the entries are
    bitwise the closed Berger eigenvalues.
    """
    if k < 0:
        raise ValueError(f"irrep label must be nonnegative, got {k}")
    return [(k - 2 * l) ** 2 * a2 + ((2 * l + 1) * k - 2 * l * l) * bc2 for l in ls]


def casimir_matrix_oracle(k: int, t: MetricTriple) -> np.ndarray:
    """Casimir matrix computed independently as -(a^2 M1^2 + b^2 M2^2 + c^2 M3^2).

    On integer-scaled inputs every intermediate is an exactly representable
    integer, so the result equals ``casimir_matrix(k, t)`` entrywise with no
    rounding at all.

    Raises:
        ImaginaryResidue: if any entry has a nonzero imaginary part.
    """
    m1, m2, m3 = generator_matrices(k)
    a2, b2, c2 = t.a * t.a, t.b * t.b, t.c * t.c
    m = -(a2 * (m1 @ m1) + b2 * (m2 @ m2) + c2 * (m3 @ m3))
    if np.max(np.abs(m.imag)) != 0.0:
        raise ImaginaryResidue(
            f"generator-built Casimir matrix is not real for k={k}, t={t.as_tuple()}"
        )
    return m.real.copy()


def symmetrize(dense: np.ndarray, k: int) -> np.ndarray:
    """Conjugate the dense Casimir matrix into an exactly symmetric one.

    Uses the diagonal d_l = sqrt(binom(k, l)).  Only square roots of the
    adjacent ratios (k-l+1)/l are ever formed, so no factorial overflows
    for large k.  Eigenvalues are unchanged.

    Raises:
        AsymmetryResidue: if max |S_ij - S_ji| > 1e-12 * max|S|.
    """
    n = k + 1
    if dense.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for k={k}")
    s = np.array(dense, dtype=float, copy=True)
    # ratio[l] = d_l / d_{l-1} = sqrt((k-l+1)/l)
    ratio = np.ones(n)
    for l in range(1, n):
        ratio[l] = math.sqrt((k - l + 1) / l)
    for l in range(2, n):
        f = ratio[l] * ratio[l - 1]  # d_l / d_{l-2}
        s[l - 2, l] = dense[l - 2, l] * f
        s[l, l - 2] = dense[l, l - 2] / f
    scale = float(np.max(np.abs(s))) or 1.0
    asym = float(np.max(np.abs(s - s.T)))
    if asym > 1e-12 * scale:
        raise AsymmetryResidue(f"symmetrization residual {asym:.3e} exceeds tolerance")
    # land exactly on a symmetric matrix for the downstream split
    return 0.5 * (s + s.T)


def tridiagonal_split(sym: np.ndarray, k: int) -> tuple[TridiagBlock, TridiagBlock]:
    """Split a distance-2-coupled symmetric matrix into two tridiagonal blocks.

    Even basis indices {0,2,...} give a block of size floor((k+2)/2), odd
    indices {1,3,...} one of size floor((k+1)/2).  The union of their
    eigenvalue multisets equals that of the input.

    Raises:
        PatternViolation: if an entry with |i-j| not in {0, 2} exceeds
            1e-12 * max|sym|.
    """
    n = k + 1
    if sym.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for k={k}")
    scale = float(np.max(np.abs(sym))) or 1.0
    mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    bad = np.abs(sym[(mask != 0) & (mask != 2)])
    if bad.size and float(bad.max()) > 1e-12 * scale:
        raise PatternViolation(
            f"entry outside the distance-2 pattern has magnitude {bad.max():.3e}"
        )

    def block(idx: np.ndarray) -> TridiagBlock:
        diag = tuple(sym[idx, idx].tolist())
        off = tuple(sym[idx[:-1], idx[1:]].tolist()) if idx.size > 1 else ()
        return TridiagBlock(diag=diag, offdiag=off)

    even = block(np.arange(0, n, 2))
    odd = block(np.arange(1, n, 2))
    return even, odd


def to_dense(block: TridiagBlock) -> np.ndarray:
    m = np.diag(block.diag)
    for i, e in enumerate(block.offdiag):
        m[i, i + 1] = e
        m[i + 1, i] = e
    return m


@dataclass(frozen=True, eq=False)
class GershgorinIntervals:
    """Per-column eigenvalue intervals [lower_j, upper_j] plus closed floors.

    ``floor`` is the global lower envelope 2k*b^2 + k^2*c^2; for odd k,
    ``odd_floor`` is the sharper a^2 + (2k-1)*b^2 + k^2*c^2.
    """

    lower: np.ndarray
    upper: np.ndarray
    floor: float
    odd_floor: float | None

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return bool(np.any((self.lower - slack <= x) & (x <= self.upper + slack)))


def gershgorin(k: int, t: MetricTriple) -> GershgorinIntervals:
    """Per-column Gershgorin intervals of the irrep-k Casimir matrix.

    For canonical triples (b >= c) the column radius is
    ((l-1)l + (k-l-1)(k-l)) * (b^2 - c^2) with zero-based l, which is
    nonnegative and self-vanishing when an index falls outside the matrix.
    Every eigenvalue lies in the union of [lower_l, upper_l], is at least
    ``floor`` = 2k b^2 + k^2 c^2, and for odd k at least ``odd_floor``.
    """
    a2, b2, c2 = t.a * t.a, t.b * t.b, t.c * t.c
    diag = np.array(_diagonal(k, a2, b2 + c2, range(k + 1)))
    l = np.arange(k + 1)
    radius = ((l - 1) * l + (k - l - 1) * (k - l)) * (b2 - c2)
    floor = 2 * k * b2 + k * k * c2
    odd_floor = a2 + (2 * k - 1) * b2 + k * k * c2 if k % 2 == 1 else None
    return GershgorinIntervals(
        lower=diag - radius, upper=diag + radius, floor=floor, odd_floor=odd_floor
    )


def sturm_counter(t: MetricTriple, g: GroupKind, x_max: float) -> Callable[[float], int]:
    """N(x), the number of eigenvalues below x <= ``x_max``, with multiplicity.

    N comes from Sturm counts, not from eigenvalues.  A Sturm count in
    floats is the exact count of a matrix within a few ulp of the given
    one (Kahan 1966; Barth, Martin & Wilkinson 1967), so N certifies a
    table of ``spectrum_up_to`` at a resolution R: an entry (v, m) holds
    iff N(v(1+R)) - N(v(1-R)) = m, and the table is complete below L iff
    N(L(1-R)) is its counting function there.

    N counts the blocks that ``spectrum_up_to`` solves, at its unit scale:
    every Wang half of ``casimir._wang_halves`` by
    ``eigensolve._sturm_count``, weighted (k+1)(1 + k%2), since an odd-k
    half stands for its mirror too.  Where the table is read off the
    closed form (two equal parameters, or a^2 past ``spectrum._DECOUPLED``
    at the unit scale, capped there as the table caps it), N counts the
    entries of ``_diagonal``, each weighted k+1.  Every block k whose
    envelope 2k b^2 + k^2 c^2 is at most ``x_max`` is counted (even k only
    for SO(3)), and no other block has an eigenvalue below ``x_max``.
    """
    h = math.frexp(t.b)[1] - 1
    a, b, c = [math.ldexp(x, -h) for x in t.as_tuple()]
    a2, bc2, off = _squares(a, b, c)
    top = math.ldexp(x_max, -2 * h)
    step = 2 if g is GroupKind.SO3 else 1
    ks = itertools.takewhile(
        lambda k: 2.0 * k * (b * b) + float(k) * k * (c * c) <= top, itertools.count(0, step)
    )
    if off is None or a2 > _DECOUPLED:
        a2 = min(a2, _DECOUPLED)
        pairs = sorted((v, k + 1) for k in ks for v in _diagonal(k, a2, bc2, range(k + 1)))
        values = [v for v, _ in pairs]
        below = list(itertools.accumulate([w for _, w in pairs], initial=0))
        return lambda x: below[bisect.bisect_left(values, math.ldexp(x, -2 * h))]
    halves = []
    for k in ks:
        weight = (k + 1) * (1 + k % 2)
        for diag, offdiag in _wang_halves(k, a2, bc2, off):
            norm = max(map(abs, diag)) + 2.0 * max(map(abs, offdiag), default=0.0)
            rows = list(zip(diag[1:], [e * e for e in offdiag]))
            halves.append((weight, diag[0], rows, _EPS * (norm or 1.0)))

    def count(x: float) -> int:
        x = math.ldexp(x, -2 * h)
        return sum([w * _sturm_count(x, d0, rows, pert) for w, d0, rows, pert in halves])

    return count


def berger_eigenvalue(k: int, j: int, a: float, b: float) -> float:
    """Closed eigenvalue a^2 (k-2j)^2 + 2 b^2 ((2j+1)k - 2j^2) of g_(a,b,b)."""
    if not 0 <= j <= k:
        raise ValueError(f"need 0 <= j <= k, got j={j}, k={k}")
    return a * a * (k - 2 * j) ** 2 + 2.0 * (b * b) * ((2 * j + 1) * k - 2 * j * j)


def low_irrep_eigenvalues(t: MetricTriple) -> dict[int, tuple[float, ...]]:
    """Closed eigenvalues of the first three irrep blocks (k = 0, 1, 2).

    k=0 gives {0}; k=1 gives a^2+b^2+c^2 twice; k=2 gives
    4(b^2+c^2), 4(a^2+c^2), 4(a^2+b^2) sorted ascending.
    """
    a2, b2, c2 = t.a * t.a, t.b * t.b, t.c * t.c
    s = a2 + (b2 + c2)
    pi2 = tuple(sorted((4.0 * (b2 + c2), 4.0 * (a2 + c2), 4.0 * (a2 + b2))))
    return {0: (0.0,), 1: (s, s), 2: pi2}


def mu_index_of(value: float, table: SpectrumTable) -> int:
    """Position of ``value`` among the distinct positive eigenvalues (1-based).

    Raises:
        NotFound: if no positive entry matches within 1e-9 * max(1, |value|).
    """
    slack = 1e-9 * max(1.0, abs(value))
    index = 0
    for entry in table.entries:
        if entry.value == 0.0:
            continue
        index += 1
        if abs(entry.value - value) <= slack:
            return index
    raise NotFound(f"no positive spectrum entry within {slack:.3e} of {value}")


def mult3_auxiliary_root(t: MetricTriple) -> float:
    """Positive root of the auxiliary polynomial that guards branch uniqueness.

    g(x) = x^6 (b^2+c^2)^2 + x^4 a^2 (b^2-c^2)^2 - b^4 c^4 (x^2 + a^2) has
    exactly one positive root, and that root lies strictly below (abc)^(1/3);
    a second quartic candidate in the stretch branch would force the volume
    below its known value.
    """
    a2, b2, c2 = t.a * t.a, t.b * t.b, t.c * t.c
    s2 = (b2 + c2) ** 2
    d2 = a2 * (b2 - c2) ** 2
    w = b2 * b2 * c2 * c2

    def gfun(x: float) -> float:
        x2 = x * x
        return ((s2 * x2 + d2) * x2 - w) * x2 - w * a2

    hi = (t.a * t.b * t.c) ** (1.0 / 3.0)
    for _ in range(200):
        if gfun(hi) > 0.0:
            break
        hi *= 2.0
    return _bisect(gfun, 0.0, hi)


def sum_eigenvalue_positions(
    a_values: tuple[float, ...] = (1.0, 5.0, 10.0, 20.0),
    b: float = 1.0,
    c: float = 1.0,
) -> list[tuple[float, int]]:
    """Position of the eigenvalue a^2+b^2+c^2 as the stretch a grows.

    For fixed b, c the value a^2+b^2+c^2 is always present in the spectrum,
    but more and more distinct eigenvalues slide below it as a increases;
    the returned positions form a nondecreasing, unbounded sequence.
    """
    out: list[tuple[float, int]] = []
    for a in a_values:
        t = normalize_triple(a, b, c)
        s = t.a * t.a + (t.b * t.b + t.c * t.c)
        table = spectrum_up_to(s, t, GroupKind.SU2)
        out.append((a, mu_index_of(s, table)))
    return out
