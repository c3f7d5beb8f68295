"""Verification-only references: nothing on the user path imports this module.

Everything here is plain Python: a matrix is a list of rows, a block a
(diagonal, off-diagonal) pair of float lists, so ``homsphere verify``
runs on the standard library, and a test that wants a dense solver
hands these lists to it itself.  ``casimir._wang_halves`` writes the
Wang halves of the two tridiagonal blocks directly; the functions here
build the full blocks and their full diagonals the long way, the only
way anything builds them, and the tests check the halves against them:
the diagonals bit for bit, the couplings, which the chain derives by
the binomial conjugation and ``casimir`` takes as one square root each,
to a few ulp:

* ``casimir_matrix`` writes the dense (k+1)x(k+1) matrix from its closed
  entrywise formula;
* ``casimir_matrix_oracle`` builds it independently from the integer
  generator matrices, and agrees bitwise on integer-scaled inputs;
* ``symmetrize`` conjugates the dense matrix by a diagonal of binomial
  square roots into a symmetric one, checking the residue;
* ``tridiagonal_split`` reorders it into even and odd indices, checking
  that nothing lies outside the distance-2 pattern, and returns the two
  blocks in the solver's form, (diagonal, off-diagonal) float lists.

``_diagonal`` writes the diagonal of the irrep-k matrix alone,
d^2 a^2 + N (b^2 + c^2) with d = k-2l and N = (2l+1)k - 2l^2, the checks'
one closed Berger formula: ``casimir_matrix`` takes its diagonal from
it, and it is the whole matrix for the squares ``casimir._squares``
gives a triple with two equal parameters, whose closed spectrum it
therefore is; ``spectrum._diagonal_runs`` reads the same floats in
sorted runs.  ``_squares`` picks the frame, (c, a, b) when
a^2 - b^2 < b^2 - c^2 (a = b > c included) and (a, b, c) otherwise, for
the solver and for ``sturm_counter`` alike, while the dense matrices
here are written in the frame (a, b, c): a test that must not share the
solver's frame gives the counter the squares of (a, b, c) itself.

``exact_count`` counts the eigenvalues of a parity block of the float
triple exactly, by integer continuants, with no solver and no rounding.

The other references: ``to_dense`` expands a block into a full matrix,
``kernel_rows`` forms a block's pivot rows and zero-pivot ``pert`` as
``eigensolve.eigenvalues`` does, for every check that counts with
``eigensolve._sturm_count``, ``gershgorin`` gives certified eigenvalue
intervals, ``sturm_counter`` counts the eigenvalues below a value
without solving for any,
``low_irrep_eigenvalues`` is a closed form the spectra are checked
against, ``mu_index_of`` looks a value up in a table, and
``sum_eigenvalue_positions`` is a diagnostic of the spectrum's ordering.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub

from .casimir import _squares, _wang_halves
from .core import (
    GroupKind,
    HomsphereError,
    MetricTriple,
    SpectrumTable,
    normalize_triple,
)
from .eigensolve import _EPS, _sturm_count
from .spectrum import _DECOUPLED, spectrum_up_to


class AsymmetryResidue(HomsphereError, ArithmeticError):
    """The symmetrized matrix failed the symmetry check."""


class PatternViolation(HomsphereError, ValueError):
    """An entry outside the expected sparsity pattern is significantly nonzero."""


class NotFound(HomsphereError, LookupError):
    """No spectrum entry matches the queried eigenvalue."""


def generator_matrices(k: int) -> tuple[list, list, list]:
    """Integer matrices m1, m2, m3 of the Lie-algebra generators on the k-th irrep.

    In the monomial basis (zero-based l), the generators act by
    M1: P_l -> (k-2l)i P_l,
    M2: P_l -> -l P_{l-1} + (k-l) P_{l+1},
    M3: P_l -> -l i P_{l-1} - (k-l) i P_{l+1},
    with terms outside 0..k dropped.  They satisfy [M1,M2] = 2 M3,
    [M3,M1] = 2 M2, [M2,M3] = 2 M1.  M1 and M3 are i times integer
    matrices, so m1 = M1/i, m2 = M2 and m3 = M3/i are returned, each a
    list of rows of ints, for which the relations read [m1,m2] = 2 m3,
    [m3,m1] = -2 m2 and [m2,m3] = 2 m1.
    """
    if k < 0:
        raise ValueError(f"irrep label must be nonnegative, got {k}")
    n = k + 1
    m1, m2, m3 = ([[0] * n for _ in range(n)] for _ in range(3))
    for l in range(n):
        m1[l][l] = k - 2 * l
        if l >= 1:
            m2[l - 1][l] = m3[l - 1][l] = -l
        if l < k:
            m2[l + 1][l] = k - l
            m3[l + 1][l] = l - k
    return m1, m2, m3


def casimir_matrix(k: int, t: MetricTriple) -> list[list[float]]:
    """Closed-form matrix of the negative Casimir operator on irrep k, a list of rows.

    Zero-based entries (column l):
      [l, l]   = (k-2l)^2 a^2 + ((2l+1)k - 2l^2)(b^2 + c^2), from ``_diagonal``
      [l-2, l] = l(l-1) (c^2 - b^2)
      [l, l-2] = (k-l+2)(k-l+1) (c^2 - b^2)
    and zero elsewhere.  The off-diagonal sign matches the generator
    product M2^2, M3^2 (see ``casimir_matrix_oracle``); flipping it is a
    similarity that leaves every eigenvalue unchanged.
    """
    a2, b2, c2 = t.a * t.a, t.b * t.b, t.c * t.c
    off = c2 - b2
    m = [[0.0] * (k + 1) for _ in range(k + 1)]
    for l, d in enumerate(_diagonal(k, a2, b2 + c2, range(k + 1))):
        m[l][l] = d
        if l >= 2:
            m[l - 2][l] = l * (l - 1) * off
            m[l][l - 2] = (k - l + 2) * (k - l + 1) * off
    return m


def _diagonal(k: int, a2: float, bc2: float, ls: range) -> list[float]:
    """Diagonal (k-2l)^2 a2 + ((2l+1)k - 2l^2) bc2 of the irrep-k matrix, l in ``ls``.

    ``a2`` is a^2 and ``bc2`` is b^2 + c^2.  With b = c the matrix is
    this diagonal alone, so the entries are the closed eigenvalues of
    (a, b, b); ``casimir_matrix`` takes its diagonal from here, and
    acceptance criterion 2 checks it against the generator construction.
    """
    if k < 0:
        raise ValueError(f"irrep label must be nonnegative, got {k}")
    return [(k - 2 * l) ** 2 * a2 + ((2 * l + 1) * k - 2 * l * l) * bc2 for l in ls]


def casimir_matrix_oracle(k: int, t: MetricTriple) -> list[list[float]]:
    """Casimir matrix computed independently as -(a^2 M1^2 + b^2 M2^2 + c^2 M3^2).

    With M1 = i m1 and M3 = i m3 for the integer matrices of
    ``generator_matrices``, i^2 = -1 makes this a^2 m1^2 - b^2 m2^2 +
    c^2 m3^2, whose three squares are exact integer matrices.  On
    integer-scaled inputs every entry is then an exactly representable
    integer, so the result equals ``casimir_matrix(k, t)`` entrywise with
    no rounding at all.
    """
    a2, b2, c2 = t.a * t.a, t.b * t.b, t.c * t.c
    squares = [[[sum(map(mul, row, col)) for col in zip(*m)] for row in m]
               for m in generator_matrices(k)]
    return [[a2 * x - b2 * y + c2 * z for x, y, z in zip(*rows)] for rows in zip(*squares)]


def _order(m: list, k: int) -> int:
    """k + 1, the order of a matrix of irrep k, which ``m`` must have."""
    n = k + 1
    if len(m) != n or any(len(row) != n for row in m):
        raise ValueError(f"expected a {n}x{n} matrix for k={k}")
    return n


def symmetrize(dense: list[list[float]], k: int) -> list[list[float]]:
    """Conjugate the dense Casimir matrix into an exactly symmetric one.

    Uses the diagonal d_l = sqrt(binom(k, l)).  Only square roots of the
    adjacent ratios (k-l+1)/l are ever formed, so no factorial overflows
    for large k.  Eigenvalues are unchanged.

    Raises:
        AsymmetryResidue: if max |S_ij - S_ji| > 1e-12 * max|S|.
    """
    n = _order(dense, k)
    s = [list(map(float, row)) for row in dense]
    # ratio[l] = d_l / d_{l-1} = sqrt((k-l+1)/l)
    ratio = [1.0] + [math.sqrt((k - l + 1) / l) for l in range(1, n)]
    for l in range(2, n):
        f = ratio[l] * ratio[l - 1]  # d_l / d_{l-2}
        s[l - 2][l] *= f
        s[l][l - 2] /= f
    pairs = [list(zip(row, col)) for row, col in zip(s, zip(*s))]
    scale = max([abs(x) for row in s for x in row]) or 1.0
    asym = max([abs(x - y) for row in pairs for x, y in row])
    if asym > 1e-12 * scale:
        raise AsymmetryResidue(f"symmetrization residual {asym:.3e} exceeds tolerance")
    # land exactly on a symmetric matrix for the downstream split
    return [[0.5 * (x + y) for x, y in row] for row in pairs]


def tridiagonal_split(sym: list[list[float]], k: int) -> tuple[tuple, tuple]:
    """Split a distance-2-coupled symmetric matrix into two tridiagonal blocks.

    Even basis indices {0,2,...} give a block of size floor((k+2)/2), odd
    indices {1,3,...} one of size floor((k+1)/2), each as the
    (diagonal, off-diagonal) float lists of ``casimir._wang_halves``.  The
    union of their eigenvalue multisets equals that of the input.

    Raises:
        PatternViolation: if an entry with |i-j| not in {0, 2} exceeds
            1e-12 * max|sym|.
    """
    n = _order(sym, k)
    scale = max([abs(x) for row in sym for x in row]) or 1.0
    bad = max([abs(x) for i, row in enumerate(sym) for j, x in enumerate(row)
               if abs(i - j) not in (0, 2)], default=0.0)
    if bad > 1e-12 * scale:
        raise PatternViolation(f"entry outside the distance-2 pattern has magnitude {bad:.3e}")

    def block(idx: range) -> tuple[list, list]:
        return [sym[i][i] for i in idx], [sym[i][j] for i, j in zip(idx, idx[1:])]

    return block(range(0, n, 2)), block(range(1, n, 2))


def to_dense(diag: list[float], offdiag: list[float]) -> list[list[float]]:
    """The block (``diag``, ``offdiag``) as a full symmetric matrix, a list of rows."""
    m = [[0.0] * len(diag) for _ in diag]
    for i, d in enumerate(diag):
        m[i][i] = d
    for i, e in enumerate(offdiag):
        m[i][i + 1] = m[i + 1][i] = e
    return m


def kernel_rows(diag: list[float], offdiag: list[float]) -> tuple[float, list, float]:
    """(d0, rows, pert) of a block, as ``eigensolve.eigenvalues`` forms them.

    ``rows`` holds the pairs (d_i, e_{i-1}^2) for i >= 1 and ``pert``, the
    value that replaces a zero pivot, is eps * (norm or 1), norm being the
    largest |d_i| + (|e_{i-1}| + |e_i|) over the rows: the arguments
    ``eigensolve._sturm_count`` and ``eigensolve._newton`` take.  A 1-row
    block is allowed.  The checks take these from here, so that they
    count exactly as the kernel does.
    """
    absoff = [abs(e) for e in offdiag]
    radius = [left + right for left, right in zip((0.0, *absoff), (*absoff, 0.0))]
    norm = max([abs(d) + r for d, r in zip(diag, radius)])
    return diag[0], list(zip(diag[1:], [e * e for e in offdiag])), _EPS * (norm or 1.0)


@dataclass(frozen=True, eq=False)
class GershgorinIntervals:
    """Per-column eigenvalue intervals [lower_j, upper_j] plus closed floors.

    ``floor`` is the global lower envelope 2k*b^2 + k^2*c^2; for odd k,
    ``odd_floor`` is the sharper a^2 + (2k-1)*b^2 + k^2*c^2.
    """

    lower: list[float]
    upper: list[float]
    floor: float
    odd_floor: float | None


def gershgorin(k: int, t: MetricTriple) -> GershgorinIntervals:
    """Per-column Gershgorin intervals of the irrep-k Casimir matrix.

    For canonical triples (b >= c) the column radius is
    ((l-1)l + (k-l-1)(k-l)) * (b^2 - c^2) with zero-based l, which is
    nonnegative and self-vanishing when an index falls outside the matrix.
    Every eigenvalue lies in the union of [lower_l, upper_l], is at least
    ``floor`` = 2k b^2 + k^2 c^2, and for odd k at least ``odd_floor``.
    The largest ``upper`` is the largest column sum of |entries|, a norm
    of the matrix.
    """
    a2, b2, c2 = t.a * t.a, t.b * t.b, t.c * t.c
    diag = _diagonal(k, a2, b2 + c2, range(k + 1))
    radius = [((l - 1) * l + (k - l - 1) * (k - l)) * (b2 - c2) for l in range(k + 1)]
    floor = 2 * k * b2 + k * k * c2
    odd_floor = a2 + (2 * k - 1) * b2 + k * k * c2 if k % 2 == 1 else None
    return GershgorinIntervals(
        lower=list(map(sub, diag, radius)), upper=list(map(add, diag, radius)),
        floor=floor, odd_floor=odd_floor,
    )


@functools.lru_cache(maxsize=64)
def _exact_block(k: int, t: MetricTriple, parity: int) -> tuple[int, list]:
    """(D, rows) of a parity block: D d_i and D^2 e_{i-1}^2 as exact ints, for ``exact_count``."""
    a2, b2, c2 = [Fraction(x) ** 2 for x in t.as_tuple()]
    scale = math.lcm(a2.denominator, b2.denominator, c2.denominator)
    a2, bc2, off = int(a2 * scale), int((b2 + c2) * scale), int((c2 - b2) * scale)
    return scale, [
        ((k - 2 * l) ** 2 * a2 + ((2 * l + 1) * k - 2 * l * l) * bc2,
         l * (l - 1) * (k - l + 2) * (k - l + 1) * off * off)
        for l in range(parity, k + 1, 2)
    ]


def exact_count(k: int, t: MetricTriple, parity: int, x: float, inclusive: bool = False) -> int:
    """Exact number of eigenvalues of a parity block below ``x``, or at or below it.

    The block holds the basis indices l = ``parity``, ``parity`` + 2, ...
    of irrep k, in the frame (a, b, c) of ``t``, exactly as the float
    triple gives it.  Its characteristic polynomial depends on the
    diagonal d_i = (k-2l)^2 a^2 + ((2l+1)k - 2l^2)(b^2 + c^2) and on
    e^2 = l(l-1)(k-l+2)(k-l+1)(c^2 - b^2)^2, the product of the two
    couplings of l-2 and l, and so has rational coefficients, floats
    being dyadic.  With D the common denominator of a^2, b^2 and c^2 and
    D x = q/r in lowest terms, the continuants
    P_i = (r D d_i - q) P_{i-1} - r^2 D^2 e_{i-1}^2 P_{i-2}, from P_0 = 1
    and P_{-1} = 0, are (rD)^i times the leading principal minors of
    T - x: exact integers, whose sign changes count the eigenvalues below
    x (Sturm 1835; Barth, Martin & Wilkinson 1967).  A zero P_i is taken
    as a pivot P_i / P_{i-1} of +0, its limit from below x, so that an
    eigenvalue equal to x is not below it; with ``inclusive`` as -0, its
    limit from above, so that it is counted.  A zero coupling (b = c)
    splits the block, and the sequence starts again below it.
    """
    scale, rows = _exact_block(k, t, parity)
    q, r = (Fraction(x) * scale).as_integer_ratio()
    count = 0
    for d, e2 in rows:
        if not e2:  # the first row has no coupling either: this starts the sequence
            prev2, prev, sign = 0, 1, 1
        p = (r * d - q) * prev - r * r * e2 * prev2
        new = (p > 0) - (p < 0) or (-sign if inclusive else sign)  # a zero's sign, as above
        count += new != sign
        prev2, prev, sign = prev, p, new
    return count


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
    ``eigensolve._sturm_count``, with the rows and the zero-pivot ``pert``
    of ``kernel_rows``, so each half is counted as the kernel counts it,
    weighted (k+1)(1 + k%2), since an odd-k half stands for its mirror
    too.  Where the table is read off the closed form (two equal
    parameters, or a^2 past ``spectrum._DECOUPLED`` at the unit scale,
    capped there as the table caps it), N counts the entries of
    ``_diagonal``, each weighted k+1.  Every block k whose
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
        halves += [(weight, *kernel_rows(*half)) for half in _wang_halves(k, a2, bc2, off)]

    def count(x: float) -> int:
        x = math.ldexp(x, -2 * h)
        return sum([w * _sturm_count(x, d0, rows, pert) for w, d0, rows, pert in halves])

    return count


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

    The match is relative, as in ``isospectral_check``, so the index does
    not depend on the metric's scale.

    Raises:
        NotFound: if no positive entry matches within 1e-9 * |value|.
    """
    slack = 1e-9 * abs(value)
    # a table opens with its one zero value, (0, 1)
    for index, entry in enumerate(table.values[1:], 1):
        if abs(entry - value) <= slack:
            return index
    raise NotFound(f"no positive spectrum entry within {slack:.3e} of {value}")


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
