"""Self-contained acceptance suite; every check prints one pass/fail line.

Each criterion function is deterministic (fixed seeds), returns a
CriterionResult, and is runnable both from the test suite and from the
``verify`` CLI subcommand.  Tolerances are pinned here and nowhere else.
The samples come from ``random.Random``, and the references are the
plain-Python ones of ``homsphere.oracle``, so the suite runs on the
standard library alone.

``run_all`` runs each criterion under a guard: one that raises (a faulty
library can make a check index past a short table, say) becomes a FAIL
line for its position in ``ALL_CRITERIA``, titled with the function's
name and with ``raised <Type>: <message>`` as its detail, so ``verify``
reports it and exits 1 instead of ending in a traceback.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

from .casimir import _squares, _wang_halves
from .core import GroupKind, MetricTriple, normalize_triple
from .eigensolve import _EPS, TOL, _sturm_count, eigen_block
from .geometry import (
    SO3_PRODUCT_CAP,
    SU2_PRODUCT_CAP,
    ProductSpec,
    berger_lambda1_diam2_extrema,
    diameter,
    lambda1_diam2,
    product_cap,
    product_estimate,
    scalar_curvature,
    volume,
    yamabe_gap,
)
from .oracle import (
    _diagonal,
    casimir_matrix,
    casimir_matrix_oracle,
    exact_count,
    gershgorin,
    kernel_rows,
    mu_index_of,
)
from .rigidity import IsospectralVerdict, invariants, isospectral_check, recover_triple
from .spectrum import lambda1_closed, spectrum_up_to

PI2 = math.pi**2


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    title: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.cid:2d}  {self.title}: {self.detail}"


def _random_triples(rng: random.Random, n: int) -> list[MetricTriple]:
    """Canonical triples with components log-uniform in [0.1, 10]."""
    return [MetricTriple(*[10.0 ** rng.uniform(-1.0, 1.0) for _ in range(3)]) for _ in range(n)]


def _pinned_boundary_triples(rng: random.Random, n: int) -> list[MetricTriple]:
    """Triples with a^2 + b^2 + c^2 == 4(b^2 + c^2) holding exactly in floats.

    b and c are drawn from a dyadic grid so that b^2 + c^2 and its triple
    are exact; a = sqrt(3(b^2+c^2)) is kept only when squaring returns the
    exact product, which makes the two closed formulas tie bit-for-bit.
    """
    out: list[MetricTriple] = []
    while len(out) < n:
        e = rng.randrange(-2, 3)
        b = rng.randrange(1 << 19, 1 << 20) * 2.0 ** (e - 20)
        c = rng.randrange(1 << 19, 1 << 20) * 2.0 ** (e - 20)
        if b < c:
            b, c = c, b
        bc2 = b * b + c * c
        a = math.sqrt(3.0 * bc2)
        if a * a + bc2 == 4.0 * bc2:
            out.append(MetricTriple(a, b, c))
    return out


def _round_triples(rng: random.Random, n: int) -> list[MetricTriple]:
    return [MetricTriple(*[10.0 ** rng.uniform(-1.0, 1.0)] * 3) for _ in range(n)]


def _berger_ab_triples(rng: random.Random, n: int) -> list[MetricTriple]:
    bs = (10.0 ** rng.uniform(-1.0, 1.0) for _ in range(n))  # each b drawn before its c
    return [MetricTriple(b, b, b * 10.0 ** rng.uniform(-1.0, -0.05)) for b in bs]


def _berger_bc_triples(rng: random.Random, n: int) -> list[MetricTriple]:
    bs = (10.0 ** rng.uniform(-1.0, 1.0) for _ in range(n))  # each b drawn before its a
    return [MetricTriple(b * 10.0 ** rng.uniform(0.05, 1.0), b, b) for b in bs]


@functools.lru_cache(maxsize=None)
def _lambda1_samples(group: GroupKind) -> tuple[MetricTriple, ...]:
    """The 1000-triple sample set per group: 950 random plus 50 boundary-pinned."""
    seed = 20260811 if group is GroupKind.SU2 else 20260812
    rng = random.Random(seed)
    return tuple(_random_triples(rng, 950) + _pinned_boundary_triples(rng, 50))


@functools.lru_cache(maxsize=None)
def _rigidity_samples(group: GroupKind) -> tuple[MetricTriple, ...]:
    """1000 triples per group covering every lowest-eigenvalue multiplicity."""
    rng = random.Random(911 if group is GroupKind.SU2 else 912)
    triples = _random_triples(rng, 900)
    if group is GroupKind.SU2:
        triples += _pinned_boundary_triples(rng, 50)
        triples += _berger_bc_triples(rng, 25)
        triples += _round_triples(rng, 25)
    else:
        triples += _berger_ab_triples(rng, 50)
        triples += _round_triples(rng, 50)
    return tuple(triples)


def criterion_1() -> CriterionResult:
    """Closed-form lowest eigenvalue vs the numeric truncated spectrum."""
    worst = 0.0
    bad = 0
    pinned_mult7 = 0
    for group in GroupKind:
        samples = _lambda1_samples(group)
        for i, t in enumerate(samples):
            closed = lambda1_closed(t, group)
            table = spectrum_up_to(1.1 * closed.value, t, group)
            first, mult = table.values[1], table.multiplicities[1]
            rel = abs(first - closed.value) / closed.value
            worst = max(worst, rel)
            if rel > 1e-9 or mult != closed.multiplicity:
                bad += 1
            if group is GroupKind.SU2 and i >= 950 and closed.multiplicity == 7:
                pinned_mult7 += 1
    passed = bad == 0 and pinned_mult7 == 50
    return CriterionResult(
        1,
        "closed-form lambda1 matches truncated spectra (value and multiplicity)",
        passed,
        f"2000 triples, worst rel err {worst:.2e}, "
        f"{pinned_mult7}/50 pinned boundary triples with multiplicity 7",
    )


def criterion_2() -> CriterionResult:
    """Entrywise equality of the closed Casimir matrix and the generator oracle."""
    triples = [(1, 1, 1), (2, 1, 1), (3, 2, 1), (5, 3, 2), (4, 4, 1), (7, 5, 3), (9, 4, 2)]
    checked, mismatch = 0, ""
    for abc in triples:
        t = MetricTriple(*map(float, abc))
        for k in range(21):
            if casimir_matrix(k, t) == casimir_matrix_oracle(k, t):
                checked += 1
            elif not mismatch:
                mismatch = f"mismatch at k={k}, triple={abc}"
    return CriterionResult(
        2,
        "Casimir matrix equals its generator oracle entrywise",
        not mismatch,
        mismatch or f"{checked} (k, triple) pairs bitwise equal for k <= 20",
    )


def criterion_3() -> CriterionResult:
    """Certified lower bounds and interval containment for block eigenvalues.

    No eigenvalue of irrep k may lie below either floor, below the union
    of the intervals, above it, or in a gap between its parts, each end
    moved outward by the slack 1e-9 (1 + |x|).  The eigenvalues are
    counted, not solved for: N(x), the number below x, sums
    ``eigensolve._sturm_count`` over the Wang halves of the triple as
    given, from its own squares (no frame choice, no diagonal shortcut),
    with the rows and ``pert`` of ``oracle.kernel_rows``, an odd-k half
    weighted 2 for its mirror.  N must be 0 at each floor and at the
    union's lower end, k + 1 at its upper end, and the same at the two
    ends of every gap.
    """
    violations = checked = 0
    for t in _random_triples(random.Random(33), 100):
        a2, b2, c2 = t.a * t.a, t.b * t.b, t.c * t.c
        for k in range(1, 51):
            halves = [kernel_rows(*half) for half in _wang_halves(k, a2, b2 + c2, c2 - b2)]

            def below(x: float) -> int:
                return (1 + k % 2) * sum([_sturm_count(x, *half) for half in halves])

            g = gershgorin(k, t)
            parts: list[list[float]] = []  # the union of the widened intervals
            for lo, hi in sorted(zip(g.lower, g.upper)):
                lo, hi = lo - 1e-9 * (1.0 + abs(lo)), hi + 1e-9 * (1.0 + abs(hi))
                if parts and lo <= parts[-1][1]:
                    parts[-1][1] = max(parts[-1][1], hi)
                else:
                    parts.append([lo, hi])
            floors = [f - 1e-9 * (1.0 + abs(f)) for f in (g.floor, g.odd_floor) if f is not None]
            ends = [0, *[below(x) for part in parts for x in part], k + 1]
            checked += len(floors) + len(ends) - 2
            violations += any(map(below, floors)) + (ends[0::2] != ends[1::2])
    return CriterionResult(
        3,
        "Gershgorin floors and interval union contain every block eigenvalue",
        violations == 0,
        f"{checked} Sturm counts over k <= 50 on 100 triples, {violations} violations",
    )


def criterion_4() -> CriterionResult:
    """Solved block eigenvalues against exact counts of the full parity blocks.

    The solver's values are written in the frame ``casimir._squares``
    picks, of (c, a, b) when a^2 - b^2 < b^2 - c^2 and of (a, b, c)
    otherwise; where two parameters are equal they are the diagonal of
    that frame, (c, a, b) when a = b > c.  An odd block's value stands
    for its Wang mirror pair, so it is taken twice.  Each value v opens a
    window v +- (TOL max(1, |v|) + 8 eps |T|), |T| the largest column sum
    of the dense matrix's |entries|, and ``oracle.exact_count`` must find
    in it, over both parity blocks of the triple in the frame (a, b, c),
    exactly as many eigenvalues as there are solved values.
    """
    samples = _random_triples(random.Random(44), 5) + [
        MetricTriple(1.0, 1.0, 1.0),
        MetricTriple(2.0, 1.0, 1.0),
        MetricTriple(1.9, 1.3, 1.3),
        MetricTriple(1.3, 1.3, 0.6),
    ]
    windows = misses = 0
    for t in samples:
        a2, bc2, off = _squares(t.a, t.b, t.c)
        for k in range(13):
            if off is None:
                solved = sorted(_diagonal(k, a2, bc2, range(k + 1)))
            else:
                solved = [v for v in eigen_block(k, a2, bc2, off) for _ in range(1 + k % 2)]
            misses += len(solved) != k + 1
            norm = max(gershgorin(k, t).upper)
            for v in solved:
                width = TOL * max(1.0, abs(v)) + 8.0 * _EPS * norm
                lo, hi = v - width, v + width
                exact = sum(exact_count(k, t, p, hi, inclusive=True) - exact_count(k, t, p, lo)
                            for p in (0, 1))
                windows += 1
                misses += exact != sum(lo <= u <= hi for u in solved)
    return CriterionResult(
        4,
        "irrep block eigenvalues match exact counts on the full blocks (k <= 12)",
        misses == 0,
        f"{windows} windows of TOL max(1, |v|) + 8 eps |T|, {misses} misses",
    )


def _closed_berger_rows(
    lam_max: float, a: float, b: float, group: GroupKind
) -> list[tuple[float, int, tuple[int, ...]]]:
    """(value, multiplicity, k_sources) of the (a, b, b) spectrum up to lam_max.

    Built from the closed formula ``oracle._diagonal`` alone, on a^2 and
    b^2 + b^2 as given.  Values within 1e-12 relative are one eigenvalue,
    represented by the smallest: they differ only by the rounding of the
    closed formula (at (1.3, 1.3, 1.3), k = 4 gives both 25.35 and
    25.350000000000005).
    """
    # block k has no value below min(a, b)^2 k(k+2); the factor 2 covers rounding
    floor = min(a, b) ** 2
    contributions = []
    k = 0
    while floor * k * (k + 2) <= 2.0 * lam_max:
        contributions += [(v, k + 1, k) for v in _diagonal(k, a * a, b * b + b * b, range(k + 1))]
        k += 2 if group is GroupKind.SO3 else 1
    rows: list[list] = []  # [value, multiplicity, k_sources]
    for value, mult, k in sorted(c for c in contributions if c[0] <= lam_max):
        if rows and value - rows[-1][0] <= 1e-12 * rows[-1][0]:
            rows[-1][1] += mult
            rows[-1][2].add(k)
        else:
            rows.append([value, mult, {k}])
    return [(value, mult, tuple(sorted(ks))) for value, mult, ks in rows]


def criterion_5() -> CriterionResult:
    """Two-equal-parameter spectra against their closed form, and the round law."""
    lam_max = 60.0
    detail = []
    ok = True
    # every two-equal-parameter triple has diagonal blocks (a < b included):
    # values must be the closed ones bit for bit, with the same multiplicities
    # and k_sources
    for a, b in [(2.0, 1.0), (1.0, 1.0), (3.7, 0.9), (1.3, 1.3), (0.5, 1.3)]:
        for group in GroupKind:
            table = spectrum_up_to(lam_max, normalize_triple(a, b, b), group)
            got = list(zip(table.values, table.multiplicities, table.k_sources))
            if got != _closed_berger_rows(lam_max, a, b, group):
                ok = False
                detail.append(f"mismatch at (a,b)=({a},{b}) {group.value}")
    # round case: eigenvalues k(k+2) with multiplicity (k+1)^2
    round_table = spectrum_up_to(99.0, normalize_triple(1.0, 1.0, 1.0), GroupKind.SU2)
    expect = [(float(k * (k + 2)), (k + 1) ** 2) for k in range(10)]
    if list(zip(round_table.values, round_table.multiplicities)) != expect:
        ok = False
        detail.append("round spectrum mismatch")
    so3_round = spectrum_up_to(99.0, normalize_triple(1.0, 1.0, 1.0), GroupKind.SO3)
    expect_so3 = [(float(k * (k + 2)), (k + 1) ** 2) for k in range(0, 10, 2)]
    if list(zip(so3_round.values, so3_round.multiplicities)) != expect_so3:
        ok = False
        detail.append("even-k round spectrum mismatch")
    return CriterionResult(
        5,
        "closed-form b=c spectra match the numeric pipeline and the round law",
        ok,
        "; ".join(detail) if detail else "exact table equality plus round k(k+2) law",
    )


def criterion_6() -> CriterionResult:
    """4(b^2+c^2) is always the first or second distinct positive eigenvalue."""
    bad = 0
    for t in _lambda1_samples(GroupKind.SU2):
        f = 4.0 * (t.b * t.b + t.c * t.c)
        table = spectrum_up_to(f * 1.000001, t, GroupKind.SU2)
        if mu_index_of(f, table) not in (1, 2):
            bad += 1
    return CriterionResult(
        6,
        "4(b^2+c^2) sits at distinct-eigenvalue position 1 or 2",
        bad == 0,
        f"1000 triples, {bad} out of place",
    )


def criterion_7() -> CriterionResult:
    """Diameter-based estimates: round value, closed-form extrema, global ranges.

    A plain scan of 4,000 points on each two-equal-parameter family checks
    that no sample lies beyond the closed-form extrema.
    """
    problems = []

    lo, hi = lambda1_diam2(MetricTriple(1.0, 1.0, 1.0), GroupKind.SU2)
    if not (lo == hi and abs(lo - 3.0 * PI2) <= 1e-12 * 3.0 * PI2):
        problems.append(f"round product {lo} != 3 pi^2")

    report = berger_lambda1_diam2_extrema()
    target_min = (1.0 + math.sqrt(3.0) / 2.0) * PI2
    if abs(report.min_value - target_min) > 1e-9 * target_min:
        problems.append(f"extrema min {report.min_value} vs {target_min}")
    if abs(report.max_value - 3.0 * PI2) > 1e-9 * 3.0 * PI2:
        problems.append(f"extrema max {report.max_value} vs {3.0 * PI2}")
    idx = range(4000)
    scan = [MetricTriple(1.0, 1.0, 0.02 + (1.0 - 0.02) * i / 3999) for i in idx]
    scan += [MetricTriple(1.0 + (12.0 - 1.0) * i / 3999, 1.0, 1.0) for i in idx]
    beyond = sum(
        not (
            report.min_value * (1.0 - 1e-12)
            <= lambda1_diam2(t, GroupKind.SU2)[0]
            <= report.max_value * (1.0 + 1e-12)
        )
        for t in scan
    )
    if beyond:
        problems.append(f"{beyond} of {len(scan)} scan samples beyond the extrema")

    viol = 0
    for group in GroupKind:
        cap = SU2_PRODUCT_CAP if group is GroupKind.SU2 else SO3_PRODUCT_CAP
        for t in _lambda1_samples(group):
            p_lo, p_hi = lambda1_diam2(t, group)
            if not (p_lo > PI2 and p_hi <= cap * (1.0 + 1e-12)):
                viol += 1
            d = diameter(t, group)
            lam = lambda1_closed(t, group).value
            b = t.b
            if group is GroupKind.SU2:
                if not (d.lower > math.pi / (2 * b) and d.upper <= math.pi / b * (1 + 1e-12)):
                    viol += 1
                if not (2 * b * b < lam <= 8 * b * b * (1 + 1e-12)):
                    viol += 1
            else:
                if not (
                    d.lower >= math.pi / (2 * b) * (1 - 1e-12)
                    and d.upper < math.sqrt(3.0) * math.pi / (2 * b)
                ):
                    viol += 1
                if not (4 * b * b < lam <= 8 * b * b * (1 + 1e-12)):
                    viol += 1
    if viol:
        problems.append(f"{viol} bound violations over 2000 triples")
    return CriterionResult(
        7,
        "lambda1*diam^2 ranges, closed-form extrema, and diameter/lambda1 bounds",
        not problems,
        "; ".join(problems) if problems else
        f"round = 3 pi^2, extrema within 1e-9 and unbeaten on {len(scan)} samples, "
        "0 violations on 2000 triples",
    )


def criterion_8() -> CriterionResult:
    """Products of round spheres: lambda1 * diam^2 exactly 3 n pi^2."""
    ok = True
    details = []
    for n in range(1, 6):
        spec = ProductSpec(su2_factors=tuple(MetricTriple(1.0, 1.0, 1.0) for _ in range(n)))
        est = product_estimate(spec)
        expected = 3.0 * n * PI2
        exact = est.product_lower == expected and est.product_upper == expected
        inside = PI2 < est.product_lower and est.product_upper <= product_cap(n, 0)
        if not (exact and inside):
            ok = False
            details.append(f"n={n}: got [{est.product_lower}, {est.product_upper}]")
    return CriterionResult(
        8,
        "n-fold round products give exactly 3n pi^2 inside (pi^2, (8m+6n) pi^2]",
        ok,
        "; ".join(details) if details else "exact for n = 1..5",
    )


def criterion_9() -> CriterionResult:
    """Invariant round-trip identity and the isospectrality comparator."""
    worst = 0.0
    bad = 0
    for group in GroupKind:
        for t in _rigidity_samples(group):
            rec = recover_triple(invariants(t, group), group)
            rel = max(
                abs(x - y) / y for x, y in zip(rec.as_tuple(), t.as_tuple())
            )
            worst = max(worst, rel)
            if rel > 1e-8:
                bad += 1

    rng = random.Random(99)
    pair_bad = 0
    for i in range(200):
        group = GroupKind.SU2 if i % 2 == 0 else GroupKind.SO3
        t1 = _random_triples(rng, 1)[0]
        if i < 100:
            t2 = MetricTriple(*t1.as_tuple())
            expect_isometric = True
        else:
            t2 = _random_triples(rng, 1)[0]
            expect_isometric = False
        lam_max = 1.2 * max(
            lambda1_closed(t1, group).value, lambda1_closed(t2, group).value
        )
        verdict = isospectral_check(t1, t2, group, lam_max).verdict
        if expect_isometric and verdict is not IsospectralVerdict.ISOMETRIC:
            pair_bad += 1
        if not expect_isometric and verdict is IsospectralVerdict.ISOMETRIC:
            pair_bad += 1
    passed = bad == 0 and pair_bad == 0
    return CriterionResult(
        9,
        "recover(invariants(t)) = t and isometry verdicts on 200 pairs",
        passed,
        f"2000 round-trips, worst rel err {worst:.2e}; {pair_bad} wrong verdicts",
    )


def criterion_10() -> CriterionResult:
    """Positivity of lambda1 - Scal/2, with equality exactly at round metrics."""
    problems = 0
    for t in _round_triples(random.Random(1010), 20):
        if abs(yamabe_gap(t, GroupKind.SU2)) >= 1e-12:
            problems += 1
    for t in _lambda1_samples(GroupKind.SU2):
        gap = yamabe_gap(t, GroupKind.SU2)
        if gap < 0.0 or gap <= 1e-6 * scalar_curvature(t):
            problems += 1
    for t in _lambda1_samples(GroupKind.SO3):
        if yamabe_gap(t, GroupKind.SO3) <= 0.0:
            problems += 1
    return CriterionResult(
        10,
        "lambda1 - Scal/2 >= 0 on SU(2) (zero iff round), > 0 on SO(3)",
        problems == 0,
        f"{problems} violations over 2020 checks",
    )


def criterion_11() -> CriterionResult:
    """Eigenvalue counting on the unit round sphere against the volume law."""
    lam = 4000.0
    t = MetricTriple(1.0, 1.0, 1.0)
    table = spectrum_up_to(lam, t, GroupKind.SU2)
    count = table.counting_function(lam)
    predicted = volume(t, GroupKind.SU2) * lam**1.5 / (6.0 * PI2)
    rel = abs(count - predicted) / predicted
    return CriterionResult(
        11,
        "counting function at 4000 matches vol * L^(3/2) / (6 pi^2) within 5%",
        rel <= 0.05,
        f"counted {count}, predicted {predicted:.1f}, rel dev {rel:.3%}",
    )


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def _run(cid: int, criterion) -> CriterionResult:
    """``criterion()``, or a FAIL numbered ``cid`` and named by the function
    if it raises, with the exception's type and message as its detail."""
    try:
        return criterion()
    except Exception as exc:
        return CriterionResult(
            cid, criterion.__name__, False, f"raised {type(exc).__name__}: {exc}"
        )


def run_all() -> list[CriterionResult]:
    return [_run(cid, criterion) for cid, criterion in enumerate(ALL_CRITERIA, start=1)]
