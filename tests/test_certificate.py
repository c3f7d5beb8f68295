"""Sturm-count certificates of whole tables: every multiplicity, and completeness.

``oracle.sturm_counter`` counts the eigenvalues below x from the same
Wang halves the solver reads, without solving for any.  At the resolution
R the table was clustered at, each entry (v, m) must hold exactly the m
eigenvalues counted in [v(1-R), v(1+R)], and the table must hold every
eigenvalue counted below L(1-R).  The triples are seeded and generic,
near-prolate (b ~ c < a) and near-oblate (a ~ b > c), where values of
different blocks and halves lie close together.
"""

import math
import random

import numpy as np
import pytest

from homsphere.core import GroupKind, normalize_triple
from homsphere.oracle import casimir_matrix, sturm_counter
from homsphere.spectrum import DEFAULT_CLUSTER_TOL, spectrum_up_to

# the counts check the merges that ClusterMergeWarning reports
pytestmark = pytest.mark.filterwarnings("ignore::homsphere.spectrum.ClusterMergeWarning")

R = DEFAULT_CLUSTER_TOL
# blocks per table: SO(3) solves only even k, so it gets more
BLOCKS = {GroupKind.SU2: 36, GroupKind.SO3: 48}
TABLES_PER_SHAPE = 2


def _loguniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _triple(rng, shape):
    s = _loguniform(rng, 0.3, 3.0)
    if shape == "near_prolate":
        return (s * _loguniform(rng, 1.3, 3.0), s, s * (1.0 - _loguniform(rng, 1e-3, 1e-1)))
    if shape == "near_oblate":
        return (s, s * (1.0 - _loguniform(rng, 1e-3, 1e-1)), s * _loguniform(rng, 0.3, 0.8))
    return tuple(s * _loguniform(rng, 0.1, 10.0) for _ in range(3))


def _cases():
    rng = random.Random(2028)
    cases = []
    for g, blocks in BLOCKS.items():
        for shape in ("generic", "near_prolate", "near_oblate"):
            for i in range(TABLES_PER_SHAPE):
                t = normalize_triple(*_triple(rng, shape))
                # halfway between the envelopes of the last block and the next
                envelope = [2.0 * k * t.b**2 + float(k) * k * t.c**2 for k in (blocks, blocks + 1)]
                cases.append(pytest.param(t, g, sum(envelope) / 2, id=f"{g.value}-{shape}-{i}"))
    return cases


@pytest.mark.parametrize("g", GroupKind)
def test_counts_match_the_dense_matrices(g):
    # each irrep k contributes its eigenvalues k+1 times
    t = normalize_triple(1.7, 1.2, 0.8)
    dense = np.concatenate([
        np.repeat(np.linalg.eigvals(casimir_matrix(k, t)).real, k + 1)
        for k in range(0, 13, 2 if g is GroupKind.SO3 else 1)
    ])
    count = sturm_counter(t, g, 60.0)
    for x in (0.5, 5.0, 9.0, 17.3, 30.0, 45.5, 60.0):
        assert count(x) == np.count_nonzero(dense < x)


@pytest.mark.parametrize("t, g, lam", _cases())
def test_sturm_counts_certify_every_multiplicity_and_completeness(t, g, lam):
    table = spectrum_up_to(lam, t, g)
    count = sturm_counter(t, g, lam * (1.0 + R))
    (_, one), (lambda1, _) = table.entries[:2]
    assert count(lambda1 * (1.0 - R)) == one == 1
    held = [(v, m, count(v * (1.0 + R)) - count(v * (1.0 - R))) for v, m in table.entries[1:]]
    wrong = [entry for entry in held if entry[1] != entry[2]]
    assert not wrong, f"{len(wrong)} of {len(table.entries)} entries miscounted: {wrong[:3]}"
    low = lam * (1.0 - R)
    assert count(low) == table.counting_function(low)


def test_closed_form_tables_count_the_full_diagonal():
    # two equal parameters, and a^2 past spectrum._DECOUPLED at the unit scale
    for t in (normalize_triple(1.7, 0.9, 0.9), normalize_triple(1.3, 1.3, 0.6),
              normalize_triple(1e40, 1.5, 1.0)):
        for g in GroupKind:
            lam = 300.0 * t.b * t.b
            table = spectrum_up_to(lam, t, g)
            count = sturm_counter(t, g, lam * (1.0 + R))
            for v, m in table.entries[1:]:
                assert count(v * (1.0 + R)) - count(v * (1.0 - R)) == m
            assert count(lam * (1.0 - R)) == table.counting_function(lam * (1.0 - R))
