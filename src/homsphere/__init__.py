"""Spectra of homogeneous metrics on the 3-sphere and projective 3-space.

A left-invariant metric on SU(2) or SO(3) is determined by three positive
parameters (a, b, c).  This package computes truncated Laplace-Beltrami
spectra for any such metric, closed forms for the lowest eigenvalue and
for all spectra with two equal parameters, diameters with certified
bounds, scale-invariant eigenvalue-diameter estimates, and the inverse
map recovering the metric from its spectral invariants.

``__all__`` is the public API.  Solver internals (block assembly, the
bisection kernel, the block cutoff) stay importable from ``casimir``,
``eigensolve`` and ``spectrum`` but are not exported here.
"""

from .core import (
    EigenPair,
    GroupKind,
    HomsphereError,
    MetricClass,
    MetricTriple,
    NonPositiveParameter,
    SpectralInvariants,
    SpectrumTable,
    classify,
    normalize_triple,
)
from .eigensolve import NonConvergence
from .geometry import (
    BergerExtremaReport,
    BoundViolation,
    DiamBounds,
    EmptyProduct,
    ProductEstimate,
    ProductSpec,
    berger_lambda1_diam2_extrema,
    diameter,
    lambda1_diam2,
    product_estimate,
    scalar_curvature,
    volume,
    yamabe_gap,
)
from .rigidity import (
    InconsistentInvariants,
    IsospectralResult,
    IsospectralVerdict,
    invariants,
    isospectral_check,
    recover_triple,
)
from .spectrum import (
    ClusterMergeWarning,
    CutoffTooLarge,
    Lambda1Result,
    Regime,
    lambda1_closed,
    spectrum_up_to,
)

__version__ = "0.1.0"

__all__ = [
    "BergerExtremaReport",
    "BoundViolation",
    "ClusterMergeWarning",
    "CutoffTooLarge",
    "DiamBounds",
    "EigenPair",
    "EmptyProduct",
    "GroupKind",
    "HomsphereError",
    "InconsistentInvariants",
    "IsospectralResult",
    "IsospectralVerdict",
    "Lambda1Result",
    "MetricClass",
    "MetricTriple",
    "NonConvergence",
    "NonPositiveParameter",
    "ProductEstimate",
    "ProductSpec",
    "Regime",
    "SpectralInvariants",
    "SpectrumTable",
    "berger_lambda1_diam2_extrema",
    "classify",
    "diameter",
    "invariants",
    "isospectral_check",
    "lambda1_closed",
    "lambda1_diam2",
    "normalize_triple",
    "product_estimate",
    "recover_triple",
    "scalar_curvature",
    "spectrum_up_to",
    "volume",
    "yamabe_gap",
]
