"""Stratification of punctual Hilbert schemes of monomial curve singularities.

The library enumerates the Γ-modules of each colength r inside a numerical
semigroup Γ, attaches to every module its canonical family of ideals, reads
off affine-cell coordinates inside a Grassmannian via Plücker minors, and
decides closure relations between cells to assemble the irreducible
components of each stratum ℳ_r.
"""

from .closure_analysis import (
    ClosureVerdict,
    StratCell,
    build_cell,
    cell_closure_contains,
    closure_verdicts,
    components,
    degeneration_limit,
    replay_certificate,
)
from .errors import HilbstratError
from .gamma_modules import (
    GammaModule,
    delta_set,
    enumerate_colength,
    enumeration_bound,
    schubert_index,
)
from .ideal_cells import (
    CanonicalFamily,
    canonical_family,
    cell_matrix,
    is_good_subspace,
    plucker_point,
)
from .report_cli import (
    ReportConfig,
    StratReport,
    analyze,
    canonical_delta_labels,
    oracle_check,
    stratify,
)
from .semigroup_core import NumericalSemigroup
from .symcalc import ParamPoly

__version__ = "0.1.0"

__all__ = [
    "CanonicalFamily",
    "ClosureVerdict",
    "GammaModule",
    "HilbstratError",
    "NumericalSemigroup",
    "ParamPoly",
    "ReportConfig",
    "StratCell",
    "StratReport",
    "analyze",
    "build_cell",
    "canonical_delta_labels",
    "canonical_family",
    "cell_closure_contains",
    "cell_matrix",
    "closure_verdicts",
    "components",
    "degeneration_limit",
    "delta_set",
    "enumerate_colength",
    "enumeration_bound",
    "is_good_subspace",
    "oracle_check",
    "plucker_point",
    "replay_certificate",
    "schubert_index",
    "stratify",
    "__version__",
]
