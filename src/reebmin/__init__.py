"""reebmin: normalized-volume minimization over Reeb cones.

Exact polyhedral kernel, closed-form toric and complexity-one volume
functions with Newton minimization, lattice-counting oracles, Futaki sign
scans, subtorus downgrades, and certified Diophantine approximation.
"""

from importlib import resources

from .approx import ConeApprox, Enclosure, SignedApprox, cone_rational_approx, dirichlet_signed, verify_cone, verify_signed
from .cxonevol import CellComplex, PolyhedralDivisor, build_cells, deg_D, minimize_c1, nvol_c1, vol_xi_c1
from .downgrade import (
    BinomialHypersurface,
    DowngradeData,
    WeightMatrix,
    binomial_to_toric,
    complete_sequence,
    downgrade_coefficient,
    downgrade_sigma,
    hypersurface_u0,
    induced_reeb,
)
from .errors import (
    EmptyFiber,
    Inconsistent,
    InfeasibleSystem,
    NonInvariant,
    NotFullDimensional,
    NotInReebCone,
    NotPointed,
    NotStrictlyConvex,
    RankDeficient,
    ReebminError,
    SearchExhausted,
    TooLarge,
    TorsionCokernel,
    UnboundedCoefficient,
)
from .futaki import FutakiReport, futaki_invariant, normalized_direction, semistable_scan
from .oracle import CountSeries, count_cxone, count_toric, vol_estimate
from .polyhedral import (
    MINUS_INFINITY,
    Polyhedron,
    SimplicialPiece,
    VCone,
    dual_cone,
    polyhedron_min,
    triangulate_cone,
    vertex_enumeration,
)
from .toricvol import (
    MinimizeResult,
    ReebVector,
    ToricData,
    certify_barycenter,
    grad_vol,
    hessian_vol,
    is_rational_minimizer,
    log_discrepancy,
    minimize,
    nvol,
    vol_xi,
)

__version__ = "1.0.0"


def bundled_spec(name):
    """Filesystem path of a bundled example spec such as 'spp.json'."""
    return resources.files(__name__).joinpath("data", name)
