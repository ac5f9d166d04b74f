"""FEM verification of the d(bounded) spectral gap on the Poincare disc."""

from llab.hyperbolic.mesh import DiscMesh, build_disc_mesh, square_patch
from llab.hyperbolic.forms import (
    AnnulusDecayTable,
    CutoffProfile,
    PrimitiveOneForm,
    annulus_decay,
    bounded_primitive,
    cutoff_family,
)
from llab.hyperbolic.assembly import assemble_hodge_laplacian
from llab.hyperbolic.eigensolve import EigenNonConvergence, SpectralResult, smallest_eigenpairs
from llab.hyperbolic.oracle import SHOOTING_LAMBDA1, lambda1_ball_shooting
from llab.hyperbolic.gap import dirichlet_lambda1, gap_sweep, gromov_bound, gromov_bound_report

__all__ = [
    "DiscMesh",
    "build_disc_mesh",
    "square_patch",
    "PrimitiveOneForm",
    "bounded_primitive",
    "CutoffProfile",
    "cutoff_family",
    "AnnulusDecayTable",
    "annulus_decay",
    "assemble_hodge_laplacian",
    "SpectralResult",
    "EigenNonConvergence",
    "smallest_eigenpairs",
    "SHOOTING_LAMBDA1",
    "lambda1_ball_shooting",
    "gromov_bound",
    "gromov_bound_report",
    "dirichlet_lambda1",
    "gap_sweep",
]
