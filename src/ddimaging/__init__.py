"""Overlapping domain decomposition solvers for variational imaging.

Split an image into rectangular tiles, enlarge each tile just enough to
evaluate the model's energy density on it, and minimize with a decoupled
augmented Lagrangian loop whose local subproblems run independently per
subdomain.  Supports convex two-phase segmentation, TV-L1 deblurring with a
uniform kernel, and second-order (Hessian) L1 denoising.
"""

from .decomposition import (
    OverlapLayout,
    essential_domain,
    partition_rect,
    restrict_global,
)
from .fields import inner, magnitude, project_ball, psnr
from .models import (
    ChanVese,
    HessianL1,
    TVL1Deblur,
    energy,
    integrand,
    salt_pepper,
    stencil_of,
    threshold_half,
)
from .operators import (
    BlurKernel,
    adjoint_grad_plus,
    adjoint_hessian,
    blur,
    grad_minus,
    grad_plus,
    hessian,
    op_norm_sq_estimate,
)
from .pgmio import load_pgm, save_pgm
from .solvers import (
    DecoupledAlm,
    acceleration_schedule,
    InnerParams,
    NonFiniteEnergyError,
    cp_full,
    default_inner,
    lyapunov_metric,
    reference_energy,
    solve_dd,
    solve_single,
)

__version__ = "0.1.0"
