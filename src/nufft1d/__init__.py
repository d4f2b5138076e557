"""nufft1d: 1-D nonuniform FFT with non-iterative inversion.

Forward transforms move between a nonuniform delta train and uniform
spectrum samples (type 1) or a trigonometric polynomial and its values at
arbitrary instants (type 2). The inverse transforms (types 4 and 5) solve
the corresponding square linear systems without iteration, through a
per-grid plan built from the nodes' Lagrange kernel, plus an optional
residual-refinement pass. Dense-elimination and conjugate-gradient
reference solvers, analytic flop accounting, and a Monte-Carlo benchmark
harness round out the package.
"""

__version__ = "0.1.0"

from .baselines import CGResult, cg_solve, ge_solve, type4_system, type5_system
from .bench import (
    TrialConfig,
    TrialResult,
    generate_trial,
    relative_error,
    run_figure,
    run_sweep,
)
from .errors import (
    AmplificationWarning,
    DuplicateNodeError,
    KernelOverflowError,
    LengthMismatchError,
    NonPositiveDampingError,
    NufftError,
    OutOfRangeError,
    SingularDerivativeError,
    SingularMatrixError,
    ZeroReferenceError,
)
from .flops import FlopCounter, FlopReport
from .forward import (
    nfft_type1,
    nfft_type1_direct,
    nfft_type2,
    nfft_type2_direct,
)
from .grid import (
    MethodParams,
    NonuniformGrid,
    damping_from_mu,
    validate_grid,
)
from .gridding import kernel_for_size
from .inverse import InversePlan, build_plan, refine_type4, refine_type5, type4, type5

__all__ = [
    "AmplificationWarning",
    "CGResult",
    "DuplicateNodeError",
    "FlopCounter",
    "FlopReport",
    "InversePlan",
    "KernelOverflowError",
    "LengthMismatchError",
    "MethodParams",
    "NonPositiveDampingError",
    "NonuniformGrid",
    "NufftError",
    "OutOfRangeError",
    "SingularDerivativeError",
    "SingularMatrixError",
    "TrialConfig",
    "TrialResult",
    "ZeroReferenceError",
    "build_plan",
    "cg_solve",
    "damping_from_mu",
    "generate_trial",
    "ge_solve",
    "kernel_for_size",
    "nfft_type1",
    "nfft_type1_direct",
    "nfft_type2",
    "nfft_type2_direct",
    "refine_type4",
    "refine_type5",
    "relative_error",
    "run_figure",
    "run_sweep",
    "type4",
    "type4_system",
    "type5",
    "type5_system",
    "validate_grid",
]
