import importlib

import nufft1d

PUBLIC = [
    "AmplificationWarning", "CGResult", "DuplicateNodeError", "FlopCounter", "FlopReport",
    "InversePlan", "KernelOverflowError", "LengthMismatchError", "MethodParams",
    "NonPositiveDampingError", "NonuniformGrid", "NufftError",
    "OutOfRangeError", "SingularDerivativeError", "SingularMatrixError", "TrialConfig",
    "TrialResult", "ZeroReferenceError", "build_plan", "cg_solve", "damping_from_mu",
    "ge_solve", "generate_trial", "kernel_for_size", "nfft_type1",
    "nfft_type1_direct", "nfft_type2", "nfft_type2_direct", "refine_type4", "refine_type5",
    "relative_error", "run_figure", "run_sweep", "type4", "type4_system", "type5",
    "type5_system", "validate_grid",
]

# internals, each imported from the module that defines it
INTERNAL = {
    "compute_v_samples": "lagrange",
    "kernel_samples_from_v": "lagrange",
    "kernel_coefficients": "lagrange",
    "derivative_samples": "lagrange",
    "nonuniform_conv": "forward",
    "GriddingKernel": "gridding",
    "as_complex_vector": "grid",
}


def test_top_level_api():
    assert sorted(nufft1d.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(nufft1d, name), name
    namespace = {}
    exec("from nufft1d import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    for name, module in INTERNAL.items():
        assert hasattr(importlib.import_module(f"nufft1d.{module}"), name), name
        assert not hasattr(nufft1d, name), name
