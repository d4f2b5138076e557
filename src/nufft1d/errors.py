"""Exception and warning types raised by nufft1d."""


class NufftError(Exception):
    """Base class for all nufft1d errors."""


class OutOfRangeError(NufftError):
    """A sampling instant lies outside the fundamental period [0, 1)."""


class DuplicateNodeError(NufftError):
    """Two sampling instants are closer than the distinctness floor."""


class NonPositiveDampingError(NufftError):
    """Requested truncation ratio is too loose to yield a positive damping."""


class LengthMismatchError(NufftError):
    """Vector operands have incompatible lengths."""


class SizeMismatchError(NufftError):
    """Convolution kernel length is not an integer multiple of the output length."""


class KernelOverflowError(NufftError):
    """Node-polynomial samples would overflow double precision (clustered grid)."""


class SingularDerivativeError(NufftError):
    """A node-polynomial derivative sample vanished; the interpolation weights blow up."""


class SingularMatrixError(NufftError):
    """Gaussian elimination met an exactly zero pivot or returned a non-finite solution."""


class NonConvergenceError(NufftError):
    """Residual norm grew between refinement passes (parameters too coarse)."""


class ZeroReferenceError(NufftError):
    """Relative error is undefined against a zero reference vector."""


class AmplificationWarning(UserWarning):
    """Damping is strong enough that high-coefficient recovery loses all precision."""
