"""Exception and warning types raised by nufft1d; input errors are also ValueErrors."""


class NufftError(Exception):
    """Base class for all nufft1d errors."""


class OutOfRangeError(NufftError, ValueError):
    """A sampling instant lies outside the fundamental period [0, 1)."""


class DuplicateNodeError(NufftError, ValueError):
    """Two sampling instants are closer than the distinctness floor."""


class NonPositiveDampingError(NufftError, ValueError):
    """The truncation ratio mu, the series length eta P or the damping a is out of range."""


class LengthMismatchError(NufftError, ValueError):
    """Vector operands or kernels have incompatible lengths."""


class KernelOverflowError(NufftError):
    """Node-polynomial samples would overflow double precision (clustered grid)."""


class SingularDerivativeError(NufftError):
    """A node-polynomial derivative sample vanished; the interpolation weights blow up."""


class SingularMatrixError(NufftError):
    """Gaussian elimination met an exactly zero pivot or returned a non-finite solution."""


class ZeroReferenceError(NufftError):
    """Relative error is undefined against a zero reference vector."""


class AmplificationWarning(UserWarning):
    """Damping is strong enough that high-coefficient recovery loses all precision."""
