"""Exception types shared across the package."""


class SsqiteError(Exception):
    """Base class for all package-specific errors."""


# --- Pauli algebra / file ingestion ---

class InvalidLabel(SsqiteError, ValueError):
    """Pauli string contains a character outside {X, Y, Z, I}."""


class EmptyString(SsqiteError, ValueError):
    """Pauli string token has length zero."""


class TooManyQubits(SsqiteError, ValueError):
    """Dense-matrix operation requested above the qubit guardrail."""


class NotHermitian(SsqiteError, ValueError):
    """Matrix handed to the decomposer is not Hermitian within tolerance."""


class NotPowerOfTwo(SsqiteError, ValueError):
    """Matrix dimension is not a power of two."""


class ParseError(SsqiteError, ValueError):
    """Hamiltonian or config file is malformed; carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonMonotonicGeometry(SsqiteError, ValueError):
    """Bond lengths in a geometry series are not strictly increasing."""


class GeometryNotFound(SsqiteError, ValueError):
    """Requested bond length has no match in the loaded series."""


# --- Simulator ---

class DimensionMismatch(SsqiteError, ValueError):
    """Operands with incompatible qubit counts or vector lengths."""


class SlotOutOfRange(SsqiteError, IndexError):
    """Parameter index outside [0, num_params)."""


class UnsupportedMode(SsqiteError, ValueError):
    """Unknown Hadamard-test mode."""


class ZeroShots(SsqiteError, ValueError):
    """Shot count must be an integer from one to the sampler's int64 maximum."""


# --- Imaginary-time engines ---

class SingularSystem(SsqiteError, RuntimeError):
    """The McLachlan system has non-finite entries, or its eigendecomposition failed."""


class MaxItersExceeded(SsqiteError, RuntimeError):
    """An evolution hit its iteration cap; carries the partial result."""

    def __init__(self, message: str, result):
        self.result = result
        super().__init__(message)
