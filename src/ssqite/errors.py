"""Exception types shared across the package, one per outcome the CLI acts on.

``bench_cli.main`` exits 2 on an :class:`InputError` and 1 on a
:class:`MaxItersExceeded` or :class:`SingularSystem`.
"""


class SsqiteError(Exception):
    """Base class for all package-specific errors."""


class InputError(SsqiteError, ValueError):
    """A refused input: a value, file or argument the package does not accept.

    ``line`` is the offending line of a file, when there is one.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SingularSystem(SsqiteError, RuntimeError):
    """The McLachlan system has non-finite entries, or its eigendecomposition failed."""


class MaxItersExceeded(SsqiteError, RuntimeError):
    """An evolution hit its iteration cap; carries the partial result."""

    def __init__(self, message: str, result):
        self.result = result
        super().__init__(message)
