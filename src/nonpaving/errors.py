"""Exception types shared across the package.

Plain ValueError is used for invalid arguments; the classes here cover the
remaining failure modes that callers may want to tell apart (and that the CLI
maps to distinct exit codes).
"""

__all__ = [
    "InternalInconsistencyError",
    "ResourceLimitError",
    "CertificationError",
    "MatrixParseError",
]


class InternalInconsistencyError(RuntimeError):
    """Two computations that must agree did not. Signals a numerical bug."""


class ResourceLimitError(RuntimeError):
    """A configured enumeration or size budget would be exceeded, or an
    array would be past numpy's index range (numpy itself raises ValueError
    there, not MemoryError)."""


class CertificationError(RuntimeError):
    """A partition violated the certified bound.

    The offending partition is attached as ``partition``.
    """

    def __init__(self, message, partition=None):
        super().__init__(message)
        self.partition = partition


class MatrixParseError(ValueError):
    """A matrix CSV file is malformed."""
