"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand dimensions do not chain."""


class DomainError(ValueError):
    """Scalar argument outside its mathematical domain."""


class DivergenceError(ArithmeticError):
    """Fixed-point iteration produced non-finite values.

    The message names a non-finite input (F, H or dL/dZ*) when there is one;
    otherwise it usually signals a misnormalized adjacency (spectral norm > 1)
    or a contraction factor outside [0, 1).
    """


class CapacityError(ValueError):
    """Problem size exceeds a hard guard (dense oracle systems only)."""


class GenerationError(ValueError):
    """Synthetic data generation could not satisfy its invariants."""


class DataFormatError(ValueError):
    """A data file failed to parse or validate."""


class EmptySelectionError(ValueError):
    """A mask or selection matched no elements."""
