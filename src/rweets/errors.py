"""Exception types shared across the package."""


class RweetsError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(RweetsError, ValueError):
    """Input data or configuration violates a documented contract."""


class FormatError(RweetsError, ValueError):
    """A persisted artifact is malformed or has a bad header."""


class StaleCacheError(RweetsError):
    """A persisted artifact was produced under a different configuration digest."""


class NotFittedError(RweetsError, ValueError):
    """Estimator method requires fit() to have been called first."""


class TrainingDivergedError(RweetsError):
    """Training found no step with a finite, lower loss."""

    def __init__(self, iteration: int, message: str | None = None):
        self.iteration = iteration
        super().__init__(
            message or f"loss was non-finite at every trial step of iteration {iteration}"
        )
