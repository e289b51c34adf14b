"""Exception types shared across the package, and the argument checks that
raise them."""


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


def check_is_fitted(estimator, attribute: str) -> None:
    if not hasattr(estimator, attribute):
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted; call fit() before this method"
        )


def check_equal_length(name_a: str, a, name_b: str, b) -> None:
    if len(a) != len(b):
        raise ValidationError(f"{name_a} has length {len(a)} but {name_b} has length {len(b)}")
