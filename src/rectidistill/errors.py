"""Exception hierarchy. Every error the library raises derives from RectiDistillError."""


class RectiDistillError(Exception):
    """Base class for all rectidistill errors."""


class InvalidInputError(RectiDistillError, ValueError):
    """Non-finite or malformed input.

    Raised for a malformed dataset CSV or checkpoint line, whose message
    names ``path:line``, and for a ``Dataset`` whose features or labels
    break its invariant: only for input from outside the program.
    """


class TrainingDivergedError(RectiDistillError, RuntimeError):
    """Non-finite parameters or loss columns after a training epoch, naming the epoch."""


class ConfigError(RectiDistillError, ValueError):
    """Invalid or inconsistent run configuration."""
