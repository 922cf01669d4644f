"""Exception hierarchy. Every error the library raises derives from RectiDistillError."""


class RectiDistillError(Exception):
    """Base class for all rectidistill errors."""


class InvalidInputError(RectiDistillError, ValueError):
    """Non-finite, malformed, or out-of-domain input.

    Raised for a bad feature matrix, label vector or input batch, layer
    widths, flat parameter vectors, two-class set-ups, and a function that
    the finite-difference oracle evaluates to a non-finite value; for an
    out-of-range scalar knob: a blob spread, class, row or feature counts,
    a batch size, or a missing or negative seed component; and for a
    malformed dataset CSV or checkpoint line, whose message names
    ``path:line``.
    """


class TrainingDivergedError(RectiDistillError, RuntimeError):
    """Non-finite logits or gradients during optimization."""


class ConfigError(RectiDistillError, ValueError):
    """Invalid or inconsistent run configuration."""
