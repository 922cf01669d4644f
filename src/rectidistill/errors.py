"""Exception hierarchy. Every error the library raises derives from RectiDistillError."""


class RectiDistillError(Exception):
    """Base class for all rectidistill errors."""


class InvalidInputError(RectiDistillError, ValueError):
    """Non-finite, malformed, or out-of-domain input.

    Raised for bad vectors and class indices, layer widths, flat parameter
    vectors, two-class set-ups, a KL with infinite divergence, and a
    function that the finite-difference oracle evaluates to a non-finite
    value; for an out-of-range scalar knob: a temperature, a blob spread,
    class, row or feature counts, a batch size, or a missing or negative
    seed component; for a malformed dataset CSV or checkpoint line, whose
    message names ``path:line``; and for rectifying a row the teacher
    already predicts correctly.
    """


class TrainingDivergedError(RectiDistillError, RuntimeError):
    """Non-finite logits or gradients during optimization."""


class ConfigError(RectiDistillError, ValueError):
    """Invalid or inconsistent run configuration."""
