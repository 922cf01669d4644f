"""Exception hierarchy. Every error the library raises derives from RectiDistillError."""


class RectiDistillError(Exception):
    """Base class for all rectidistill errors."""


class InvalidInputError(RectiDistillError, ValueError):
    """Non-finite, malformed, or out-of-domain input.

    Raised for bad vectors and class indices, layer widths, flat parameter
    vectors, two-class set-ups, a KL with infinite divergence, and a
    function that the finite-difference oracle evaluates to a non-finite
    value; and for an out-of-range scalar knob: a temperature, a blob
    spread, class, row or feature counts, or a batch size.
    """


class RectifyNotApplicableError(RectiDistillError, ValueError):
    """Rectification requested for a sample the teacher already predicts correctly."""


class TrainingDivergedError(RectiDistillError, RuntimeError):
    """Non-finite logits or gradients during optimization."""


class CheckpointParseError(RectiDistillError, ValueError):
    """Malformed checkpoint file; message carries the offending line number."""


class DataParseError(RectiDistillError, ValueError):
    """Malformed dataset CSV; message carries the offending row number."""


class ConfigError(RectiDistillError, ValueError):
    """Invalid or inconsistent run configuration."""
