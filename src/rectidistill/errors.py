"""Exception hierarchy. Every error the library raises derives from RectiDistillError."""


class RectiDistillError(Exception):
    """Base class for all rectidistill errors."""


class InvalidInputError(RectiDistillError, ValueError):
    """Non-finite, malformed, or out-of-domain input."""


class InvalidParameterError(RectiDistillError, ValueError):
    """A scalar knob (temperature, spread, counts, ...) is out of range."""


class DivergenceInfiniteError(RectiDistillError, ValueError):
    """A KL term is infinite (zero probability where mass is required)."""


class OracleFailureError(RectiDistillError, RuntimeError):
    """A verification oracle (finite differences) hit a non-finite evaluation."""


class RectifyNotApplicableError(RectiDistillError, ValueError):
    """Rectification requested for a sample the teacher already predicts correctly."""


class InvalidArchitectureError(RectiDistillError, ValueError):
    """MLP layer widths are empty or non-positive."""


class TrainingDivergedError(RectiDistillError, RuntimeError):
    """Non-finite logits or gradients during optimization."""


class CheckpointParseError(RectiDistillError, ValueError):
    """Malformed checkpoint file; message carries the offending line number."""


class InvalidSetupError(RectiDistillError, ValueError):
    """Degenerate two-class analysis setup: t_a outside (0, 1)."""


class DataParseError(RectiDistillError, ValueError):
    """Malformed dataset CSV; message carries the offending row number."""


class ConfigError(RectiDistillError, ValueError):
    """Invalid or inconsistent run configuration."""
