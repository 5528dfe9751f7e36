"""Smart-home activity engine: weighted-threshold recognition of complex
activities, per-occurrence affect inference, and confidence-based
next-activity recommendation with confusion-matrix evaluation."""

__version__ = "0.1.0"


class InputError(ValueError):
    """A run's input is at fault: a config, definition, trace, log, stage
    table or model file that cannot be read or breaks a rule.  The CLI
    reports it in one line and exits 2; any other exception is a bug."""
