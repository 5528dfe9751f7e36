"""Smart-home activity engine: weighted-threshold recognition of complex
activities, per-occurrence affect inference, and confidence-based
next-activity recommendation with confusion-matrix evaluation."""

__version__ = "0.1.0"


class InputError(ValueError):
    """A run's input is at fault: a config, definition, trace, log, stage
    table or model file that cannot be read or breaks a rule.  The CLI
    reports it in one line and exits 2; any other exception is a bug."""


def json_integer(value: object) -> int:
    """A JSON integer as it stands; a bool or a number with a fraction is not one."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_number(value: object) -> float:
    """A JSON number as a float; a bool or a string is not one."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)  # OverflowError for an integer beyond every float
