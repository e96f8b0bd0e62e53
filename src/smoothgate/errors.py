__all__ = ["UnprimedError"]


class UnprimedError(RuntimeError):
    """A forecast was read before any observation had been absorbed."""


def _check_int(name: str, value, least: int | None = None) -> int:
    """Return value if it is an int (never a bool) of at least ``least``;
    otherwise raise TypeError or ValueError naming the parameter."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value
