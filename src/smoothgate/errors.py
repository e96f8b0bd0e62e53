__all__ = ["UnprimedError"]


class UnprimedError(RuntimeError):
    """A forecast was read before any observation had been absorbed."""
