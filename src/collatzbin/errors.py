"""Exception types shared across the package."""


class ParityError(ValueError):
    """An operation required the other parity (or more trailing zeros) than it got."""


class DomainError(ValueError):
    """Input falls outside the modeled domain of naturals starting at 1."""


class CapExceeded(RuntimeError):
    """An iteration hit its step cap before reaching its goal.

    Truncation is a signal, not a failure: callers decide whether to retry
    with a larger cap or report the input as unresolved.
    """


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, malformed, unwritable, or has an unsupported version."""


class WorkerError(RuntimeError):
    """A chunk of a parallel run raised in its worker process, or the worker died."""
