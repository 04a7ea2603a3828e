"""Exception types shared across the toolkit."""


class SLError(Exception):
    """Base class for all toolkit errors."""


class ParseError(SLError):
    """Malformed concrete syntax, with source position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class UnboundIdentifierError(SLError):
    """A call names a thread identifier with no definition."""


class ArityMismatchError(SLError):
    """A call passes the wrong number of signal arguments."""


class UndeclaredSignalError(SLError):
    """A free signal is neither bound nor part of the interface."""


class UnboundSignalError(SLError):
    """The interpreter consulted a signal outside the environment domain.

    This is an internal invariant break: well-formed programs keep every
    free signal inside the environment domain.
    """


class FuelExhaustedError(SLError):
    """An instant did not converge within the step budget."""

    def __init__(self, steps, instant=None):
        self.steps = steps
        self.instant = instant
        where = "" if instant is None else f" (instant {instant})"
        super().__init__(f"fuel exhausted after {steps} steps{where}")


class NotSuspendedError(SLError):
    """End-of-instant applied to a thread that can still run."""


class IndexExplosionError(SLError):
    """The CPS equation table outgrew the configured limit."""

    def __init__(self, limit, bounded_verdict=None):
        self.limit = limit
        self.bounded_verdict = bounded_verdict
        msg = f"equation table exceeded {limit} entries"
        if bounded_verdict is not None:
            shown = ("accept" if bounded_verdict
                     else f"reject: {bounded_verdict.render()}")
            msg += f" (bounded-context check: {shown})"
        super().__init__(msg)


class HasSignalGenerationError(SLError):
    """Mealy extraction refused a tail program that generates signals."""


class StateExplosionError(SLError):
    """State exploration exceeded the configured limit."""

    def __init__(self, limit):
        self.limit = limit
        super().__init__(f"state space exceeded {limit} states")


class LabellingLimitError(SLError):
    """The search for a canonical labelling of a state's generated names
    reached more leaves than its budget allows."""

    def __init__(self, limit):
        self.limit = limit
        super().__init__(f"canonical labelling search exceeded {limit} "
                         f"leaves")


class InputSetExplosionError(SLError):
    """Enumerating every input set would exceed the configured bound on
    the number of signals."""

    def __init__(self, limit, signals):
        self.limit = limit
        self.signals = signals
        super().__init__(f"input-set enumeration over {signals} signals "
                         f"exceeds the bound of {limit} signals")


class NotFiniteStateError(SLError):
    """Exact equivalence asked of a program outside the finite fragment."""
