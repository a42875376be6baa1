"""Exception types shared across the solver modules."""


class MonopolyControlError(Exception):
    """Base class for all errors raised by this package."""


class AssumptionViolation(MonopolyControlError):
    """A problem spec breaks one of the standing model assumptions.

    The message names the violated assumption (e.g. "0 must belong to the
    demand set", "production cost must be non-decreasing").
    """


class CoercivityUndetectable(AssumptionViolation):
    """Unbounded production set whose cost growth cannot be certified.

    Raised for Table costs on a right ray: a finite table cannot witness
    that average cost grows without bound.
    """


class InvalidParameter(MonopolyControlError, ValueError):
    """A scalar argument is outside its documented range."""


class DegenerateGrid(MonopolyControlError, ValueError):
    """Fewer than two distinct sample points were supplied."""


class OutOfDomain(MonopolyControlError, ValueError):
    """Query point lies outside the tabulated domain."""


class TruncationFailed(MonopolyControlError):
    """The slope range [0, z_max] overflowed before H(z_max) rose past
    H(0)."""


class DecompositionMismatch(MonopolyControlError):
    """A two-point hull decomposition failed its reconstruction identity."""


class StateViolation(MonopolyControlError):
    """Simulated inventory left its range: below zero, or a drawdown's
    not at zero when its arc ends."""

    def __init__(self, time: float, inventory: float):
        super().__init__(
            f"inventory {inventory:.6g} outside tolerance at t={time:.6g}; "
            "plan is inadmissible"
        )
        self.time = time
        self.inventory = inventory


class HorizonTooShort(MonopolyControlError):
    """Discount weight left beyond the horizon exceeds the requested
    tolerance, so the profit gap would be dominated by truncation."""


class NotConverged(MonopolyControlError):
    """Fixed-point iteration hit its sweep cap before the tolerance."""


class ZetaZeroWarning(UserWarning):
    """The value function is constant; any admissible plan is optimal."""
