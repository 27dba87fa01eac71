"""Exception types shared across the package."""

from __future__ import annotations


class GroupError(Exception):
    """Base class for every error raised by this package."""


class NotAGroup(GroupError):
    """A multiplication table violates one of the group axioms."""

    def __init__(self, reason: str, witness=None):
        self.reason = reason
        self.witness = witness
        msg = reason if witness is None else f"{reason} (witness: {witness})"
        super().__init__(msg)


class InvalidPermutation(GroupError):
    """A generator is not a bijection of the stated points."""


class OrderExceedsCap(GroupError):
    """A construction would produce a group larger than the order cap."""


class NotNormal(GroupError):
    """Quotient requested by a non-normal subgroup; carries a witness pair."""

    def __init__(self, msg: str, witness=None):
        self.witness = witness
        super().__init__(msg)


class NotCentral(GroupError):
    """An element required to be central is not."""


class OrderMismatch(GroupError):
    """Amalgamated central elements must share one prime order."""


class NotPrime(GroupError):
    """A parameter required to be (an odd) prime is not."""


class NotPGroup(GroupError):
    """The group order is not a power of the stated prime."""


class BadParameter(GroupError):
    """A constructor parameter is out of its legal range."""


class NotPrimePowerIndex(GroupError):
    """[G : Z(G)] is not a prime power, so the class-count bound is undefined."""


class AbelianGroup(GroupError):
    """Raised where a non-abelian group is required."""


class PreconditionViolated(GroupError):
    """An operation's stated precondition does not hold for the input."""


class NotAnIsoclinism(GroupError):
    """A proposed isoclinism fails validation; names the first offending pair."""


class QuotientExceedsCap(GroupError):
    """The central quotient is too large for the isoclinism search cap."""


class SpecSyntaxError(GroupError):
    """Group-spec text failed to parse; carries the offending position."""

    def __init__(self, position: int, message: str):
        self.position = position
        self.message = message
        super().__init__(f"at position {position}: {message}")


class UnknownConstructor(GroupError):
    """Group-spec names a constructor this package does not provide."""
