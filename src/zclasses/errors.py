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


class OrderExceedsCap(GroupError):
    """A construction would produce a group larger than the order cap."""


class BadParameter(GroupError):
    """A parameter is out of range, or not the prime, bijection or central element asked for."""


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
