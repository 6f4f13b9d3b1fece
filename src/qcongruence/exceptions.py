"""Exceptions shared across the package."""


class DomainError(ValueError):
    """An input is outside the mathematical domain of the operation."""


class NotDivisible(ArithmeticError):
    """An exact polynomial division left a nonzero remainder."""
