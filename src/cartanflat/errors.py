"""Exception types shared across the package.

Everything raised on purpose derives from :class:`CartanflatError` so the CLI
can map "bad input or bad geometry" to exit code 2 in one place.
"""

from __future__ import annotations


class CartanflatError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CartanflatError):
    """Syntax error in expression text. Carries the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    """An identifier that is neither a declared variable nor a known function."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}'", offset)
        self.name = name


class _AtPoint(CartanflatError):
    """An error that may name the point where it happened (``.point``)."""

    def __init__(self, message: str, point=None):
        if point is not None:
            message = f"{message} at point {tuple(point)}"
        super().__init__(message)
        self.point = tuple(point) if point is not None else None


class ExpressionDomainError(_AtPoint):
    """Evaluation left the real domain (log of a non-positive number, division
    by zero, overflow to a non-finite value, ...)."""


class ChartDomainError(CartanflatError):
    """A point (or a curve sample) lies outside the chart's coordinate box."""


class SingularMetricError(_AtPoint):
    """The metric matrix is singular or indefinite at a point, or a derived
    volume/normalization degenerates there."""


class DimensionError(CartanflatError):
    """An operation restricted to a specific dimension got the wrong one."""


class StepSizeError(CartanflatError):
    """A finite-difference step or integrator step degenerated (underflow, or
    stencil points escaping the chart)."""


class NonClosedLoopError(CartanflatError):
    """holonomy() was given a curve whose chart endpoints do not coincide."""


class ConfigError(CartanflatError):
    """Invalid job configuration. Carries a JSON path like ``$.metric[0][1]``."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
