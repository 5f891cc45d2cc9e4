"""Shared exception hierarchy.

The command line maps these onto exit codes: input problems exit with
status 1, exhausted budgets with status 2, failed certificates with
status 3.  Concrete errors live next to the operations that raise them
and subclass one of the three categories below.
"""

__all__ = ["CubulateError", "InputError", "BudgetError", "CertificateError"]


class CubulateError(Exception):
    """Base class for every error raised by this package."""


class InputError(CubulateError):
    """Malformed, out-of-range or otherwise rejected input."""


class BudgetError(CubulateError):
    """A configured resource budget was exhausted before completion."""


class CertificateError(CubulateError):
    """A machine-checked certificate failed; the message carries a witness."""
