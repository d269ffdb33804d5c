"""Exception taxonomy shared by all modules, and the one check of a
setting against the values it admits (`check`), which records apply to
the fields they declare with `setting` (`check_settings`).

`driver.exit_code_of` maps these onto process exit codes: configuration
problems exit with 2, numerical failures (bad state, solver breakdown,
NaN) with 3, and IO errors with 4.
"""

import copy
import numbers
import os
from dataclasses import MISSING, field, fields


class MmfsimError(Exception):
    """Base class for all package errors."""

    def prefixed(self, where: str) -> "MmfsimError":
        """A copy of this error (same class and attributes) whose message
        starts with `where: `, for naming the step or grid it came from."""
        new = copy.copy(self)
        new.args = (f"{where}: {self}",)
        return new


class ConfigurationError(MmfsimError):
    """Invalid or inconsistent user-facing configuration."""


class StateError(MmfsimError):
    """Physically inadmissible state (vacuum, negative mixing ratio, NaN)."""


class SolverError(MmfsimError):
    """Iterative solver failure; carries the final residual when known."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class Interval(str):
    """An interval in the usual notation, "(0, inf)" or "[0, 1]": a square
    bracket puts its end in the interval, a round one leaves it out. The
    ends are read once, here."""

    def __new__(cls, text):
        self = super().__new__(cls, text)
        self.lo, self.hi = (float(end) for end in text[1:-1].split(","))
        self.closed = (text[0] == "[", text[-1] == "]")
        return self

    def __contains__(self, v) -> bool:
        lo_in, hi_in = self.closed
        return (self.lo <= v if lo_in else self.lo < v) and (v <= self.hi if hi_in else v < self.hi)


# the domains most settings take
POSITIVE, NONNEGATIVE = Interval("(0, inf)"), Interval("[0, inf)")
COUNT, FINITE = Interval("[1, inf)"), Interval("(-inf, inf)")

_KINDS = {str: (str, os.PathLike), bool: bool, int: numbers.Integral, float: numbers.Real}
_NOUNS = {str: "a path", int: "an integer", float: "a number"}


def format_value(v) -> str:
    """`v` as a config file writes it."""
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(float(v)) if isinstance(v, float) else str(v)


def describe(typ: type, domain) -> str:
    """The values of type `typ` in `domain` (a tuple of choices, an
    Interval, or None for any), as messages and the README state them."""
    if isinstance(domain, tuple):
        return "one of " + ", ".join(map(format_value, domain))
    return _NOUNS[typ] + ("" if domain is None else f" in {domain}")


def check(name: str, value, typ: type, domain) -> None:
    """Raise a ConfigurationError that names `name` and `value` unless the
    value is of type `typ` (True and False only of bool) and in `domain`."""
    if not (isinstance(value, _KINDS[typ]) and (typ is bool or not isinstance(value, bool))
            and (domain is None or value in domain)):
        raise ConfigurationError(
            f"{name} = {format_value(value)}: expected {describe(typ, domain)}")


def setting(typ: type, domain=None, default=MISSING, key=None):
    """A dataclass field holding a setting of type `typ` in `domain` (as
    `check` takes them); `key` is the config key that sets it, which the
    message then names instead of `Record.field`."""
    return field(default=default, metadata={"setting": (typ, domain, key)})


def check_settings(record) -> None:
    """`check` every field of dataclass `record` declared with `setting`;
    one whose default is None may also be None, which means unset."""
    for f in fields(record):
        if "setting" in f.metadata:
            typ, domain, key = f.metadata["setting"]
            value = getattr(record, f.name)
            if value is not None or f.default is not None:
                check(key or f"{type(record).__name__}.{f.name}", value, typ, domain)
