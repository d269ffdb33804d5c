"""Exception taxonomy shared by all modules.

`driver.exit_code_of` maps these onto process exit codes: configuration
problems exit with 2, numerical failures (bad state, solver breakdown,
NaN) with 3, and IO errors with 4.
"""

import copy


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
