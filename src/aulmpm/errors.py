"""Exception hierarchy for the solver.

SceneError covers everything that should abort before time stepping starts
(bad scene files, inconsistent options).  The remaining types signal runtime
failures and map to a nonzero exit status in the CLI.
"""


class SimulationError(RuntimeError):
    """Base class for all solver errors."""


class SceneError(SimulationError):
    """Invalid scene description or solver configuration."""


class OutOfDomainError(SimulationError):
    """A stencil center lies outside the grid minus its support radius."""


class NumericalError(SimulationError):
    """Non-finite state detected during time stepping."""
