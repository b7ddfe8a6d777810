"""Hybrid particle-grid solver with an adaptive reference configuration.

Particles carry material state; momentum is solved on a sparse background
grid.  Kernels, gradient weights and reference positions are bound to a
per-object reference configuration that is rebound only when accumulated
deformation trips a per-object policy, which interpolates between a fully
Lagrangian scheme (never rebind) and a per-step updated scheme (always
rebind).
"""

from .constitutive import MaterialModel, energy_and_piola, plastic_project
from .engine import Simulation
from .errors import (
    NumericalError,
    OutOfDomainError,
    SceneError,
    SimulationError,
)
from .grid import HalfSpace, SparseGrid, SphereObstacle
from .kinematics import ConfigurationMap, DeformationState, UpdatePolicy
from .scene import (Scene, SolverConfig, bundled_scene, load_scene,
                    sample_shape)
from .transfers import Body
from .verify import convergence_study, error_norm, run_property_checks, update_stats

__all__ = [
    "Body",
    "ConfigurationMap",
    "DeformationState",
    "HalfSpace",
    "MaterialModel",
    "NumericalError",
    "OutOfDomainError",
    "Scene",
    "SceneError",
    "SimulationError",
    "Simulation",
    "SolverConfig",
    "SparseGrid",
    "SphereObstacle",
    "UpdatePolicy",
    "convergence_study",
    "energy_and_piola",
    "error_norm",
    "bundled_scene",
    "load_scene",
    "plastic_project",
    "run_property_checks",
    "sample_shape",
    "update_stats",
]

__version__ = "0.1.0"
