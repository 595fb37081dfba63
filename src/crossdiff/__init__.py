"""Numerical laboratory for strongly coupled cross-diffusion systems.

Modules: :mod:`crossdiff.model` (problem data and truncation),
:mod:`crossdiff.conditions` (admissibility inequalities),
:mod:`crossdiff.solver` (semi-implicit finite-volume integrator),
:mod:`crossdiff.diagnostics` (level-set, bound and uniqueness witnesses),
:mod:`crossdiff.aquifer` (sharp-interface seawater intrusion with penalized
confinement) and :mod:`crossdiff.cli` (batch front-end).
"""

from .conditions import (ConditionReport, DeGiorgiBudget, MeyersConstants,
                         check_aquifer_admissibility, check_existence,
                         check_regularity, degiorgi_budget, meyers_constants)
from .fv import SolverFailure
from .model import (CrossTensor, EllipticityError, Grid,
                    InvalidParameterError, ModelSpec, ellipticity_bounds,
                    species_flux, truncate, validate_spec)
from .solver import (SimulationResult, StepperConfig, convergence_study,
                     mass_balance_residual, run)

__all__ = [
    "CrossTensor", "Grid", "ModelSpec", "truncate", "ellipticity_bounds",
    "species_flux", "validate_spec", "EllipticityError", "InvalidParameterError",
    "ConditionReport", "MeyersConstants", "DeGiorgiBudget", "check_existence",
    "meyers_constants", "check_regularity", "degiorgi_budget",
    "check_aquifer_admissibility",
    "StepperConfig", "SimulationResult", "SolverFailure", "run",
    "mass_balance_residual", "convergence_study",
]

__version__ = "0.1.0"
