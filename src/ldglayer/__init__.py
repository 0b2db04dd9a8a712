"""LDG solver for a third-order singularly perturbed convection-diffusion
boundary-value problem on layer-adapted meshes, with a convergence-study
harness."""

from .basis import (LayerFn, PiecewisePoly, ProjectionSign, Quadrature,
                    gauss_quadrature, project_gauss_radau)
from .cases import TestCase, boundary_layer_case, polynomial_case
from .errors import (ErrorRecord, ProjectionErrors, auxiliary_identity_residuals,
                     error_record, fit_rate, projection_error_suite, rate_r2,
                     rate_rs)
from .meshes import Mesh, MeshKind, MeshSpec, build_mesh, transition_tau, uniform_mesh
from .solver import (BlockSystem, LdgSolution, Problem, assemble, bilinear_form,
                     energy_norm, solve, solve_ldg)
from .study import (ConvergenceReport, StudyConfig, StudyRow, emit_plotdata,
                    emit_table, run_study)

__all__ = [
    "BlockSystem", "ConvergenceReport", "ErrorRecord", "LayerFn",
    "LdgSolution", "Mesh", "MeshKind", "MeshSpec", "PiecewisePoly",
    "Problem", "ProjectionErrors", "ProjectionSign", "Quadrature",
    "StudyConfig", "StudyRow", "TestCase",
    "assemble", "auxiliary_identity_residuals", "bilinear_form",
    "boundary_layer_case", "build_mesh", "emit_plotdata", "emit_table",
    "energy_norm", "error_record", "fit_rate", "gauss_quadrature",
    "polynomial_case", "project_gauss_radau", "projection_error_suite",
    "rate_r2", "rate_rs", "run_study", "solve", "solve_ldg",
    "transition_tau", "uniform_mesh",
]
