"""LDG solver for a third-order singularly perturbed convection-diffusion
boundary-value problem on layer-adapted meshes, with a convergence-study
harness."""

from .basis import LayerFn, PiecewisePoly, Quadrature, gauss_quadrature
from .cases import TestCase, boundary_layer_case
from .errors import ErrorRecord, error_record, rate_r2, rate_rs
from .meshes import Mesh, MeshKind, MeshSpec, build_mesh, transition_tau, uniform_mesh
from .solver import BlockSystem, LdgSolution, Problem, assemble, solve, solve_ldg
from .study import (ConvergenceReport, StudyConfig, StudyRow, emit_plotdata,
                    emit_table, run_study)

__all__ = [
    "BlockSystem", "ConvergenceReport", "ErrorRecord", "LayerFn",
    "LdgSolution", "Mesh", "MeshKind", "MeshSpec", "PiecewisePoly",
    "Problem", "Quadrature", "StudyConfig", "StudyRow", "TestCase",
    "assemble", "boundary_layer_case", "build_mesh", "emit_plotdata",
    "emit_table", "error_record", "gauss_quadrature", "rate_r2", "rate_rs",
    "run_study", "solve", "solve_ldg", "transition_tau", "uniform_mesh",
]
