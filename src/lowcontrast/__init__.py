"""Two-phase conductor ground-state design in the low-contrast regime.

P1 finite elements on triangular meshes, arbitrary-order eigenvalue
perturbation series with remainder-order certification, the relaxed
second-order design objective, and a volume-constrained projected
gradient optimizer.
"""
from .eig import Discretization, EigenPair, ShiftedSolver, SolverError
from .expansion import ExpansionSeries, RemainderReport, compute_series, direct_eigenvalue, remainder_report
from .fem import SparsePencil, assemble_mass, assemble_stiffness, build_pencil, element_gradient
from .mesh import Mesh, MshParseError, generate_unit_square, import_msh
from .optimizer import OptimizerConfig, OptimizerState, project_volume, run
from .relax import RelaxedEval, RelaxedObjective
from .vtkio import export_vtk

__all__ = [
    "Discretization",
    "EigenPair",
    "ExpansionSeries",
    "Mesh",
    "MshParseError",
    "OptimizerConfig",
    "OptimizerState",
    "RelaxedEval",
    "RelaxedObjective",
    "RemainderReport",
    "ShiftedSolver",
    "SolverError",
    "SparsePencil",
    "assemble_mass",
    "assemble_stiffness",
    "build_pencil",
    "compute_series",
    "direct_eigenvalue",
    "element_gradient",
    "export_vtk",
    "generate_unit_square",
    "import_msh",
    "project_volume",
    "remainder_report",
    "run",
]

__version__ = "0.1.0"
