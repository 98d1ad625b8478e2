"""Subspace eigensolvers that keep found eigenvalues by selection, not
deflation.

The package computes several eigenpairs of polynomial, general nonlinear,
and linear multiparameter eigenvalue problems.  Instead of locking or
deflating converged pairs, every new candidate is screened against the
registry of converged triplets with a divided-difference criterion that
vanishes on eigenvectors of other eigenvalues, so repeated convergence to a
known pair is filtered out before any Rayleigh-Ritz work is wasted on it.

Layout:

    problems     polynomial / general nonlinear problem containers, generators
    homogeneous  projective eigenvalue points, infinite eigenvalues
    selection    registry, divided-difference criterion, registration
    linsolve     GMRES, LU preconditioning, correction and null-vector solves
    jdsolver     the selection loop of both solvers, jd_solve for
                 one-parameter problems
    mep          linear two/three-parameter problems, tensor criterion,
                 mep_subspace_solve on jdsolver's selection loop
    oracle       dense brute-force references: oracle_all_eigenpairs for
                 PEPs, dense_solve for MEPs; no solver or CLI path uses them
"""

from . import homogeneous, jdsolver, linsolve, mep, oracle, problems, selection
from .homogeneous import ProjectivePoint, chordal_distance, from_scalar
from .jdsolver import JDOptions, Record, SolveResult, jd_solve
from .mep import (
    LinearMep2,
    LinearMep3,
    MepOptions,
    gen_fourpoint_bvp,
    gen_random_mep,
    mep_subspace_solve,
    oscillation_index,
)
from .oracle import OracleCapError, dense_solve, oracle_all_eigenpairs
from .problems import (
    GeneralNep,
    PolyProblem,
    gen_example_2x2,
    gen_gyroscopic,
    gen_random_pep,
)
from .selection import (
    DefectiveEigenvalueError,
    EigenTriplet,
    ErrorBoundError,
    criterion_value,
    passes,
    register,
)

__version__ = "0.1.0"

__all__ = [
    "homogeneous",
    "jdsolver",
    "linsolve",
    "mep",
    "oracle",
    "problems",
    "selection",
    "ProjectivePoint",
    "chordal_distance",
    "from_scalar",
    "JDOptions",
    "OracleCapError",
    "Record",
    "SolveResult",
    "jd_solve",
    "oracle_all_eigenpairs",
    "LinearMep2",
    "LinearMep3",
    "MepOptions",
    "dense_solve",
    "gen_fourpoint_bvp",
    "gen_random_mep",
    "mep_subspace_solve",
    "oscillation_index",
    "GeneralNep",
    "PolyProblem",
    "gen_example_2x2",
    "gen_gyroscopic",
    "gen_random_pep",
    "DefectiveEigenvalueError",
    "EigenTriplet",
    "ErrorBoundError",
    "criterion_value",
    "passes",
    "register",
    "__version__",
]
