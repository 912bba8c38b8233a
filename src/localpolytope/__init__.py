"""Local models and Bell inequalities for binary-outcome correlation polytopes.

Decides membership of a (scaled) quantum correlation tensor in the local
polytope: conditional-gradient solvers produce explicit convex decompositions
over deterministic strategies on the inside and separating hyperplanes on the
outside, and both are hardened into exact rational certificates.
"""

__version__ = "0.1.0"

from .tensor import (
    CorrelationTensor,
    DeterministicStrategy,
    Scenario,
    inner,
    quantum_tensor,
    scale,
    strategy_tensor,
)
from .polyhedra import (
    RationalPoint,
    RationalPolyhedron,
    faces_and_eta,
    geodesic_icosahedron,
    pentakis_dodecahedron,
    rationalize,
    rationalize_all,
    shrink_weights,
)
from .lmo import (
    QuboInstance,
    exhaustive_lmo,
    heuristic_lmo,
    local_bound,
    qubo_branch_and_bound,
    to_qubo,
)
from .fw import (
    ActiveSet,
    SolverConfig,
    SolverResult,
    bpcg,
    extract_hyperplane,
    frank_wolfe_vanilla,
)
from .certify import (
    LowerBoundCertificate,
    TargetSpec,
    UpperBoundCertificate,
    assemble_lower,
    assemble_upper,
    ball_decomposition,
    derived_bounds,
    integerize_functional,
    nu_factor,
    rationalize_weights,
    read_certificate,
    verify,
    write_certificate,
)
from .states import (
    chsh_vectors,
    ghz_polygon_tensor,
    ghz_state,
    polygon_vectors,
    singlet_state,
    singlet_tensor,
    w_state,
)
