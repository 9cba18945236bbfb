"""P1 finite element energy minimisation on simplicial meshes, with
empirical verification of convex hull and maximum principles for the
computed minimisers."""

from .mesh import (
    Mesh, AngleReport, MeshFormatError, MeshConformityError,
    ACUTE, NON_OBTUSE, OBTUSE,
    classify_mesh, build_structured_mesh, load_mesh, save_mesh, GENERATORS,
)
from .field import (
    NodalField, BoundaryData, FieldFormatError,
    interpolate_boundary, save_field, load_field,
)
from .energy import (
    EnergyModel, p_dirichlet, mean_curvature, orlicz, parse_energy,
    SourceTerm, LumpedTerm, lumped_weights, energy_value, residual,
)
from .convex import (
    ConvexSet, finite_hull, hull_with_origin,
    project, worst_distance, boundary_hull, is_extreme,
    CertificateError,
    certificate_stats, reset_certificate_stats,
)
from .solver import (
    SolveReport, LineSearchError, minimize,
    solve_quadratic_oracle, assemble_hessian,
)
from .verify import (
    VerifyReport,
    verify_chp, verify_dmp, verify_hull_with_zero, verify_strong_chp,
    verify_lemma_pos, beta_weights, search_lemma_violation,
)

__version__ = "0.1.0"
