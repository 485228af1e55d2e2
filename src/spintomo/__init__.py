"""Vector tomographic portraits of spinning particles on a 1-D grid.

Builds projector frames for arbitrary spin, maps spinor densities to
(2s+1)^2-component distributions (optical, symplectic, Wigner, Husimi),
reconstructs states, and verifies the representation evolution equations
against an exact propagator.
"""
from .dynamics import (
    EMFieldConfig,
    PropagatorConfig,
    Trajectory,
    VectorTrajectory,
    evolve_oracle,
    evolve_wigner_vector,
    fit_precession_frequency,
    hamiltonian_apply,
    spin_coupling_matrix,
)
from .errors import (
    ConfigError,
    DegenerateFrameError,
    FrameSearchError,
    SchemeMismatchError,
    UndersampledDomainError,
    UnsupportedInverseError,
)
from .grids import PhaseSpaceGrid, ScalarField, TomogramDomain
from .phase_space import (
    ddx,
    husimi_from_wigner,
    wigner_from_optical,
)
from .residuals import (
    ConvergenceReport,
    ResidualReport,
    StateSpec,
    residual_check,
    residual_convergence,
)
from .spin_frames import (
    SpinFrame,
    build_frame,
    build_spin1_frame,
    eigenprojector,
    paper_quantizer_comparison,
    random_frame,
    solve_dual_frame,
    spin_eigenvector,
    spin_operators,
)
from .states import (
    gaussian_packet,
    oscillator_eigenstate,
    random_band_limited_state,
    spin_coherent_state,
    spinor_product_state,
)
from .vector_portrait import (
    AuditReport,
    SpinorDensity,
    VectorDistribution,
    audit,
    fidelity_with_pure,
    from_vector,
    to_vector,
)

__all__ = [name for name in dir() if not name.startswith("_")]
