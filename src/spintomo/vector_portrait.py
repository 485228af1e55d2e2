"""Joint spin (x) space maps between spinor densities and vector distributions.

A vector distribution collects (2s+1)^2 real components: component j is the
spatial transform (Wigner, optical, symplectic, or Husimi) of the spin
contraction Tr_spin(U_j rho), taken on factors (see to_vector).  Reconstruction
inverts the spatial map per component and resums with the dual frame.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnsupportedInverseError
from .grids import PhaseSpaceGrid, ScalarField, TomogramDomain
from .phase_space import (
    _imag_residues,
    _kernel_of_wigner,
    _level_factors,
    _wigner_of_factors,
    husimi_from_wigner,
    invert_optical,
    radon_slices,
    symplectic_profiles,
)
from .spin_frames import SpinFrame

VECTOR_REPRESENTATIONS = ("wigner", "optical", "husimi", "symplectic-section")

# largest imaginary residue the audit accepts as round-off (realness_ok)
REALNESS_BOUND = 1e-12


class SpinorDensity:
    """Spin (x) spatial density sum_r p_r |psi_r><psi_r|.  It holds what it
    was built from, its factors or its dense blocks rho_ab(x, x'), and
    computes the other once, on first use."""

    def __init__(self, grid: PhaseSpaceGrid, blocks: np.ndarray):
        self.grid = grid
        self.blocks = np.asarray(blocks, dtype=complex)  # (d, d, n, n)

    @classmethod
    def from_pure(cls, psi: np.ndarray, grid: PhaseSpaceGrid) -> "SpinorDensity":
        """rho = |psi><psi| for a normalized spinor field psi of shape (d, n)."""
        return cls.from_mixture([1.0], [psi], grid)

    @classmethod
    def from_mixture(cls, probs, psis, grid: PhaseSpaceGrid) -> "SpinorDensity":
        """rho = sum_r probs[r] |psis[r]><psis[r]|, kept as these factors."""
        rho = cls.__new__(cls)
        rho.grid = grid
        rho.factors = (np.array(probs, dtype=float), np.array(psis, dtype=complex))
        return rho

    @cached_property
    def blocks(self) -> np.ndarray:
        """Dense kernels blocks[a, b] = rho_ab(x, x'), shape (d, d, n, n)."""
        probs, fields = self.factors
        return np.einsum("r,rai,rbj->abij", probs, fields, fields.conj())

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(probs (r,), fields (r, d, n)).  From blocks: the eigenpairs with
        |p| > 1e-12 of one eigensolve, which reads one triangle only, so
        non-Hermitian blocks raise ValueError."""
        if not self.hermiticity_residual() <= 1e-12:
            raise ValueError(f"density is not Hermitian: {self.hermiticity_residual():.3e}")
        d, _, n, _ = self.blocks.shape
        evals, evecs = np.linalg.eigh(self.to_matrix())
        probs = evals * self.grid.dx
        keep = np.abs(probs) > 1e-12
        return probs[keep], evecs[:, keep].T.reshape(-1, d, n) / np.sqrt(self.grid.dx)

    def trace(self) -> float:
        if "blocks" in vars(self):
            return float(np.einsum("aaii->", self.blocks).real * self.grid.dx)
        probs, fields = self.factors
        return float(probs @ np.sum(np.abs(fields)**2, axis=(1, 2)) * self.grid.dx)

    def hermiticity_residual(self) -> float:
        swapped = np.conj(np.transpose(self.blocks, (1, 0, 3, 2)))
        return float(np.max(np.abs(self.blocks - swapped)))

    def to_matrix(self) -> np.ndarray:
        """Flat (d*n, d*n) matrix with row index (a, i)."""
        d, _, n, _ = self.blocks.shape
        return np.transpose(self.blocks, (0, 2, 1, 3)).reshape(d * n, d * n)


@dataclass(frozen=True)
class VectorDistribution:
    """(2s+1)^2 real components over a shared representation domain."""

    representation: str
    components: np.ndarray  # (d^2, ...) real
    frame: SpinFrame
    grid: PhaseSpaceGrid
    domain: TomogramDomain | None = None
    time: float = 0.0
    imag_residues: np.ndarray | None = None

    def __post_init__(self):
        if self.representation not in VECTOR_REPRESENTATIONS:
            raise ValueError(f"unknown representation {self.representation!r}")

    def component_integrals(self) -> np.ndarray:
        g = self.grid
        if self.representation in ("wigner", "husimi"):
            return np.sum(self.components, axis=(1, 2)) * g.cell
        dxs = self.domain.dx
        # tomographic kinds: integral over X; average over the parameter slices
        return np.mean(np.sum(self.components, axis=-1), axis=tuple(
            range(1, self.components.ndim - 1))) * dxs

    def normalization_sum(self) -> float:
        """Total trace sum_j Tr(D_j) * integral(w_j); 1 for a normalized state."""
        return float(self.frame.quantizer_traces @ self.component_integrals())


def to_vector(rho: SpinorDensity, frame: SpinFrame, representation: str,
              dom: TomogramDomain | None = None, time: float = 0.0) -> VectorDistribution:
    """Vector distribution of a spinor density in the chosen representation.

    imag_residues holds, per component j, the largest imaginary part that the
    real Wigner transform of K_j = Tr_spin(U_j rho) leaves out
    (phase_space._imag_residues), whatever the representation: dx / (2 pi hbar)
    times the largest |Im K_j(q + L/4, q - L/4)|, the component's coherence at
    half-box separation (L the box length); the audit's realness check fails
    above 1e-12.  It is round-off (about 1e-18) only where those coherences
    are real, as for a packet at rest: a Gaussian packet of width sigma and
    momentum p0 reads about exp(-L^2 / (32 sigma^2)) |sin(p0 L / (2 hbar))|
    there, so on balanced(128) (q0, p0, sigma) = (1, 0.5, 1) gives 1.2e-13
    and (1, 0.5, 1.1) gives 8.8e-12.

    Each representation is computed from the factors phi_jr directly: the
    Wigner stack (_wigner_of_factors) is built only for the Wigner and Husimi
    representations, and the tomograms rotate the factors themselves.  Husimi
    components are smoothed one at a time into the Wigner stack they came
    from, so no second stack is held.
    """
    probs, fields = rho.factors
    if frame.dim != fields.shape[1]:
        raise ValueError(
            f"frame dimension {frame.dim} != state spin dimension {fields.shape[1]}")
    if representation not in VECTOR_REPRESENTATIONS:
        raise ValueError(f"unknown representation {representation!r}")
    # K_j = Tr_spin(U_j rho) = sum_r p_r phi_jr phi_jr^H with phi_jr = u_j^H psi_r
    amps = np.einsum("ja,rax->jrx", frame.vectors.conj(), fields).reshape(-1, rho.grid.n)
    factors = (np.kron(np.eye(frame.size), probs), amps)
    residues = _imag_residues(*factors, rho.grid)

    # the tomograms rotate the factors: their Wigner-stack argument carries
    # only the component count
    shape_only = np.empty((frame.size, 0, 0))
    if representation in ("wigner", "husimi"):
        comps = _wigner_of_factors(*factors, rho.grid)
        if representation == "husimi":
            for j, w in enumerate(comps):
                comps[j] = husimi_from_wigner(ScalarField(rho.grid, w, "wigner")).values
    elif representation == "optical":
        if dom is None or dom.kind != "optical":
            raise ValueError("optical representation needs an optical domain")
        comps = radon_slices(shape_only, rho.grid, dom.thetas, dom.x, factors=factors)
    else:
        if dom is None or dom.kind != "symplectic":
            raise ValueError("symplectic representation needs a symplectic domain")
        comps = symplectic_profiles(shape_only, rho.grid, dom.mu, dom.nu, dom.x,
                                    factors=factors)

    return VectorDistribution(
        representation=representation, components=comps, frame=frame,
        grid=rho.grid, domain=dom, time=time, imag_residues=residues,
    )


def from_vector(v: VectorDistribution, frame: SpinFrame) -> SpinorDensity:
    """Spinor density from a vector distribution (wigner or optical route).

    Wigner route: each component's kernel by the inverse skew FFT, resummed
    with the dual frame into dense blocks.  Optical route: each component's
    density matrix over the oscillator levels psi_0..psi_N (invert_optical),
    resummed with the dual frame into the (2s+1)(N+1) square matrix of the
    state in the basis |a> (x) psi_m, whose eigenpairs with |p| > 1e-12
    (phase_space._level_factors) are the state's factors.
    """
    if v.representation == "wigner":
        kernels = _kernel_of_wigner(v.components, v.grid)
        return SpinorDensity(v.grid, np.tensordot(frame.quantizer, kernels, axes=(0, 0)))
    if v.representation != "optical":
        raise UnsupportedInverseError(
            f"no inverse map for the {v.representation} representation; "
            "reconstruct through the wigner route instead")
    levels = invert_optical(v.components, v.grid, v.domain)
    d, n_levels = frame.dim, levels.shape[-1]
    joint = np.tensordot(frame.quantizer, levels, axes=(0, 0))     # (a, b, m, n)
    joint = joint.transpose(0, 2, 1, 3).reshape(d * n_levels, -1)
    return SpinorDensity.from_mixture(*_level_factors(joint, d, v.grid), v.grid)


@dataclass(frozen=True)
class AuditReport:
    """Measured invariants of a vector distribution; never raises."""

    representation: str
    component_integrals: np.ndarray
    min_values: np.ndarray
    max_values: np.ndarray
    imag_residues: np.ndarray
    normalization_sum: float
    normalization_ok: bool
    nonnegativity_ok: bool | None   # None: negativity expected (wigner)
    integral_bounds_ok: bool
    realness_ok: bool
    pointwise_upper_ok: bool        # recorded, not enforced
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        checks = [self.normalization_ok, self.integral_bounds_ok, self.realness_ok]
        if self.nonnegativity_ok is not None:
            checks.append(self.nonnegativity_ok)
        return all(checks)

    def as_dict(self) -> dict:
        return {
            "representation": self.representation,
            "component_integrals": self.component_integrals.tolist(),
            "min_values": self.min_values.tolist(),
            "max_values": self.max_values.tolist(),
            "imag_residues": self.imag_residues.tolist(),
            "normalization_sum": self.normalization_sum,
            "normalization_ok": self.normalization_ok,
            "nonnegativity_ok": self.nonnegativity_ok,
            "integral_bounds_ok": self.integral_bounds_ok,
            "realness_ok": self.realness_ok,
            "pointwise_upper_ok": self.pointwise_upper_ok,
            "passed": self.passed,
            "notes": list(self.notes),
        }


def audit(v: VectorDistribution) -> AuditReport:
    """Normalization, positivity, and realness report for a vector distribution."""
    integrals = v.component_integrals()
    mins = np.min(v.components, axis=tuple(range(1, v.components.ndim)))
    maxs = np.max(v.components, axis=tuple(range(1, v.components.ndim)))
    residues = (v.imag_residues if v.imag_residues is not None
                else np.zeros(len(integrals)))
    norm_sum = v.normalization_sum()

    notes = []
    if v.representation == "wigner":
        nonneg = None
        if np.any(mins < -1e-9):
            notes.append("negative values present: expected for the wigner representation")
    else:
        nonneg = bool(np.all(mins >= -1e-9))
    bounds_ok = bool(np.all(integrals >= -1e-9) and np.all(integrals <= 1.0 + 1e-9))
    realness_ok = bool(np.all(residues <= REALNESS_BOUND))
    upper_ok = bool(np.all(maxs <= 1.0 + 1e-6))
    if not upper_ok:
        notes.append("pointwise values exceed 1: recorded only, densities may legitimately do so")

    return AuditReport(
        representation=v.representation,
        component_integrals=integrals,
        min_values=mins,
        max_values=maxs,
        imag_residues=np.asarray(residues),
        normalization_sum=norm_sum,
        normalization_ok=bool(abs(norm_sum - 1.0) <= 1e-8),
        nonnegativity_ok=nonneg,
        integral_bounds_ok=bounds_ok,
        realness_ok=realness_ok,
        pointwise_upper_ok=upper_ok,
        notes=tuple(notes),
    )


def fidelity_with_pure(rho: SpinorDensity, psi: np.ndarray) -> float:
    """<psi|rho|psi> / Tr rho for a normalized pure spinor field psi.

    A density that holds no dense blocks is read from its factors,
    sum_r p_r |<psi|psi_r>|^2, and builds none.
    """
    g = rho.grid
    if "blocks" in vars(rho):
        val = (np.einsum("ai,abij,bj->", psi.conj(), rho.blocks, psi) * g.dx**2).real
    else:
        probs, fields = rho.factors
        overlaps = np.einsum("ai,rai->r", psi.conj(), fields) * g.dx
        val = probs @ np.abs(overlaps)**2
    return float(val / rho.trace())
