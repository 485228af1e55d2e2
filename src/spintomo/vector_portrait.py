"""Joint spin (x) space maps between spinor densities and vector distributions.

A vector distribution collects (2s+1)^2 real components: component j is the
spatial transform (Wigner, optical, symplectic, or Husimi) of the spin
contraction sum_kl U_j[l,k] rho_kl(x, x').  Reconstruction inverts the spatial
map per component and resums with the dual frame.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import eigh

from .errors import UnsupportedInverseError
from .grids import (
    PhaseSpaceGrid,
    ScalarField,
    TomogramDomain,
    _coordinate_columns,
    save_field,
    write_csv,
)
from .phase_space import (
    _kernel_of_wigner,
    _wigner_of_kernel,
    back_project,
    husimi_from_wigner,
    radon_slices,
    symplectic_profiles,
)
from .spin_frames import SpinFrame

VECTOR_REPRESENTATIONS = ("wigner", "optical", "husimi", "symplectic-section")


@dataclass(frozen=True)
class SpinorDensity:
    """Spin (x) spatial density: blocks[a, b] is the kernel rho_ab(x, x')."""

    grid: PhaseSpaceGrid
    blocks: np.ndarray  # (d, d, n, n) complex

    @property
    def spin_dim(self) -> int:
        return self.blocks.shape[0]

    @classmethod
    def from_pure(cls, psi: np.ndarray, grid: PhaseSpaceGrid) -> "SpinorDensity":
        """rho = |psi><psi| for a normalized spinor field psi of shape (d, n)."""
        psi = np.asarray(psi, dtype=complex)
        blocks = np.einsum("ai,bj->abij", psi, psi.conj())
        return cls(grid=grid, blocks=blocks)

    @classmethod
    def from_mixture(cls, probs, psis, grid: PhaseSpaceGrid) -> "SpinorDensity":
        blocks = sum(p * np.einsum("ai,bj->abij", psi, psi.conj())
                     for p, psi in zip(probs, psis))
        return cls(grid=grid, blocks=np.asarray(blocks, dtype=complex))

    def trace(self) -> float:
        return float(np.einsum("aaii->", self.blocks).real * self.grid.dx)

    def hermiticity_residual(self) -> float:
        swapped = np.conj(np.transpose(self.blocks, (1, 0, 3, 2)))
        return float(np.max(np.abs(self.blocks - swapped)))

    def spin_matrix(self) -> np.ndarray:
        """Reduced spin density matrix (spatial degrees traced out)."""
        return np.einsum("abii->ab", self.blocks) * self.grid.dx

    def to_matrix(self) -> np.ndarray:
        """Flat (d*n, d*n) matrix with row index (a, i)."""
        d, _, n, _ = self.blocks.shape
        return np.transpose(self.blocks, (0, 2, 1, 3)).reshape(d * n, d * n)

    @classmethod
    def from_matrix(cls, mat: np.ndarray, grid: PhaseSpaceGrid, spin_dim: int) -> "SpinorDensity":
        n = grid.n
        blocks = np.transpose(mat.reshape(spin_dim, n, spin_dim, n), (0, 2, 1, 3))
        return cls(grid=grid, blocks=np.ascontiguousarray(blocks))

    def positivity_samples(self, n_vectors: int = 100, seed: int = 0) -> float:
        """Smallest <phi|rho|phi> over randomized normalized test vectors."""
        rng = np.random.default_rng(seed)
        d, _, n, _ = self.blocks.shape
        worst = np.inf
        mat = self.to_matrix()
        for _ in range(n_vectors):
            phi = rng.normal(size=d * n) + 1j * rng.normal(size=d * n)
            phi /= np.linalg.norm(phi) * np.sqrt(self.grid.dx)
            val = float(np.real(phi.conj() @ mat @ phi) * self.grid.dx**2)
            worst = min(worst, val)
        return worst

    def eigen_decomposition(self, tol: float = 1e-12):
        """Probabilities and discrete-normalized spinor fields with p > tol.

        Only the eigenpairs above tol are computed (a subset solve); a density
        of low rank skips most of the full (d n)^2 eigenproblem.
        """
        d, _, n, _ = self.blocks.shape
        evals, evecs = eigh(self.to_matrix(),
                             subset_by_value=(tol / self.grid.dx, np.inf))
        fields = [evecs[:, i].reshape(d, n) / np.sqrt(self.grid.dx)
                  for i in range(len(evals))]
        return evals * self.grid.dx, fields


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


def _spin_contract(rho: SpinorDensity, frame: SpinFrame) -> np.ndarray:
    """Kernels K_j(x,x') = sum_kl U_j[l,k] rho_kl(x,x'), shape (d^2, n, n)."""
    return np.einsum("jlk,klxy->jxy", frame.dequantizer, rho.blocks)


def to_vector(rho: SpinorDensity, frame: SpinFrame, representation: str,
              dom: TomogramDomain | None = None, time: float = 0.0) -> VectorDistribution:
    """Vector distribution of a spinor density in the chosen representation."""
    if frame.dim != rho.spin_dim:
        raise ValueError(
            f"frame dimension {frame.dim} != state spin dimension {rho.spin_dim}")
    if representation not in VECTOR_REPRESENTATIONS:
        raise ValueError(f"unknown representation {representation!r}")
    kernels = _spin_contract(rho, frame)
    wigners = np.stack([_wigner_of_kernel(k, rho.grid) for k in kernels])
    residues = np.max(np.abs(wigners.imag), axis=(1, 2))
    wigners = wigners.real

    if representation == "wigner":
        comps = wigners
    elif representation == "husimi":
        comps = np.stack([
            husimi_from_wigner(ScalarField(rho.grid, w, "wigner")).values
            for w in wigners
        ])
    elif representation == "optical":
        if dom is None or dom.kind != "optical":
            raise ValueError("optical representation needs an optical domain")
        comps = radon_slices(wigners, rho.grid, dom.thetas, dom.x, kernels=kernels)
    else:
        if dom is None or dom.kind != "symplectic":
            raise ValueError("symplectic representation needs a symplectic domain")
        comps = symplectic_profiles(wigners, rho.grid, dom.mu, dom.nu, dom.x,
                                    kernels=kernels)

    return VectorDistribution(
        representation=representation, components=comps, frame=frame,
        grid=rho.grid, domain=dom, time=time, imag_residues=residues,
    )


def from_vector(v: VectorDistribution, frame: SpinFrame) -> SpinorDensity:
    """Spinor density from a vector distribution (wigner or optical route)."""
    if v.representation == "wigner":
        wigners = v.components
    elif v.representation == "optical":
        wigners = back_project(v.components, v.grid, v.domain)
    else:
        raise UnsupportedInverseError(
            f"no inverse map for the {v.representation} representation; "
            "reconstruct through the wigner route instead")
    kernels = np.stack([_kernel_of_wigner(w, v.grid) for w in wigners])
    blocks = np.einsum("lab,lxy->abxy", frame.quantizer, kernels)
    return SpinorDensity(grid=v.grid, blocks=blocks)


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
    realness_ok = bool(np.all(residues <= 1e-12))
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


def save_vector(v: VectorDistribution, directory: str | Path, basename: str = "vector") -> None:
    """Metadata JSON plus one binary field per component."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "representation": v.representation,
        "time": v.time,
        "grid": v.grid.describe(),
        "n_components": int(v.components.shape[0]),
        "frame": json.loads(v.frame.to_json()),
    }
    if v.domain is not None:
        meta["domain"] = v.domain.describe()
    (directory / f"{basename}.json").write_text(json.dumps(meta, sort_keys=True))
    for j, comp in enumerate(v.components):
        save_field(ScalarField(v.grid, comp, v.representation, domain=v.domain),
                   directory / f"{basename}_w{j + 1}")


def vector_to_csv(v: VectorDistribution, path: str | Path) -> None:
    """CSV with coordinate columns and one column per component."""
    columns = _coordinate_columns(v.representation, v.grid, v.domain)
    columns.update((f"w{j + 1}", comp.ravel()) for j, comp in enumerate(v.components))
    write_csv(path, columns)


def fidelity_with_pure(rho: SpinorDensity, psi: np.ndarray) -> float:
    """<psi|rho|psi> / Tr rho for a normalized pure spinor field psi."""
    g = rho.grid
    val = np.einsum("ai,abij,bj->", psi.conj(), rho.blocks, psi) * g.dx**2
    return float(val.real / rho.trace())
