"""Joint spin (x) space maps between spinor densities and vector distributions.

A vector distribution collects (2s+1)^2 real components: component j is the
spatial transform (Wigner, optical, symplectic, or Husimi) of the spin
contraction Tr_spin(U_j rho), taken on factors (see to_vector).  Reconstruction
inverts the spatial map on the portrait's phase-space functions and resums with
the dual frame, mixed as the components are (see from_vector).
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field, fields as record_fields
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
from .states import oscillator_basis

VECTOR_REPRESENTATIONS = ("wigner", "optical", "husimi", "symplectic-section")
# the domain kind each tomographic representation samples
_DOMAIN_KINDS = {"optical": "optical", "symplectic-section": "symplectic"}


def _checked_domain(representation: str, dom: TomogramDomain | None) -> TomogramDomain | None:
    """The domain a representation samples: dom for a tomographic one, which
    needs a domain of its kind (ValueError otherwise), and None for wigner
    and husimi, which sample the grid."""
    kind = _DOMAIN_KINDS.get(representation)
    if kind is not None and (dom is None or dom.kind != kind):
        raise ValueError(f"the {representation} representation needs a domain of kind "
                         f"{kind!r}, got {dom and dom.kind!r}")
    return dom if kind else None

# largest imaginary residue the audit accepts as round-off (realness_ok)
REALNESS_BOUND = 1e-12

# Singular values below this share of the largest are round-off and dropped
# where a state is split into Schmidt pairs (to_vector).  A product state's
# second Schmidt value is round-off: at most 3.6e-16 of the first for spin-1
# coherent and product packets on balanced(128), 3.7e-17 for a packet at the
# band edge of balanced(64).
_RANK_RTOL = 1e-14


class SpinorDensity:
    """Spin (x) spatial density sum_r p_r |psi_r><psi_r|.  It holds what it
    was built from, its factors or its dense blocks rho_ab(x, x'), and
    computes the other once, on first use.  Blocks other than (d, d, n, n),
    or weights and fields other than (r,) and (r, d, n), on a grid of n
    points raise ValueError; the weights may be negative, as those of an
    indefinite reconstruction are."""

    def __init__(self, grid: PhaseSpaceGrid, blocks: np.ndarray):
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.ndim != 4 or blocks.shape != (len(blocks), len(blocks), grid.n, grid.n):
            raise ValueError(f"blocks of shape {blocks.shape} on a grid of {grid.n} points: "
                             f"(d, d, {grid.n}, {grid.n}) is needed")
        self.grid = grid
        self.blocks = blocks

    @classmethod
    def from_pure(cls, psi: np.ndarray, grid: PhaseSpaceGrid) -> "SpinorDensity":
        """rho = |psi><psi| for a normalized spinor field psi of shape (d, n)."""
        return cls.from_mixture([1.0], [psi], grid)

    @classmethod
    def from_mixture(cls, probs, psis, grid: PhaseSpaceGrid) -> "SpinorDensity":
        """rho = sum_r probs[r] |psis[r]><psis[r]|, kept as these factors."""
        probs, fields = np.array(probs, dtype=float), np.array(psis, dtype=complex)
        if probs.ndim != 1 or fields.ndim != 3 or fields.shape[::2] != (len(probs), grid.n):
            raise ValueError(f"weights of shape {probs.shape} and fields of shape "
                             f"{fields.shape} on a grid of {grid.n} points: (r,) and "
                             f"(r, d, {grid.n}) are needed")
        rho = cls.__new__(cls)
        rho.grid = grid
        rho.factors = (probs, fields)
        return rho

    @cached_property
    def blocks(self) -> np.ndarray:
        """Dense kernels blocks[a, b] = rho_ab(x, x'), shape (d, d, n, n)."""
        probs, fields = self.factors
        return np.einsum("r,rai,rbj->abij", probs, fields, fields.conj())

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(probs (r,), fields (r, d, n)).  From blocks: the eigenpairs with
        |p| > 1e-12 of sum_ab |a><b| (x) blocks[a, b] dx, solved in the range
        of the blocks (phase_space._level_factors), which reads one triangle
        only, so non-Hermitian blocks raise ValueError."""
        if not self.hermiticity_residual() <= 1e-12:
            raise ValueError(f"density is not Hermitian: {self.hermiticity_residual():.3e}")
        d, _, n, _ = self.blocks.shape
        dx = self.grid.dx
        return _level_factors(np.eye(d * d).reshape(d * d, d, d),
                              self.blocks.reshape(d * d, n, n) * dx, np.eye(n) / np.sqrt(dx))

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
    """(2s+1)^2 real components over a shared representation domain, with the
    factors they are formed from: components = mixing @ functions, mixing
    (c, R) and functions (R, ...) the R phase-space functions (see to_vector).

    factors, (mixing, functions), is given at construction only.  Without it
    the portrait factors trivially as (I_c, components), so
    dataclasses.replace, which does not pass it, never keeps factors of other
    components.  A component count other than frame.size, factors whose
    shapes disagree with the components, non-finite factors (the components
    themselves when none are given), or imag_residues that are not one
    finite value per component raise ValueError, as do components that do
    not sample the grid, (n, n) for wigner and husimi, or the domain,
    (n_theta, n_x) for optical and (n_mu, n_nu, n_x) for symplectic-section,
    and a tomographic portrait without a domain of its kind; a wigner or
    husimi one keeps no domain.  Components given with factors are taken to
    be mixing @ functions and are not checked.
    """

    representation: str
    components: np.ndarray  # (d^2, ...) real
    frame: SpinFrame
    grid: PhaseSpaceGrid
    domain: TomogramDomain | None = None
    time: float = 0.0
    imag_residues: np.ndarray | None = None
    factors: InitVar[tuple | None] = None
    mixing: np.ndarray = field(init=False, repr=False)
    functions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, factors):
        if self.representation not in VECTOR_REPRESENTATIONS:
            raise ValueError(f"unknown representation {self.representation!r}")
        c = self.frame.size
        if np.ndim(self.components) < 1 or len(self.components) != c:
            raise ValueError(f"{np.shape(self.components)} components for a frame "
                             f"of {c} elements")
        dom = _checked_domain(self.representation, self.domain)
        object.__setattr__(self, "domain", dom)    # None where the grid is sampled
        if dom is None:
            samples = (self.grid.n, self.grid.n)
        elif dom.kind == "optical":
            samples = (len(dom.thetas), len(dom.x))
        else:
            samples = (len(dom.mu), len(dom.nu), len(dom.x))
        if np.shape(self.components)[1:] != samples:
            raise ValueError(f"components of shape {np.shape(self.components)} do not sample "
                             f"the {self.representation} portrait's {samples} points")
        res = self.imag_residues
        if res is not None and (np.shape(res) != (c,) or not np.all(np.isfinite(res))):
            raise ValueError(f"imag_residues of shape {np.shape(res)} for {c} components: "
                             "one finite value per component is needed")
        mixing, functions = (np.eye(c), self.components) if factors is None else factors
        if (np.ndim(mixing) != 2 or np.shape(mixing)[0] != c
                or np.shape(functions) != np.shape(mixing)[1:] + np.shape(self.components)[1:]):
            raise ValueError(f"factors of shapes {np.shape(mixing)} and {np.shape(functions)} "
                             f"do not form components of shape {np.shape(self.components)}")
        if not (np.isfinite(mixing).all() and np.isfinite(functions).all()):
            raise ValueError("the portrait has non-finite components or factors")
        object.__setattr__(self, "mixing", mixing)
        object.__setattr__(self, "functions", functions)

    def component_integrals(self) -> np.ndarray:
        """Integral of each component: the R functions' integrals, mixed."""
        fns = self.functions
        if self.representation in ("wigner", "husimi"):
            integrals = np.sum(fns, axis=(1, 2)) * self.grid.cell
        else:   # tomographic kinds: integral over X; average over the parameter slices
            integrals = np.mean(np.sum(fns, axis=-1), axis=tuple(range(1, fns.ndim - 1)))
            integrals *= self.domain.dx
        return self.mixing @ integrals

    def normalization_sum(self) -> float:
        """Total trace sum_j Tr(D_j) * integral(w_j); 1 for a normalized state."""
        return float(self.frame.quantizer_traces @ self.component_integrals())


def _spin_contracted(probs: np.ndarray, fields: np.ndarray, frame: SpinFrame) -> tuple:
    """Factors (weights (c, l), amps (m, n), mix (l, m) or None) of the
    component kernels K_j = Tr_spin(U_j rho) of rho = sum_r p_r |psi_r><psi_r|:
    K_j = sum_l weights[j, l] a_l a_l^H with rows a = mix @ amps (amps
    themselves when mix is None).

    One SVD splits each psi_r (d, n) into Schmidt pairs,
    psi_r = sum_k s_rk chi_rk (x) phi_rk, keeping the k_r singular values above
    _RANK_RTOL of the largest; amps are the phi_rk, m = sum_r k_r of them.
    With c_jrk = s_rk u_j^H chi_rk, element r adds
    p_r sum_kk' c_jrk c*_jrk' phi_rk phi_rk'^H to K_j.  A product element
    (k_r = 1) is one row phi_r1 of weight p_r |c_jr1|^2 in every component;
    any other is its (2s+1)^2 rows u_j^H psi_r = sum_k c_jrk phi_rk, each of
    weight p_r in its own component.  So l <= (2s+1)^2 r, and l = r for a
    mixture of product states (mix None).
    """
    chis, svals, funcs = np.linalg.svd(fields, full_matrices=False)
    keep = svals > _RANK_RTOL * svals[:, :1]
    coeffs = np.einsum("ja,rak->rjk", frame.vectors.conj(), chis) * svals[:, None, :]
    ranks = np.sum(keep, axis=1)
    n_rows = np.where(ranks > 1, frame.size, ranks)
    weights = np.zeros((frame.size, np.sum(n_rows)))
    mix = np.zeros((np.sum(n_rows), np.sum(ranks)), dtype=complex)
    row = col = 0
    for p, cf, k, n_row in zip(probs, coeffs, ranks, n_rows):
        if k == 1:          # a product element: the one row phi_r1
            weights[:, row] = p * np.abs(cf[:, 0])**2
            mix[row, col] = 1.0
        elif k > 1:         # the rows u_j^H psi_r
            weights[:, row:row + n_row] = p * np.eye(frame.size)
            mix[row:row + n_row, col:col + k] = cf[:, :k]
        row, col = row + n_row, col + k
    return weights, funcs[keep], None if np.all(ranks <= 1) else mix


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

    Every representation reads the factors of _spin_contracted: the Schmidt
    functions phi_rk of the elements psi_r, from one SVD each, and the l rows
    they form.  A product element is one row, phi_r1, weighted into all
    (2s+1)^2 components, where the spin-contracted amplitudes u_j^H psi_r
    would be (2s+1)^2 rows; only an element of Schmidt rank above 1 is
    expanded into those amplitudes.  The Wigner map and the residues read
    the rows; the tomograms rotate and dilate the Schmidt functions alone and
    form the rows at each ray (radon_slices).  No Wigner stack is built for
    the tomograms.

    The portrait keeps its factors (VectorDistribution.mixing and .functions):
    with fewer rows than components (l < c, as for a mixture of fewer than c
    product states) the functions are the l rows' transforms and mixing is
    the (c, l) weights, so the components are one product mixing @ functions;
    otherwise the factors are (I_c, components), transformed with the
    weights.  The Husimi smoothing runs on each function, so on the fewer of
    rows and components.  A state with non-finite values raises ValueError.
    """
    probs, fields = rho.factors
    if frame.dim != fields.shape[1]:
        raise ValueError(
            f"frame dimension {frame.dim} != state spin dimension {fields.shape[1]}")
    if representation not in VECTOR_REPRESENTATIONS:
        raise ValueError(f"unknown representation {representation!r}")
    dom = _checked_domain(representation, dom)
    if not (np.all(np.isfinite(probs)) and np.all(np.isfinite(fields))):
        raise ValueError("the state has non-finite values")
    weights, amps, mix = _spin_contracted(probs, fields, frame)
    rows = amps if mix is None else mix @ amps
    residues = _imag_residues(weights, rows, rho.grid)

    # the maps transform the rows: the rows themselves (weights I) when they
    # are fewer than the components, and mixing forms the components
    n_comp, n_rows = weights.shape
    factored = n_rows < n_comp
    mixing, row_weights = (weights, np.eye(n_rows)) if factored else (np.eye(n_comp), weights)
    # the tomograms rotate the factors: their Wigner-stack argument carries
    # only the output count
    shape_only = np.empty((len(row_weights), 0, 0))
    if representation in ("wigner", "husimi"):
        functions = _wigner_of_factors(row_weights, rows, rho.grid)
        if representation == "husimi":      # smoothed in place, one at a time
            for w in functions:
                w[:] = husimi_from_wigner(ScalarField(rho.grid, w, "wigner")).values
    elif representation == "optical":
        functions = radon_slices(shape_only, rho.grid, dom.thetas, dom.x,
                                 factors=(row_weights, amps, mix))
    else:
        functions = symplectic_profiles(shape_only, rho.grid, dom.mu, dom.nu, dom.x,
                                        factors=(row_weights, amps, mix))

    return VectorDistribution(
        representation=representation,
        components=np.tensordot(mixing, functions, 1) if factored else functions,
        frame=frame, grid=rho.grid, domain=dom, time=time, imag_residues=residues,
        factors=(mixing, functions),
    )


def _frame_label(frame: SpinFrame) -> str:
    return (f"(spin {frame.s:g}, {frame.size} projectors, Gram condition "
            f"{np.linalg.cond(frame.gram):.6g})")


def from_vector(v: VectorDistribution, frame: SpinFrame) -> SpinorDensity:
    """Spinor density from a vector distribution (wigner or optical route).

    Both spatial inverses are linear, so they run on the portrait's R
    functions (v.functions), not on its c = (2s+1)^2 components, and the
    mixing folds into the dual frame: the components' quantizer
    sum_j D_j mixing[j, k] weighs function k.  Wigner route: each function's
    kernel by the inverse skew FFT, resummed into dense blocks.  Optical
    route: each function's density matrix L_k over the oscillator levels
    psi_0..psi_N (invert_optical, whose unexplained-share check reads the
    components, mixing @ the functions' residuals); the state's factors are
    the eigenpairs with |p| > 1e-12 of sum_k quant_k (x) L_k, solved in the
    range of its level blocks (phase_space._level_factors), so no
    (2s+1)(N+1) square matrix is formed.  A portrait that factors trivially,
    (I_c, components), inverts its components.

    frame must be the portrait's frame, v.frame, by value; any other frame
    raises ValueError naming both.
    """
    if frame is not v.frame and not (np.array_equal(frame.dequantizer, v.frame.dequantizer)
                                     and np.array_equal(frame.quantizer, v.frame.quantizer)):
        raise ValueError(f"from_vector got the frame {_frame_label(frame)}, but the "
                         f"portrait was taken with the frame {_frame_label(v.frame)}")
    quant = np.tensordot(v.mixing, frame.quantizer, axes=(0, 0))    # (R, d, d)
    if v.representation == "wigner":
        kernels = _kernel_of_wigner(v.functions, v.grid)
        return SpinorDensity(v.grid, np.tensordot(quant, kernels, axes=(0, 0)))
    if v.representation != "optical":
        raise UnsupportedInverseError(
            f"no inverse map for the {v.representation} representation; "
            "reconstruct through the wigner route instead")
    levels = invert_optical(v.functions, v.grid, v.domain, v.mixing)
    basis = oscillator_basis(v.grid, levels.shape[-1])
    return SpinorDensity.from_mixture(*_level_factors(quant, levels, basis), v.grid)


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
        """The fields, arrays and tuples as lists, and passed."""
        out = {"passed": self.passed}
        for f in record_fields(self):
            val = getattr(self, f.name)
            out[f.name] = (val.tolist() if isinstance(val, np.ndarray)
                           else list(val) if isinstance(val, tuple) else val)
        return out


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
