"""Spatial representation transforms on a 1-D grid, applied per component.

Factored kernel <-> Wigner by FFT over the skew coordinate; optical and
symplectic tomograms by metaplectic rotation of kernel factors; optical ->
density matrix by exact inversion in the grid oscillator's eigenstates
(invert_optical); Wigner -> Husimi by Gaussian smoothing; plus the
Fourier-multiplier operators used by the tomographic evolution equations.
These act on factor and component stacks for vector_portrait; a spinless
state is the spin-0 case of that API (one component, U = D = 1), so there is
no separate scalar density entry point.

Half-grid sampling: the Wigner maps and the optical inversion read values
half a grid step apart, which they build themselves by one n-point FFT each
(_half_shift); the plans' other targets use _band_limited_matrix.

Real Wigner maps: a Hermitian kernel's skew correlation C(q, s) is Hermitian
in the offset s, so both directions transform only the half spectrum
s = 0..n/2.  Factor -> Wigner (_wigner_of_factors) is one hfft per factor
into a float64 stack, which to_vector smooths in place, one function at a
time, for the Husimi map.  Wigner -> kernel (_kernel_of_wigner) takes a real
stack (complex input raises TypeError), runs rfft over p and fills one
triangle of each kernel, the other being its conjugate.  The one offset
without a partner, n/2, pairs points half a box apart; the imaginary part it
gives the Wigner function vanishes for grid-supported states and is read in
closed form from those coherences, which are grid points (_imag_residues).

Tomograms: a Hermitian kernel K = sum_r lam_r phi_r phi_r^H (signed factors,
found by eigh only for Wigner input) has the quadrature marginal
w(X, theta) = sum_r lam_r |R_theta phi_r|^2(X), where R_theta is the
fractional-Fourier rotation, applied as chirp / Fresnel / chirp FFT shears.
Rotation is linear, so where the factors are combinations of fewer functions
(a spinor state's Schmidt functions, see vector_portrait.to_vector) only
those functions are rotated, and a small matrix forms the factors at each ray.
The symplectic tomogram of mu q + nu p is the same marginal at X/r, divided
by r = |(mu, nu m omega)|.  Rotations need equal, origin-centred ranges in q
and p/(m omega), so the factors are first embedded (by band-limited
interpolation) in a balanced working grid that covers both; on balanced
grids that embedding is the identity.  Results are exact to round-off for
grid-supported states: mass inside the box, momentum content within half the
p-range, and kernel coherences negligible at half-box separation.  The
optical inversion further needs the state within the first N + 1 oscillator
levels, N = min(n / 2, n_theta - 1), and refuses a tomogram that those levels
do not explain.

Plans: what depends only on the sampling (grid, x and the angles or the
(mu, nu) mesh) is built once per domain, on first use, into a _Plan: the
working-grid embedding, the rays grouped by their number of sub-rotations
from theta = 0 (each group's shear factors and dilations to x / r stacked
over its rays, so a group turns and dilates in one batch), and the
inversion's oscillator basis and per-diagonal least-squares solvers
(_Plan.inversion), which invert_optical applies one level diagonal at a time,
writing each into the level matrices as it is solved.  Plans
are found by the identity of the domain's arrays and dropped when one of
those arrays is freed, so a plan lives as long as its TomogramDomain; an
array changed in place gets a new plan.
"""
from __future__ import annotations

import math
import weakref
from functools import cached_property

import numpy as np

from .errors import UndersampledDomainError
from .grids import PhaseSpaceGrid, ScalarField, TomogramDomain
from .states import oscillator_basis


# ---------------------------------------------------------------------------
# spectral helpers
# ---------------------------------------------------------------------------

def _half_shift(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Band-limited values of the samples a at the half points x + dx/2 along
    one axis: one FFT, the phase exp(i pi k / n) on bin k, and the inverse.
    The Nyquist bin of an even n is split symmetrically, so its term,
    cos(pi (x - x0) / dx), is zero at half points: that bin is set to 0.
    """
    n = a.shape[axis]
    k = np.fft.ifftshift(np.arange(n) - n // 2)            # signed bins
    phase = np.where(2 * k == -n, 0.0, np.exp(1j * np.pi * k / n))
    spec = np.fft.fft(a, axis=axis)
    spec *= phase.reshape((n,) + (1,) * (spec.ndim - 1 - axis % spec.ndim))
    return np.fft.ifft(spec, axis=axis)


def ddx(values: np.ndarray, dx: float, axis: int = -1) -> np.ndarray:
    """Spectral derivative of a real array along one axis, on rfft bins.

    Complex input raises TypeError (rfft would drop its imaginary part).
    """
    if np.iscomplexobj(values):
        raise TypeError("ddx takes real values")
    n = values.shape[axis]
    k = 2.0 * np.pi * np.fft.rfftfreq(n, dx)
    shape = [1] * values.ndim
    shape[axis] = len(k)
    spec = np.fft.rfft(values, axis=axis)
    spec *= 1j * k.reshape(shape)
    return np.fft.irfft(spec, n, axis=axis)


# ---------------------------------------------------------------------------
# density kernel <-> Wigner
# ---------------------------------------------------------------------------

def _wigner_of_factors(weights: np.ndarray, amps: np.ndarray,
                       grid: PhaseSpaceGrid) -> np.ndarray:
    """Wigner functions (c, n, n), float64 on the (q, p-ascending) grid, of the
    kernels K_c = sum_k weights[c, k] a_k a_k^H, given the amps a_k (k, n):
    the spatial map of to_vector.

    Each amp is interleaved with its _half_shift into f (2n) at half the grid
    spacing.  The correlation C(i, s) = f(2i + s) f*(2i - s) is Hermitian in
    the offset, C(i, -s) = conj C(i, s), so one Hermitian FFT (hfft) of the
    offsets s = 0..n/2 gives its Wigner function, with the p-axis fftshift
    folded into a sign (-1)^s.  Factors are taken one at a time and added to
    the functions that weigh them.  The offset n/2 has no partner (it is -n/2
    modulo n): hfft reads only its real part, and _imag_residues reads the
    imaginary part it leaves out.
    """
    n, half = grid.n, grid.n // 2
    i = np.arange(n)[:, None]
    s = np.arange(half + 1)
    a_idx = (2 * i + s) % (2 * n)
    b_idx = (2 * i - s) % (2 * n)
    sign = (-1.0) ** s * (grid.dx / (2.0 * np.pi * grid.hbar))
    out = np.zeros((len(weights), n, n))
    for col, amp, shifted in zip(np.transpose(weights), amps, _half_shift(amps)):
        f = np.stack([amp, shifted], axis=-1).ravel()
        corr = f[a_idx] * f.conj()[b_idx]
        corr *= sign
        w = np.fft.hfft(corr, n, axis=1)
        for c in np.flatnonzero(col):
            out[c] += col[c] * w
    return out


def _imag_residues(weights: np.ndarray, amps: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """Largest |Im W_c| per component of the Wigner functions that
    _wigner_of_factors makes real from the same weights and amps (k, n), in
    closed form.

    Only the unpaired offset -n/2 of the correlation contributes an imaginary
    part: Im W_c(q_i, p_m) = +-(-1)^m dx / (2 pi hbar) Im K_c(q_i + L/4, q_i - L/4),
    the components' coherence at half-box separation (L = n dx, positions
    taken round the box).  n is a power of two of at least 32, so q_i +- L/4
    are grid points.  It vanishes for grid-supported states.
    """
    n = grid.n
    i = np.arange(n)
    coherence = amps[:, (i + n // 4) % n] * amps[:, (i - n // 4) % n].conj()
    return np.max(np.abs(weights @ coherence.imag), axis=1) * (grid.dx / (2.0 * np.pi * grid.hbar))


def _kernel_of_wigner(w: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """Inverse of _wigner_of_factors (exact on grid-supported states): the
    Hermitian kernels (..., n, n) of a real Wigner stack (..., n, n), the
    spatial map of from_vector and of the tomogram routines.  Complex input
    raises TypeError.

    The skew spectrum C(i, s) of a real Wigner function is Hermitian in the
    offset, so only the offsets s = 0..n/2 - 1 and -n/2 are transformed (rfft
    over p, the ifftshift folded into (-1)^s).  The pair (a, b) reads offset
    s at the centre 2a - s on the half grid: a grid point for even s, and for
    odd s a half-grid point, where those columns are shifted in q
    (_half_shift).  These give the pairs whose offset a - b is 0..n/2 - 1
    modulo n, and the pairs at half-box separation (offset n/2, which has no
    partner) with a > b; the other triangle is their conjugate.
    """
    if np.iscomplexobj(w):
        raise TypeError("_kernel_of_wigner takes real Wigner functions")
    n, half = grid.n, grid.n // 2
    skew = np.fft.rfft(w, axis=-1).conj()
    skew *= (-1.0) ** np.arange(half + 1) * (2.0 * np.pi * grid.hbar / (grid.dx * n))
    # odd offsets: row j now holds the centre j + 1/2
    skew[..., 1::2] = _half_shift(skew[..., 1::2], axis=-2)
    idx = np.arange(n)
    d = idx[:, None] - idx[None, :]
    a, b = np.nonzero((d % n < half) | (d == half))
    k = (a - b) % n
    s = np.where(k < half, k, -half)
    src = ((a + (-s) // 2) % n) * (half + 1) + k       # row of centre 2a - s
    lead = w.shape[:-2]
    vals = skew.reshape(lead + (-1,))[..., src]
    kern = np.empty(lead + (n * n,), dtype=complex)
    kern[..., a * n + b] = vals
    kern[..., b * n + a] = vals.conj()
    return kern.reshape(w.shape)


# ---------------------------------------------------------------------------
# band-limited evaluation
# ---------------------------------------------------------------------------

def _band_limited_matrix(x: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Real matrix E such that values @ E.T evaluates the trigonometric
    interpolant of samples values (..., n), real or complex, on the uniform
    grid x (n even) at the targets.

    The Nyquist bin is split symmetrically, so real data keeps a real
    interpolant and grid samples are reproduced.  Targets outside the period
    box [x[0], x[0] + n dx) get zero rows: content is taken to decay inside
    the box, not to repeat periodically.
    """
    n = len(x)
    dx = float(x[1] - x[0])
    targets = np.asarray(targets, dtype=float)
    u = (targets[:, None] - x[None, :]) / dx
    # closed-form sum of the split-Nyquist Fourier series: sin(pi u) cot(pi u/n) / n
    t = np.tan(np.pi * u / n)
    near = np.abs(t) < 1e-12
    mat = np.where(near, 1.0, np.sin(np.pi * u) / (n * np.where(near, 1.0, t)))
    mat[(targets < x[0]) | (targets >= x[0] + n * dx)] = 0.0
    return mat


# ---------------------------------------------------------------------------
# tomograms by metaplectic rotation of kernel factors
# ---------------------------------------------------------------------------

# eigenvalues below this fraction of a kernel's largest |eigenvalue| are
# eigensolver round-off and are dropped from its factorization
_FACTOR_RTOL = 1e-13

# most float64 entries a plan's maps to a working grid of N points may take,
# counted as N (n + (k + 5) max(n, n_x)): its embedding, its k dilations and the
# temporaries of the one _band_limited_matrix builds.  A 9 x 9 symplectic plan at
# n = n_x = 128 (k = 81) fits up to N = 4096, an optical one (k = 1) at 256 up to 32768
_MAX_PLAN_ENTRIES = 2**26


def _working_grid(grid: PhaseSpaceGrid, most_points: int = _MAX_PLAN_ENTRIES) -> PhaseSpaceGrid:
    """Smallest balanced, centered grid whose box covers both the q-box and
    the p/(m omega)-range of grid; grid itself when it is balanced and centered.
    Raises UndersampledDomainError, naming the n it needs, when that grid
    would have more than max(grid.n, most_points) points.

    Rotations mix q with p/(m omega), so they need equal, origin-centered
    ranges in both; on other grids rotated content would wrap round the box.
    """
    m_omega = grid.mass * grid.omega
    span = max(2.0 * abs(grid.x0), 2.0 * abs(grid.x0 + grid.length),
               grid.n * grid.dp / m_omega)
    # a balanced box of n points is sqrt(2 pi hbar n / m omega) long
    points = m_omega * span * span / (2.0 * np.pi * grid.hbar) * (1.0 - 2e-12)
    cap = max(grid.n, most_points)
    if not points <= cap:                                     # an overflow is refused too
        raise UndersampledDomainError(
            f"rotating tomograms of n = {grid.n} on a box of length {grid.length:g} needs a "
            f"working grid of n = 2^{np.ceil(np.log2(points)):g} points, above the {cap} allowed")
    n = grid.n
    while n < points:
        n *= 2
    work = PhaseSpaceGrid.balanced(n, grid.hbar, grid.mass, grid.omega)
    if (n == grid.n and np.isclose(work.dx, grid.dx, rtol=1e-12, atol=0.0)
            and np.isclose(work.x0, grid.x0, rtol=1e-12, atol=0.0)):
        return grid
    return work


def _sub_rotations(theta) -> np.ndarray:
    """Number of sub-rotations of at most pi/4 that turn by theta (0 for 0)."""
    return np.ceil(np.abs(theta) / (0.25 * np.pi)).astype(int)


def _shear_factors(work: PhaseSpaceGrid, theta) -> tuple:
    """(n_sub, chirp, fresnel): the rotation by theta on the balanced grid work
    as n_sub equal sub-rotations t of at most pi/4 (none for theta = 0).
    theta may also be an array of angles whose last axis has length 1, such
    as (rays, 1, 1): the factors then broadcast to theta.shape[:-1] + (N,),
    and each angle turns in as many sub-rotations as the largest needs.

    Each sub-rotation is three shears (Ozaktas et al., IEEE TSP 1996): the
    chirp exp(-i tan(t/2) m omega q^2 / 2 hbar), the Fresnel factor
    exp(-i sin(t) hbar k^2 / 2 m omega), and the chirp again.  The chirp
    stretches the momentum band by sqrt(1 + tan^2(t/2)), which diverges as
    t -> pi; sub-rotations of at most pi/4 keep content within 0.92 of the
    box half-width inside the band.
    """
    n_sub = int(np.max(_sub_rotations(theta), initial=0))
    if n_sub == 0:
        return 0, None, None
    t = theta / n_sub
    m_omega = work.mass * work.omega
    half_q2 = 0.5 * m_omega * work.q**2 / work.hbar
    half_k2 = 0.5 * work.hbar * work.k_fft**2 / m_omega
    return n_sub, np.exp(-1j * np.tan(0.5 * t) * half_q2), np.exp(-1j * np.sin(t) * half_k2)


def _shear(amps: np.ndarray, factors: tuple) -> np.ndarray:
    """Apply the sandwich chirp . F^-1 fresnel F . chirp n_sub times along the
    last axis of amplitudes (..., N): the sub-rotations of _shear_factors, and
    the Strang steps of dynamics.evolve_oracle."""
    n_sub, chirp, fresnel = factors
    for _ in range(n_sub):
        amps = chirp * np.fft.ifft(fresnel * np.fft.fft(chirp * amps, axis=-1), axis=-1)
    return amps


# ---------------------------------------------------------------------------
# sampling plans: the operators that depend only on a tomogram's sampling
# ---------------------------------------------------------------------------

# the plans in use, keyed by the grid and the ids of the sample arrays (x, then
# thetas or mu and nu): radon_slices and symplectic_profiles receive a
# domain's arrays, not the domain.  A plan leaves the table when one of its
# arrays is freed, so it lives as long as the domain that holds those arrays.
_PLANS: dict[tuple, "_Plan"] = {}


def _plan(grid: PhaseSpaceGrid, x, *axes) -> "_Plan":
    """The plan of grid with quadrature points x and angles (thetas,) or
    (mu, nu): built on first use, reused while those arrays live unchanged."""
    arrays = tuple(np.asarray(a, dtype=float) for a in (x, *axes))
    key = (grid, *map(id, arrays))
    plan = _PLANS.get(key)
    if plan is None or not all(map(np.array_equal, arrays, plan.samples)):
        plan = _PLANS[key] = _Plan(grid, arrays,
                                   lambda _ref, pop=_PLANS.pop: pop(key, None))
    return plan


class _Plan:
    """Operators that depend only on the sampling of tomograms on grid: the
    quadrature points x and the angles (thetas,) or the (mu, nu) mesh.  Each
    part is built on first use; calls on the same domain reuse it.  on_free
    runs when one of the sampled arrays is freed."""

    def __init__(self, grid: PhaseSpaceGrid, arrays: tuple, on_free):
        self.grid = grid
        self.samples = tuple(a.copy() for a in arrays)
        self._refs = [weakref.ref(a, on_free) for a in arrays]

    @cached_property
    def work(self) -> PhaseSpaceGrid:
        """The balanced grid the rays turn on (_working_grid), refused when
        the plan's maps would exceed _MAX_PLAN_ENTRIES; unread by the inversion."""
        (x, *axes), n = self.samples, self.grid.n
        maps = 1 if len(axes) == 1 else len(axes[0]) * len(axes[1])   # optical r is 1
        return _working_grid(self.grid, _MAX_PLAN_ENTRIES // (n + (maps + 5) * max(n, len(x))))

    @cached_property
    def embed(self) -> np.ndarray | None:
        """Transposed embedding of grid amplitudes in the working grid, or None
        when the grid is its own working grid."""
        if self.work is self.grid:
            return None
        return _band_limited_matrix(self.grid.q, self.work.q).T

    @cached_property
    def rays(self) -> list:
        """The rays (theta, r) in groups of equal sub-rotation count, each
        group as (index, shear, dilation, r) over its rays.

        index holds the rays' places in the tomogram; shear the factors
        (n_sub, chirp, fresnel) that turn amplitudes from theta = 0 to every
        ray's angle at once, chirp and fresnel of shape (rays, 1, N); dilation
        the transposed band-limited maps (rays, N, n_x) from the working grid
        to x / r, None when every x / r of the plan is the working grid, and
        one map (1, N, n_x) for every group when all rays share their r; r
        the radii, (rays, 1, 1).  A group's dilation is filled in place, one
        distinct r at a time.
        """
        x, *axes = self.samples
        if len(axes) == 1:
            thetas, radii = axes[0], np.ones(len(axes[0]))
        else:
            mm, nn = np.meshgrid(*axes, indexing="ij")
            m_omega = self.grid.mass * self.grid.omega
            thetas = np.arctan2(nn * m_omega, mm).ravel()
            radii = np.hypot(mm, nn * m_omega).ravel()
        # sets, not np.unique, whose first call imports numpy.ma (about 15 ms)
        q, distinct = self.work.q, set(radii.tolist())
        dilate = not all(np.array_equal(x / r, q) for r in distinct)
        # rays that all share one r, as the optical rays do, share one map
        shared = (_band_limited_matrix(q, x / distinct.pop()).T[None]
                  if dilate and len(distinct) == 1 else None)
        counts = _sub_rotations(thetas)
        groups = []
        for count in sorted(set(counts.tolist())):
            index = np.flatnonzero(counts == count)
            dilation = shared
            if dilate and shared is None:
                dilation = np.empty((len(index), len(q), len(x)))
                for r in set(radii[index].tolist()):
                    dilation[radii[index] == r] = _band_limited_matrix(q, x / r).T
            groups.append((index, _shear_factors(self.work, thetas[index, None, None]),
                           dilation, radii[index, None, None]))
        return groups

    @cached_property
    def inversion(self) -> tuple | str:
        """invert_optical's sampling-only part on an optical domain: (basis,
        solvers), or the message that refuses the domain.

        basis holds the oscillator levels 0..N at the half-spaced points
        _half_points keeps, solvers[d] the least-squares solution operator
        R^-1 Q^T (N + 1 - d, n_x) of diagonal d over X >= 0, from a QR of its
        design.  A design whose R is singular, or whose condition
        |R|_inf |R^-1|_inf exceeds _LEVEL_COND, leaves its levels undetermined.
        """
        x, thetas = self.samples
        grid, n_theta = self.grid, len(thetas)
        n_levels = oscillator_levels(grid, n_theta) + 1
        dx = float(x[1] - x[0])
        basis = oscillator_basis(grid, n_levels, x[0] + 0.5 * dx * _half_points(len(x)))
        half = slice(1, None)                                      # X >= 0
        # the solvers are views of one array: freed as many separate blocks,
        # they left the heap fragmented and later work 10-20 MB more resident
        stacked = np.empty((n_levels * (n_levels + 1) // 2, len(x)))
        solvers = []
        for d in range(n_levels):
            design = (basis[d:, half] * basis[:n_levels - d, half]).T  # (n_x, N + 1 - d)
            q, r = np.linalg.qr(design)
            with np.errstate(over="ignore"):           # an overflowing norm refuses too
                try:
                    inv = np.linalg.inv(r)
                    cond = np.linalg.norm(r, np.inf) * np.linalg.norm(inv, np.inf)
                except np.linalg.LinAlgError:        # R singular, or fewer points than levels
                    cond = np.inf
            if not cond <= _LEVEL_COND:                                 # a NaN fails too
                return (f"{len(x)} quadrature points from {x[0]:g} to {x[-1]:g} do not "
                        f"determine the {n_levels} oscillator levels of n = {grid.n} "
                        f"and {n_theta} angles")
            start = len(stacked) - (n_levels - d) * (n_levels - d + 1) // 2
            solvers.append(np.matmul(inv, q.T, out=stacked[start:start + n_levels - d]))
        return basis, solvers


def _quadrature_marginals(w_stack: np.ndarray, grid: PhaseSpaceGrid, plan: _Plan,
                          factors: tuple | None) -> np.ndarray:
    """Distributions over x of r (q cos(theta) + p sin(theta)/(m omega)) for
    each ray (theta, r) of plan, shape (..., n_rays, n_x).

    factors is (weights, amps) or (weights, amps, mix), the kernels
    sum_k weights[c, k] a_k a_k^H whose rows a are amps, or mix @ amps when
    mix (k, m) is given and not None; by default the signed eigenpairs of the
    kernels of w_stack, which otherwise gives only the leading shape.  Such a
    kernel has the marginal sum_k weights[c, k] |R_theta a_k|^2(x/r) / r,
    R_theta the metaplectic rotation.  Rotation and dilation are linear, so
    they act on the m amps alone, and mix forms the rows from them at each
    ray.  Every ray is rotated from theta = 0, the rays of plan.rays that
    need equally many sub-rotations together, so each product below runs
    once per group on a (rays, m, N) stack.
    """
    if factors is None:
        kernels = _kernel_of_wigner(w_stack.reshape((-1,) + w_stack.shape[-2:]), grid)
        lam, vecs = np.linalg.eigh(kernels)
        scale = np.max(np.abs(lam), axis=-1, keepdims=True)
        comp, idx = np.nonzero(np.abs(lam) > _FACTOR_RTOL * scale)
        weights = np.zeros((len(kernels), len(comp)))
        weights[comp, np.arange(len(comp))] = lam[comp, idx]
        factors = (weights, vecs[comp, :, idx])
    weights, amps, mix = (*factors, None)[:3]

    if plan.embed is not None:
        amps = amps @ plan.embed
    n_amps = len(amps)
    n_rays = sum(len(index) for index, *_ in plan.rays)
    out = np.empty((len(weights), n_rays, len(plan.samples[0])))
    for index, shear, dilation, r in plan.rays:
        rows = _shear(amps, shear)                 # (rays, m, N); (m, N) at theta = 0
        if dilation is not None:
            parts = np.concatenate([rows.real, rows.imag], axis=-2) @ dilation
            rows = parts[..., :n_amps, :] + 1j * parts[..., n_amps:, :]
        if mix is not None:
            rows = mix @ rows
        out[:, index] = np.swapaxes(weights @ (rows.real**2 + rows.imag**2) / r, 0, 1)
    return out.reshape(w_stack.shape[:-2] + out.shape[1:])


def radon_slices(w_stack: np.ndarray, grid: PhaseSpaceGrid,
                 thetas: np.ndarray, x: np.ndarray,
                 factors: tuple | None = None) -> np.ndarray:
    """Marginals of Wigner data along X = q cos(theta) + p sin(theta)/(m*omega).

    w_stack has shape (..., n, n); returns (..., n_theta, n_x).  A caller
    that holds the kernels as factors passes them to skip the kernel map and
    eigh: (weights, amps) for the kernels sum_k weights[c, k] a_k a_k^H, or
    (weights, amps, mix) for the factors mix @ amps, of which only the amps
    are rotated (_quadrature_marginals).  w_stack is then read for its
    leading shape only, so a (c, 0, 0) array will do.
    """
    return _quadrature_marginals(w_stack, grid, _plan(grid, x, thetas), factors)


def symplectic_profiles(w_stack: np.ndarray, grid: PhaseSpaceGrid,
                        mu: np.ndarray, nu: np.ndarray, x: np.ndarray,
                        factors: tuple | None = None) -> np.ndarray:
    """Distributions of mu*q + nu*p on the meshed (mu, nu) samples.

    Uses mu q + nu p = r X(theta) with r = sqrt(mu^2 + nu^2 m^2 w^2) and
    theta = atan2(nu m w, mu).  Returns shape (..., n_mu, n_nu, n_x);
    factors as in radon_slices: with them given, w_stack is read for its
    leading shape only.
    """
    prof = _quadrature_marginals(w_stack, grid, _plan(grid, x, mu, nu), factors)
    return prof.reshape(w_stack.shape[:-2] + (len(mu), len(nu), len(x)))


# ---------------------------------------------------------------------------
# optical -> Wigner: exact inversion in the oscillator basis
# ---------------------------------------------------------------------------

# fewest angles the CLI samples an optical tomogram with; the inversion
# resolves oscillator levels 0..n_theta - 1 at most (oscillator_levels)
MIN_ANGLES = 16

# largest tomogram content, relative to the tomogram's largest value, that the
# resolved oscillator levels may leave unexplained; beyond it invert_optical
# refuses the state.  In a roundtrip sweep over packets, grid constants and
# angle counts, accepted states reconstructed to a trace distance within 90
# times their unexplained share, so at most 1.4e-5 at this bound.
UNEXPLAINED_RTOL = 1e-6

# eigenvalues of a density matrix up to this size, and the range directions
# that cannot hold a larger one, are dropped (_level_factors)
_EIGEN_CUTOFF = 1e-12

# largest condition |R|_inf |R^-1|_inf of a level system that invert_optical
# accepts (its solvers lose about that times eps); over 1886 optical domains, it
# reached 6.7e10 where a pivoted QR's rank test, rcond 1e-10, still accepted
_LEVEL_COND = 1e11


def angle_step(thetas: np.ndarray) -> float:
    """pi / n_theta for the uniform angle grid theta_k = pi k / n_theta, which
    the optical inversion and theta derivatives assume; raises
    UndersampledDomainError for any other grid."""
    n = len(thetas)
    if not np.allclose(thetas, np.pi * np.arange(n) / n, rtol=0.0, atol=1e-12):
        raise UndersampledDomainError(
            f"expected the uniform angle grid pi k / {n} over [0, pi)")
    return np.pi / n


def _check_mirror(dom: TomogramDomain, use: str) -> None:
    """Raise UndersampledDomainError, naming use, unless dom.x is closed under
    X -> -X as _flip_x maps it."""
    if not np.allclose(dom.x[:0:-1], -dom.x[1:], rtol=0.0, atol=1e-9 * dom.dx):
        raise UndersampledDomainError(f"{use} needs quadrature points closed under X -> -X")


def _flip_x(values: np.ndarray, axis: int) -> np.ndarray:
    """X -> -X on a centered grid (index l -> (n - l) mod n): the tomogram at
    theta + pi, since w(X, theta + pi) = w(-X, theta)."""
    flipped = np.flip(values, axis=axis)
    return np.roll(flipped, 1, axis=axis)


def _half_points(n_x: int) -> np.ndarray:
    """Indices, among the 2 n_x points at half the spacing of a centered x,
    of -L/2 and of X >= 0.  Harmonic d of the extended tomogram, and each
    product psi_m psi_(m-d), has parity (-1)^d, so the other points, the
    mirrors of X > 0, repeat these values; -L/2 has no mirror among them."""
    return np.r_[0, n_x:2 * n_x]


def oscillator_levels(grid: PhaseSpaceGrid, n_theta: int) -> int:
    """Highest oscillator level N the optical inversion resolves: n / 2, below
    which the products psi_m psi_n, sampled at half the grid spacing, stay well
    conditioned on a balanced grid (smallest singular value above 0.03 of the
    largest for n <= 512), and below n_theta, so that no harmonic of the
    2 pi-extended angle series aliases onto another."""
    return min(grid.n // 2, n_theta - 1)


def invert_optical(stack: np.ndarray, grid: PhaseSpaceGrid, dom: TomogramDomain,
                   mixing: np.ndarray | None = None) -> np.ndarray:
    """Density matrices (R, N + 1, N + 1) over the grid oscillator's eigenstates
    psi_0..psi_N (states.oscillator_basis) of optical tomograms (R, n_theta, n_x).

    A kernel sum_mn rho_mn psi_m psi_n has the tomogram
    w(X, theta) = sum_mn rho_mn e^{-i (m - n) theta} psi_m(X) psi_n(X)
    (D'Ariano, Macchiavello and Paris, Phys. Rev. A 50, 4298 (1994)).  The
    angles are extended to [0, 2 pi) with w(X, theta + pi) = w(-X, theta) and
    Fourier transformed; harmonic -d then holds sum_m rho_{m, m-d} psi_m psi_{m-d},
    of parity (-1)^d in X.  The products oscillate twice as fast as the levels,
    so each harmonic is resampled at half the spacing by band-limited
    interpolation, and one least-squares solve over X >= 0 per d = 0..N gives
    the d-th diagonal of all R tomograms at once (their harmonics as 2R real
    right-hand sides), which is written, with its conjugate, straight into the
    level matrices, and its explained part taken from the harmonic.  The
    solvers depend on the domain only and come from its plan
    (_Plan.inversion).  Exact to round-off for kernels within the first N + 1
    levels, N = oscillator_levels, whose tomograms are band-limited on x.

    Raises UndersampledDomainError when the angles are not the uniform grid of
    angle_step, when x is not closed under X -> -X (index l -> n_x - l, as on
    a centered grid) or its points do not determine the N + 1 levels (found
    once per domain, raised on every call), when the tomogram content those
    levels leave unexplained at the half-spaced points exceeds UNEXPLAINED_RTOL
    of the tomogram's largest value, and when, at some angle, a level trace
    differs from the tomogram's mass on x (its sum times dx) by more than
    UNEXPLAINED_RTOL of the largest such mass: levels reaching past the
    quadrature range can fit the tomogram there without holding the state.
    Either share that is not finite is refused too.

    The inversion is linear, so a portrait's R functions may be inverted in
    place of its c components = mixing @ stack (mixing (c, R), the identity
    by default); the components' levels are then mixing @ levels.  The checks
    read the components all the same: the residuals and the mass differences
    are mixing applied to the functions', and the scales are the largest
    |component| and the largest component mass.
    """
    n_theta = len(dom.thetas)
    angle_step(dom.thetas)
    x = dom.x
    _check_mirror(dom, "the optical inversion")
    inversion = _plan(grid, x, dom.thetas).inversion
    if isinstance(inversion, str):
        raise UndersampledDomainError(inversion)
    basis, solvers = inversion
    n_levels = len(basis)
    # harmonics 0..n_theta of the real series, all R functions in one
    # transform; harmonic -d is the conjugate of d
    r = len(stack)
    mixing = np.eye(r) if mixing is None else mixing
    harmonics = np.fft.rfft(np.concatenate([stack, _flip_x(stack, axis=-1)], axis=1), axis=1)
    harmonics /= 2 * n_theta
    # the points of _half_points: -L/2, then X >= 0, where half point f is
    # sample f / 2 for even f and the shift of sample (f - 1) / 2 for odd f
    n_x, odd = len(x), len(x) % 2
    shifted = _half_shift(harmonics, axis=-1)
    spectrum = np.empty(harmonics.shape[:-1] + (n_x + 1,), dtype=complex)
    spectrum[..., 0] = harmonics[..., 0]
    spectrum[..., 1 + odd::2] = harmonics[..., n_x - n_x // 2:]
    spectrum[..., 2 - odd::2] = shifted[..., n_x // 2:]
    del harmonics, shifted
    # the flat level matrices: rho_{m, m-d} lies at (N + 2) m - d and its
    # conjugate at (N + 2) m - (N + 1) d, m = d..N, each diagonal a strided view
    levels = np.zeros((r, n_levels * n_levels), dtype=complex)
    step = n_levels + 1
    for d, solver in enumerate(solvers):
        # harmonic -d over X >= 0, the conjugate of d, as 2R real right-hand sides,
        # copied in C order: a transposed view takes another BLAS path (round-off)
        harmonic = spectrum[:, d, 1:]
        sol = solver @ np.concatenate([harmonic.real, -harmonic.imag]).T.copy()
        explained = sol.T @ (basis[d:] * basis[:n_levels - d])
        spectrum[:, d] -= explained[:r] - 1j * explained[r:]
        rho = (sol[:, :r] + 1j * sol[:, r:]).T                   # (R, N + 1 - d)
        levels[:, d * n_levels::step] = rho
        levels[:, d:(n_levels - d) * step:step] = rho.conj()
    levels = levels.reshape(r, n_levels, n_levels)
    residual = np.fft.irfft(spectrum, 2 * n_theta, axis=1)
    unexplained = _largest_component(mixing, residual) * 2 * n_theta
    scale = _largest_component(mixing, stack)
    if not unexplained <= UNEXPLAINED_RTOL * scale:           # a NaN fails too
        raise UndersampledDomainError(
            f"{n_levels} oscillator levels ({n_theta} angles, n = {grid.n}) leave "
            f"{unexplained / scale:.2e} of the tomogram's largest value unexplained, above "
            f"{UNEXPLAINED_RTOL:g}: the state is not supported by the grid or the angles")
    # levels reaching past the sampled x range can fit the tomogram on it without
    # holding the state; then their trace is not the mass sampled at each angle
    masses = np.sum(stack, axis=-1) * dom.dx
    lost = _largest_component(mixing, np.trace(levels, axis1=1, axis2=2).real[:, None] - masses)
    mass = _largest_component(mixing, masses)
    if not lost <= UNEXPLAINED_RTOL * mass:                   # a NaN fails too
        raise UndersampledDomainError(
            f"{n_levels} oscillator levels ({n_theta} angles, n = {grid.n}) differ in trace "
            f"from the tomogram's mass on x from {x[0]:g} to {x[-1]:g} by "
            f"{lost / mass if mass else math.inf:.2e} of its largest value, above "
            f"{UNEXPLAINED_RTOL:g}: the state is not supported by the quadrature range")
    return levels


def _largest_component(mixing: np.ndarray, functions: np.ndarray) -> float:
    """max |mixing @ functions|, forming one component at a time, which bounds
    the scratch memory (a NaN propagates)."""
    flat = functions.reshape(len(functions), math.prod(functions.shape[1:]))   # R may be 0
    return float(np.max([np.max(np.abs(row @ flat), initial=0.0) for row in mixing],
                        initial=0.0))


def _level_factors(quant: np.ndarray, levels: np.ndarray, basis: np.ndarray) -> tuple:
    """Factors (probs (r,), fields (r, d, n)) of the operator
    sum_k quant_k (x) levels_k over |a> (x) e_m, e_m orthonormal with grid
    samples basis[m]: its eigenpairs with |p| > _EIGEN_CUTOFF, in ascending p,
    mapped out through basis.  The one factoriser of SpinorDensity.factors
    (quant the units |a><b|, levels the blocks) and of optical reconstructions.

    Only the sum need be Hermitian, so it acts on C^d (x) range(Q), Q an
    orthonormal basis of the range of its level blocks
    M_ab = sum_k quant_k[a, b] levels_k.  Side by side, the blocks are the
    levels mixed by U S, then by V^H, for quant = U S V^H as an (R, d^2)
    matrix; with (side by side)^H = W T, their left singular pairs are T^H's.
    The operator's part on C^d (x) u has norm at most u's singular value, so
    the directions up to _EIGEN_CUTOFF, which hold the optical inversion's
    error (below 5e-14 on the benchmark's product mixtures: r = R), are cut.
    One eigh of the (d r)^2 matrix sum_i V_i^H (x) Q^H B_i Q, with Q made
    orthonormal to round-off by a QR, gives the eigenpairs: B_i are the blocks
    mixed by U S and V_i^H are orthonormal d x d units, so the projected
    terms add without the cancellation of an ill-conditioned frame's quant_k.
    """
    d, n_levels = quant.shape[-1], levels.shape[-1]
    u, svals, vh = np.linalg.svd(quant.reshape(len(quant), d * d), full_matrices=False)
    blocks = np.tensordot(u * svals, levels, axes=(0, 0))
    tri = np.linalg.qr(blocks.transpose(1, 0, 2).reshape(n_levels, -1).conj().T, mode="r")
    u, svals, _ = np.linalg.svd(tri.conj().T)
    q = np.linalg.qr(u[:, svals > _EIGEN_CUTOFF])[0]            # (M, r)
    r = q.shape[1]
    small = np.tensordot(vh.reshape(-1, d, d), q.conj().T @ blocks @ q,
                         axes=(0, 0))                                   # (a, b, i, j)
    probs, vecs = np.linalg.eigh(small.transpose(0, 2, 1, 3).reshape(d * r, d * r))
    keep = np.abs(probs) > _EIGEN_CUTOFF
    vecs = vecs.T[keep].reshape(np.sum(keep), d, r)           # r may be 0
    fields = vecs @ (q.T @ basis)
    return probs[keep], fields


def wigner_from_optical(fld: ScalarField) -> ScalarField:
    """Wigner function of one optical tomogram: invert_optical, then the Wigner
    transform of the resulting kernel's factors (_level_factors).

    Kept as the single-field entry point whose name and signature the
    benchmark's span table traces; from_vector calls invert_optical directly.
    """
    if fld.kind != "optical":
        raise ValueError(f"expected an optical field, got {fld.kind!r}")
    levels = invert_optical(fld.values[None], fld.grid, fld.domain)
    basis = oscillator_basis(fld.grid, levels.shape[-1])
    probs, fields = _level_factors(np.ones((1, 1, 1)), levels, basis)
    values = _wigner_of_factors(probs[None], fields[:, 0], fld.grid)[0]
    return ScalarField(grid=fld.grid, values=values, kind="wigner")


# ---------------------------------------------------------------------------
# Husimi smoothing
# ---------------------------------------------------------------------------

def husimi_variances(grid: PhaseSpaceGrid) -> tuple[float, float]:
    """Variances hbar/(2 m w) in q and hbar m w / 2 in p of the Gaussian that
    smooths a Wigner function into the Husimi function."""
    return (grid.hbar / (2.0 * grid.mass * grid.omega),
            grid.hbar * grid.mass * grid.omega / 2.0)


def husimi_from_wigner(fld: ScalarField) -> ScalarField:
    """Husimi function: Weierstrass (Gaussian) smoothing of the Wigner function
    with the variances of husimi_variances, so the result equals the
    coherent-state expectation divided by 2*pi*hbar.

    The values must be real (complex values raise TypeError); the smoothing
    runs on the rfft2 half-plane.  Kept as the single-field map to_vector
    applies per Husimi component; the benchmark's span table traces it by
    this name and signature.
    """
    if fld.kind != "wigner":
        raise ValueError(f"expected a wigner field, got {fld.kind!r}")
    if np.iscomplexobj(fld.values):
        raise TypeError("husimi_from_wigner takes a real Wigner function")
    g = fld.grid
    var_q, var_p = husimi_variances(g)
    kq = 2.0 * np.pi * np.fft.fftfreq(g.n, g.dx)
    kp = 2.0 * np.pi * np.fft.rfftfreq(g.n, g.dp)
    mult = np.exp(-0.5 * var_q * kq[:, None] ** 2 - 0.5 * var_p * kp[None, :] ** 2)
    smooth = np.fft.irfft2(mult * np.fft.rfft2(fld.values), fld.values.shape)
    return ScalarField(grid=g, values=smooth, kind="husimi")
