"""Spatial representation transforms on a 1-D grid, applied per component.

Factored kernel <-> Wigner by FFT over the skew coordinate (with exact Fourier
interpolation at half-grid points); optical and symplectic tomograms by
metaplectic rotation of kernel factors; optical -> density matrix by exact
inversion in the grid oscillator's eigenstates (invert_optical); Wigner ->
Husimi by Gaussian smoothing; plus the
Fourier-multiplier operators used by the tomographic evolution equations.
These act on factor and component stacks for vector_portrait; a spinless
state is the spin-0 case of that API (one component, U = D = 1), so there is
no separate scalar density entry point.

Real Wigner maps: a Hermitian kernel's skew correlation C(q, s) is Hermitian
in the offset s, so both directions transform only the half spectrum
s = 0..n/2.  Factor -> Wigner (_wigner_of_factors) is one hfft per factor
into a float64 stack; Wigner -> kernel (_kernel_of_wigner) takes a real stack
(complex input raises TypeError), runs rfft over p and fills one triangle of
each kernel, the other being its conjugate.  The one offset without a
partner, n/2, pairs points half a box apart; the imaginary part it gives the
Wigner function vanishes for grid-supported states and is read in closed
form from those coherences (_imag_residues).

Tomograms: a Hermitian kernel K = sum_r lam_r phi_r phi_r^H (signed factors,
found by eigh only for Wigner input) has the quadrature marginal
w(X, theta) = sum_r lam_r |R_theta phi_r|^2(X), where R_theta is the
fractional-Fourier rotation, applied as chirp / Fresnel / chirp FFT shears.
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
working-grid embedding, the march of the rays in ascending theta (each ray
rotated from the one before by the angle step, whose shear factors equal
steps share), the dilation to x / r per distinct r, and the inversion's
oscillator basis and per-diagonal least-squares solvers.  Plans are found by
the identity of the domain's arrays and dropped when one of those arrays is
freed, so a plan lives as long as its TomogramDomain; an array changed in
place gets a new plan.
"""
from __future__ import annotations

import weakref
from functools import cached_property

import numpy as np

from .errors import UndersampledDomainError
from .grids import PhaseSpaceGrid, ScalarField, TomogramDomain
from .states import oscillator_basis


# ---------------------------------------------------------------------------
# spectral helpers
# ---------------------------------------------------------------------------

def fourier_upsample2(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Exact factor-2 Fourier interpolation along one axis.

    The Nyquist bin is split symmetrically so real band-limited data stays
    real and the original samples are reproduced exactly at even indices.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[axis]
    half = n // 2
    spec = np.fft.fft(a, axis=axis)
    out_shape = list(a.shape)
    out_shape[axis] = 2 * n
    padded = np.zeros(out_shape, dtype=complex)

    def sl(lo, hi):
        idx = [slice(None)] * a.ndim
        idx[axis] = slice(lo, hi)
        return tuple(idx)

    padded[sl(0, half)] = spec[sl(0, half)]
    padded[sl(half, half + 1)] = 0.5 * spec[sl(half, half + 1)]
    padded[sl(2 * n - half, 2 * n - half + 1)] = 0.5 * spec[sl(half, half + 1)]
    padded[sl(2 * n - half + 1, 2 * n)] = spec[sl(half + 1, n)]
    del spec
    out = np.fft.ifft(padded, axis=axis)
    out *= 2.0
    return out


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

def _wigner_of_factors(weights: np.ndarray, amps: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """Wigner functions (c, n, n), float64 on the (q, p-ascending) grid, of the
    kernels K_c = sum_k weights[c, k] a_k a_k^H with amps a_k (k, n): the
    spatial map of to_vector.

    Each a_k is upsampled in 1-D to f.  Its correlation C(i, s) =
    f(2i + s) f*(2i - s) is Hermitian in the offset, C(i, -s) = conj C(i, s),
    so one Hermitian FFT (hfft) of the offsets s = 0..n/2 gives its Wigner
    function, with the p-axis fftshift folded into a sign (-1)^s.  Factors are
    taken one at a time and added to the components that weigh them.  The
    offset n/2 has no partner (it is -n/2 modulo n): hfft reads only its real
    part, and _imag_residues reads the imaginary part it leaves out.
    """
    n, half = grid.n, grid.n // 2
    i = np.arange(n)[:, None]
    s = np.arange(half + 1)
    a_idx = (2 * i + s) % (2 * n)
    b_idx = (2 * i - s) % (2 * n)
    sign = (-1.0) ** s * (grid.dx / (2.0 * np.pi * grid.hbar))
    out = np.zeros((len(weights), n, n))
    for col, fine in zip(np.transpose(weights), fourier_upsample2(amps)):
        corr = fine[a_idx] * fine.conj()[b_idx]
        corr *= sign
        w = np.fft.hfft(corr, n, axis=1)
        for c in np.flatnonzero(col):
            out[c] += col[c] * w
    return out


def _imag_residues(weights: np.ndarray, amps: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """Largest |Im W_c| per component of the Wigner functions that
    _wigner_of_factors makes real, in closed form.

    Only the unpaired offset -n/2 of the correlation contributes an imaginary
    part: Im W_c(q_i, p_m) = +-(-1)^m dx / (2 pi hbar) Im K_c(q_i + L/4, q_i - L/4),
    the components' coherence at half-box separation (L = n dx, positions
    taken round the box).  It vanishes for grid-supported states.
    """
    n = grid.n
    i = np.arange(n)
    fine = fourier_upsample2(amps)
    coherence = fine[:, (2 * i + n // 2) % (2 * n)] * fine[:, (2 * i - n // 2) % (2 * n)].conj()
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
    odd s a half-grid point, where those columns are upsampled in q.  These
    give the pairs whose offset a - b is 0..n/2 - 1 modulo n, and the pairs
    at half-box separation (offset n/2, which has no partner) with a > b; the
    other triangle is their conjugate.
    """
    if np.iscomplexobj(w):
        raise TypeError("_kernel_of_wigner takes real Wigner functions")
    n, half = grid.n, grid.n // 2
    skew = np.fft.rfft(w, axis=-1).conj()
    skew *= (-1.0) ** np.arange(half + 1) * (2.0 * np.pi * grid.hbar / (grid.dx * n))
    # odd offsets: row j now holds the centre j + 1/2
    skew[..., 1::2] = fourier_upsample2(skew[..., 1::2], axis=-2)[..., 1::2, :]
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


def _working_grid(grid: PhaseSpaceGrid) -> PhaseSpaceGrid:
    """Smallest balanced, centered grid whose box covers both the q-box and
    the p/(m omega)-range of grid; grid itself when it is balanced and centered.

    Rotations mix q with p/(m omega), so they need equal, origin-centered
    ranges in both; on other grids rotated content would wrap round the box.
    """
    m_omega = grid.mass * grid.omega
    span = max(2.0 * abs(grid.x0), 2.0 * abs(grid.x0 + grid.length),
               grid.n * grid.dp / m_omega)
    n = grid.n
    work = PhaseSpaceGrid.balanced(n, grid.hbar, grid.mass, grid.omega)
    while work.length < span * (1.0 - 1e-12):
        n *= 2
        work = PhaseSpaceGrid.balanced(n, grid.hbar, grid.mass, grid.omega)
    if (n == grid.n and np.isclose(work.dx, grid.dx, rtol=1e-12, atol=0.0)
            and np.isclose(work.x0, grid.x0, rtol=1e-12, atol=0.0)):
        return grid
    return work


def _shear_factors(work: PhaseSpaceGrid, theta: float) -> tuple:
    """(n_sub, chirp, fresnel): the rotation by theta on the balanced grid work
    as n_sub equal sub-rotations t of at most pi/4 (none for theta = 0).

    Each sub-rotation is three shears (Ozaktas et al., IEEE TSP 1996): the
    chirp exp(-i tan(t/2) m omega q^2 / 2 hbar), the Fresnel factor
    exp(-i sin(t) hbar k^2 / 2 m omega), and the chirp again.  The chirp
    stretches the momentum band by sqrt(1 + tan^2(t/2)), which diverges as
    t -> pi; sub-rotations of at most pi/4 keep content within 0.92 of the
    box half-width inside the band.
    """
    n_sub = int(np.ceil(abs(theta) / (0.25 * np.pi)))
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
        self.work = _working_grid(grid)
        self.samples = tuple(a.copy() for a in arrays)
        self._refs = [weakref.ref(a, on_free) for a in arrays]

    @cached_property
    def embed(self) -> np.ndarray | None:
        """Transposed embedding of grid amplitudes in the working grid, or None
        when the grid is its own working grid."""
        if self.work is self.grid:
            return None
        return _band_limited_matrix(self.grid.q, self.work.q).T

    @cached_property
    def march(self) -> list:
        """The rays (theta, r) in ascending theta, as (index, shear, dilation, r).

        shear turns the amplitudes of the ray before (of theta = 0 for the
        first) to this ray's angle, in one sub-rotation per pi/4 of the step;
        steps of equal size share their factors.  dilation is the transposed
        band-limited map from the working grid to x / r, None where x / r is
        the working grid, one per distinct r.
        """
        x, *axes = self.samples
        if len(axes) == 1:
            thetas, radii = axes[0], np.ones(len(axes[0]))
        else:
            mm, nn = np.meshgrid(*axes, indexing="ij")
            m_omega = self.grid.mass * self.grid.omega
            thetas = np.arctan2(nn * m_omega, mm).ravel()
            radii = np.hypot(mm, nn * m_omega).ravel()
        q = self.work.q
        order = np.argsort(thetas, kind="stable")
        shears, dilations, march = {}, {}, []
        for k, step in zip(order, np.diff(thetas[order], prepend=0.0)):
            if step not in shears:
                shears[step] = _shear_factors(self.work, step)
            r = radii[k]
            if r not in dilations:
                dilations[r] = (None if np.array_equal(x / r, q)
                                else _band_limited_matrix(q, x / r).T)
            march.append((k, shears[step], dilations[r], r))
        return march

    @cached_property
    def inversion(self) -> tuple | str:
        """invert_optical's sampling-only part on an optical domain: (basis,
        solvers), or the message that refuses the domain.

        basis holds the oscillator levels 0..N at the half-spaced points
        _half_points keeps, solvers[d] the least-squares solution operator
        (N + 1 - d, n_x) of diagonal d over X >= 0, from a column-pivoted QR of
        its design.  A design of numerical rank below its column count (R's
        diagonal below _LEVEL_RCOND of its first entry) leaves its levels
        undetermined.
        """
        from scipy.linalg import qr   # costs every import 0.28 s at module level
        from scipy.linalg.lapack import dtrtri

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
            q, r, perm = qr(design, mode="economic", pivoting=True, check_finite=False)
            diag = np.abs(np.diag(r))
            if np.count_nonzero(diag > _LEVEL_RCOND * diag[0]) < n_levels - d:
                return (f"{len(x)} quadrature points from {x[0]:g} to {x[-1]:g} do not "
                        f"determine the {n_levels} oscillator levels of n = {grid.n} "
                        f"and {n_theta} angles")
            start = len(stacked) - (n_levels - d) * (n_levels - d + 1) // 2
            solver = stacked[start:start + n_levels - d]
            solver[perm] = dtrtri(r)[0] @ q.T
            solvers.append(solver)
        return basis, solvers


def _quadrature_marginals(w_stack: np.ndarray, grid: PhaseSpaceGrid, plan: _Plan,
                          factors: tuple | None) -> np.ndarray:
    """Distributions over x of r (q cos(theta) + p sin(theta)/(m omega)) for
    each ray (theta, r) of plan, shape (..., n_rays, n_x).

    A kernel sum_k weights[c, k] a_k a_k^H (factors; by default the signed
    eigenpairs of the kernels of w_stack, which otherwise gives only the
    leading shape) has the marginal
    sum_k weights[c, k] |R_theta a_k|^2(x/r) / r, R_theta the metaplectic
    rotation.  The rays are visited in ascending theta, each rotated from the
    one before by plan.march, so a ray costs one sub-rotation per pi/4 of its
    angle step instead of per pi/4 of its angle.
    """
    if factors is None:
        kernels = _kernel_of_wigner(w_stack.reshape((-1,) + w_stack.shape[-2:]), grid)
        lam, vecs = np.linalg.eigh(kernels)
        scale = np.max(np.abs(lam), axis=-1, keepdims=True)
        comp, idx = np.nonzero(np.abs(lam) > _FACTOR_RTOL * scale)
        weights = np.zeros((len(kernels), len(comp)))
        weights[comp, np.arange(len(comp))] = lam[comp, idx]
        factors = (weights, vecs[comp, :, idx])
    weights, amps = factors

    if plan.embed is not None:
        amps = amps @ plan.embed
    n_amps = len(amps)
    out = np.empty((len(weights), len(plan.march), len(plan.samples[0])))
    for k, shear, dilation, r in plan.march:
        amps = _shear(amps, shear)
        if dilation is None:
            density = np.abs(amps)**2
        else:
            parts = np.concatenate([amps.real, amps.imag]) @ dilation
            density = parts[:n_amps]**2 + parts[n_amps:]**2
        out[:, k] = weights @ density / r
    return out.reshape(w_stack.shape[:-2] + out.shape[1:])


def radon_slices(w_stack: np.ndarray, grid: PhaseSpaceGrid,
                 thetas: np.ndarray, x: np.ndarray,
                 factors: tuple | None = None) -> np.ndarray:
    """Marginals of Wigner data along X = q cos(theta) + p sin(theta)/(m*omega).

    w_stack has shape (..., n, n); returns (..., n_theta, n_x).  A caller
    that holds the kernels as factors (weights, amps), in the form of
    _wigner_of_factors, passes them to skip the kernel map and eigh; w_stack
    is then read for its leading shape only, so a (c, 0, 0) array will do.
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

# eigenvalues of a reconstructed density matrix up to this size are dropped
# from its factors (_level_factors)
_EIGEN_CUTOFF = 1e-12

# a level system whose singular values fall below this fraction of its largest
# is not determined by the quadrature points; invert_optical refuses it
_LEVEL_RCOND = 1e-10


def angle_step(thetas: np.ndarray) -> float:
    """pi / n_theta for the uniform angle grid theta_k = pi k / n_theta, which
    the optical inversion and theta derivatives assume; raises
    UndersampledDomainError for any other grid."""
    n = len(thetas)
    if not np.allclose(thetas, np.pi * np.arange(n) / n, rtol=0.0, atol=1e-12):
        raise UndersampledDomainError(
            f"expected the uniform angle grid pi k / {n} over [0, pi)")
    return np.pi / n


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


def invert_optical(stack: np.ndarray, grid: PhaseSpaceGrid, dom: TomogramDomain) -> np.ndarray:
    """Density matrices (c, N + 1, N + 1) over the grid oscillator's eigenstates
    psi_0..psi_N (states.oscillator_basis) of optical tomograms (c, n_theta, n_x).

    A kernel sum_mn rho_mn psi_m psi_n has the tomogram
    w(X, theta) = sum_mn rho_mn e^{-i (m - n) theta} psi_m(X) psi_n(X)
    (D'Ariano, Macchiavello and Paris, Phys. Rev. A 50, 4298 (1994)).  The
    angles are extended to [0, 2 pi) with w(X, theta + pi) = w(-X, theta) and
    Fourier transformed; harmonic -d then holds sum_m rho_{m, m-d} psi_m psi_{m-d},
    of parity (-1)^d in X.  The products oscillate twice as fast as the levels,
    so each harmonic is resampled at half the spacing by band-limited
    interpolation, and one least-squares solve over X >= 0 per d = 0..N gives
    the d-th diagonal; the solvers depend on the domain only and come from its
    plan (_Plan.inversion).  Exact to round-off for kernels within the first
    N + 1 levels, N = oscillator_levels, whose tomograms are band-limited on x.

    Raises UndersampledDomainError when the angles are not the uniform grid of
    angle_step, when x is not closed under X -> -X (index l -> n_x - l, as on
    a centered grid) or its points do not determine the N + 1 levels (found
    once per domain, raised on every call), and when the tomogram content those
    levels leave unexplained at the half-spaced points exceeds UNEXPLAINED_RTOL
    of the tomogram's largest value, or is not finite.
    """
    n_theta = len(dom.thetas)
    angle_step(dom.thetas)
    x = dom.x
    if not np.allclose(x[:0:-1], -x[1:], rtol=0.0, atol=1e-9 * dom.dx):
        raise UndersampledDomainError(
            "the optical inversion needs quadrature points closed under X -> -X")
    inversion = _plan(grid, x, dom.thetas).inversion
    if isinstance(inversion, str):
        raise UndersampledDomainError(inversion)
    basis, solvers = inversion
    n_levels = len(basis)
    # harmonics 0..n_theta of the real series at the half-spaced points that
    # _half_points keeps; harmonic -d is the conjugate of d.  One component at
    # a time, which bounds the transforms' scratch memory.
    c = len(stack)
    keep = _half_points(len(x))
    spectrum = np.empty((c, n_theta + 1, len(keep)), dtype=complex)
    for comp, tomogram in zip(spectrum, stack):
        harmonics = np.fft.rfft(np.concatenate([tomogram, _flip_x(tomogram, axis=-1)]), axis=0)
        harmonics /= 2 * n_theta
        comp[:] = fourier_upsample2(harmonics, axis=-1)[:, keep]
    half = slice(1, None)                                      # X >= 0
    levels = np.zeros((c, n_levels, n_levels), dtype=complex)
    for d, solver in enumerate(solvers):
        m = np.arange(d, n_levels)
        harmonic = spectrum[:, d, half].conj()                 # harmonic -d, (c, n_x)
        sol = solver @ np.concatenate([harmonic.real, harmonic.imag]).T
        rho_d = (sol[:, :c] + 1j * sol[:, c:]).T               # rho_{m, m-d}, (c, N + 1 - d)
        levels[:, m, m - d] = rho_d
        levels[:, m - d, m] = rho_d.conj()
        explained = np.concatenate([rho_d.real, rho_d.imag]) @ (basis[d:] * basis[:n_levels - d])
        spectrum[:, d] -= explained[:c] - 1j * explained[c:]
    # largest |residual| per component (a NaN propagates)
    unexplained = np.max([np.max(np.abs(np.fft.irfft(comp, 2 * n_theta, axis=0)), initial=0.0)
                          for comp in spectrum], initial=0.0) * 2 * n_theta
    scale = float(np.max(np.abs(stack), initial=0.0))
    if not unexplained <= UNEXPLAINED_RTOL * scale:           # a NaN fails too
        raise UndersampledDomainError(
            f"{n_levels} oscillator levels ({n_theta} angles, n = {grid.n}) leave "
            f"{unexplained / scale:.2e} of the tomogram's largest value unexplained, above "
            f"{UNEXPLAINED_RTOL:g}: the state is not supported by the grid or the angles")
    return levels


def _level_factors(matrix: np.ndarray, dim: int, grid: PhaseSpaceGrid) -> tuple:
    """Factors (probs (r,), fields (r, dim, n)) of a density matrix over the
    basis |a> (x) psi_m, a < dim, m <= N (row index a (N + 1) + m): its
    eigenpairs with |p| > 1e-12, as in SpinorDensity.factors, in ascending p,
    with each eigenvector summed over the oscillator levels on the grid.

    Only those eigenpairs are solved for, by LAPACK's selected-eigenpair
    driver (heevx): the ones with p > 1e-12, and those with p < -1e-12 only
    when a Cholesky factorisation of matrix + 1e-12 I fails, which proves
    that one exists.  A density matrix keeps its few nonzero eigenpairs, so
    this skips the full decomposition and its back-transformation.
    """
    from scipy.linalg import LinAlgError, cholesky, eigh   # as in _Plan.inversion

    probs, vecs = eigh(matrix, subset_by_value=(_EIGEN_CUTOFF, np.inf), driver="evx",
                       check_finite=False)
    shifted = np.array(matrix, order="F")          # potrf factorises it in place
    shifted.flat[::len(matrix) + 1] += _EIGEN_CUTOFF
    try:
        cholesky(shifted, lower=True, overwrite_a=True, check_finite=False)
    except LinAlgError:
        below = np.nextafter(-_EIGEN_CUTOFF, -np.inf)      # the interval is (lo, hi]
        neg, neg_vecs = eigh(matrix, subset_by_value=(-np.inf, below), driver="evx",
                             check_finite=False)
        probs, vecs = np.concatenate([neg, probs]), np.hstack([neg_vecs, vecs])
    n_levels = len(matrix) // dim
    fields = vecs.T.reshape(-1, dim, n_levels) @ oscillator_basis(grid, n_levels)
    return probs, fields


def wigner_from_optical(fld: ScalarField) -> ScalarField:
    """Wigner function of one optical tomogram: invert_optical, then the Wigner
    transform of the resulting kernel's factors (_level_factors).

    Kept as the single-field entry point whose name and signature the
    benchmark's span table traces; from_vector calls invert_optical directly.
    """
    if fld.kind != "optical":
        raise ValueError(f"expected an optical field, got {fld.kind!r}")
    levels = invert_optical(fld.values[None], fld.grid, fld.domain)[0]
    probs, fields = _level_factors(levels, 1, fld.grid)
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
