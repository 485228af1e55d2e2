"""Spatial representation transforms on a 1-D grid.

Density kernel <-> Wigner by FFT over the skew coordinate (with exact Fourier
interpolation at half-grid points); optical and symplectic tomograms by
metaplectic rotation of kernel factors; optical -> Wigner by ramp-filtered
back-projection; Wigner -> Husimi by Gaussian smoothing; plus the
Fourier-multiplier operators used by the tomographic evolution equations.

Tomograms: a Hermitian kernel K = sum_r lam_r phi_r phi_r^H (signed
eigen-factors) has the quadrature marginal
w(X, theta) = sum_r lam_r |R_theta phi_r|^2(X), where R_theta is the
fractional-Fourier rotation, applied as chirp / Fresnel / chirp FFT shears.
The symplectic tomogram of mu q + nu p is the same marginal at X/r, divided
by r = |(mu, nu m omega)|.  Rotations need equal, origin-centred ranges in q
and p/(m omega), so the factors are first embedded (by band-limited
interpolation) in a balanced working grid that covers both; on balanced
grids that embedding is the identity.  Results are exact to round-off for
grid-supported states: mass inside the box, momentum content within half the
p-range, and kernel coherences negligible at half-box separation.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import InvalidStateError, UndersampledDomainError
from .grids import PhaseSpaceGrid, ScalarField, TomogramDomain


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
    return 2.0 * np.fft.ifft(padded, axis=axis)


def ddx(values: np.ndarray, dx: float, axis: int = -1) -> np.ndarray:
    """Spectral derivative along one axis."""
    n = values.shape[axis]
    k = 2.0 * np.pi * np.fft.fftfreq(n, dx)
    shape = [1] * values.ndim
    shape[axis] = n
    out = np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(values, axis=axis), axis=axis)
    return out.real if np.isrealobj(values) else out


# ---------------------------------------------------------------------------
# density kernel <-> Wigner
# ---------------------------------------------------------------------------

def _wigner_of_kernel(rho: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """Wigner transform of a (not necessarily unit-trace) Hermitian kernel.

    Returns the complex array on the (q, p-ascending) grid; callers take the
    real part after checking the imaginary residue.
    """
    n = grid.n
    fine = fourier_upsample2(fourier_upsample2(rho, axis=0), axis=1)
    i = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    s = (k + n // 2) % n - n // 2  # signed skew offsets, FFT bin order
    a_idx = (2 * i + s) % (2 * n)
    b_idx = (2 * i - s) % (2 * n)
    skew = fine[a_idx, b_idx]
    w = np.fft.fft(skew, axis=1) * (grid.dx / (2.0 * np.pi * grid.hbar))
    return np.fft.fftshift(w, axes=1)


def _kernel_of_wigner(w: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """Inverse of _wigner_of_kernel (exact on grid-supported states)."""
    n = grid.n
    skew = np.fft.ifft(np.fft.ifftshift(np.asarray(w, dtype=complex), axes=1), axis=1)
    skew *= 2.0 * np.pi * grid.hbar / grid.dx
    centers_fine = fourier_upsample2(skew, axis=0)
    a = np.arange(n)[:, None]
    b = np.arange(n)[None, :]
    d = a - b
    # signed offset representative; wrapped offsets shift the midpoint by L/2
    s = (d + n // 2) % n - n // 2
    return centers_fine[(2 * a - s) % (2 * n), d % n]


def wigner_from_density(fld: ScalarField) -> ScalarField:
    """Wigner function of a density kernel rho(x, x')."""
    if fld.kind != "density-matrix":
        raise ValueError(f"expected a density-matrix field, got {fld.kind!r}")
    rho = fld.values
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > 1e-8:
        raise InvalidStateError(f"kernel is not Hermitian (residue {herm:.2e})")
    tr = float(np.trace(rho).real * fld.grid.dx)
    if abs(tr - 1.0) > 1e-10:
        raise InvalidStateError(f"kernel trace {tr!r} != 1")
    w = _wigner_of_kernel(rho, fld.grid)
    residue = float(np.max(np.abs(w.imag)))
    return ScalarField(grid=fld.grid, values=w.real, kind="wigner", imag_residue=residue)


def density_from_wigner(fld: ScalarField) -> ScalarField:
    """Density kernel from a Wigner field (inverse FFT map)."""
    if fld.kind != "wigner":
        raise ValueError(f"expected a wigner field, got {fld.kind!r}")
    rho = _kernel_of_wigner(fld.values, fld.grid)
    return ScalarField(grid=fld.grid, values=rho, kind="density-matrix")


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


def _rotate(amps: np.ndarray, work: PhaseSpaceGrid, theta: float) -> np.ndarray:
    """Fractional-Fourier rotation of amplitudes (..., N) on the balanced grid
    work: afterwards |amps|^2 is the marginal of q cos(theta) + p sin(theta)/(m omega).

    Each sub-rotation t is three shears (Ozaktas et al., IEEE TSP 1996): the
    chirp exp(-i tan(t/2) m omega q^2 / 2 hbar), the Fresnel factor
    exp(-i sin(t) hbar k^2 / 2 m omega), and the chirp again.  The chirp
    stretches the momentum band by sqrt(1 + tan^2(t/2)), which diverges as
    t -> pi; sub-rotations of at most pi/4 keep content within 0.92 of the
    box half-width inside the band.
    """
    m_omega = work.mass * work.omega
    half_q2 = 0.5 * m_omega * work.q**2 / work.hbar
    half_k2 = 0.5 * work.hbar * work.k_fft**2 / m_omega
    n_sub = int(np.ceil(abs(theta) / (0.25 * np.pi)))
    for _ in range(n_sub):
        t = theta / n_sub
        chirp = np.exp(-1j * np.tan(0.5 * t) * half_q2)
        fresnel = np.exp(-1j * np.sin(t) * half_k2)
        amps = chirp * np.fft.ifft(fresnel * np.fft.fft(chirp * amps, axis=-1), axis=-1)
    return amps


def _quadrature_marginals(w_stack: np.ndarray, grid: PhaseSpaceGrid,
                          thetas: np.ndarray, radii: np.ndarray, x: np.ndarray,
                          kernels: np.ndarray | None) -> np.ndarray:
    """Distributions over x of r (q cos(theta) + p sin(theta)/(m omega)) for
    each ray (theta, r), shape (..., n_rays, n_x).

    Each Hermitian kernel K = sum_r lam_r phi_r phi_r^H (signed eigen-factors)
    has the marginal sum_r lam_r |R_theta phi_r|^2(x/r) / r, with R_theta the
    metaplectic rotation on the working grid.
    """
    lead = w_stack.shape[:-2]
    if kernels is None:
        kernels = [_kernel_of_wigner(w, grid)
                   for w in w_stack.reshape((-1,) + w_stack.shape[-2:])]
    kernels = np.reshape(kernels, (-1, grid.n, grid.n))
    lam, vecs = np.linalg.eigh(kernels)
    scale = np.max(np.abs(lam), axis=-1, keepdims=True)
    comp, idx = np.nonzero(np.abs(lam) > _FACTOR_RTOL * scale)
    amps = vecs[comp, :, idx]                                   # (rank, n)
    weights = np.zeros((len(kernels), len(comp)))
    weights[comp, np.arange(len(comp))] = lam[comp, idx]

    work = _working_grid(grid)
    if work is not grid:
        amps = amps @ _band_limited_matrix(grid.q, work.q).T
    dilations = {}
    out = np.empty((len(kernels), len(thetas), len(x)))
    for k, (theta, r) in enumerate(zip(thetas, radii)):
        rotated = _rotate(amps, work, theta)
        if not np.array_equal(x / r, work.q):
            if r not in dilations:
                dilations[r] = _band_limited_matrix(work.q, x / r)
            rotated = rotated @ dilations[r].T
        out[:, k] = weights @ np.abs(rotated)**2 / r
    return out.reshape(lead + out.shape[1:])


def radon_slices(w_stack: np.ndarray, grid: PhaseSpaceGrid,
                 thetas: np.ndarray, x: np.ndarray,
                 kernels: np.ndarray | None = None) -> np.ndarray:
    """Marginals of Wigner data along X = q cos(theta) + p sin(theta)/(m*omega).

    w_stack has shape (..., n, n); returns (..., n_theta, n_x).  A caller
    that already holds the density kernels of w_stack passes them as
    kernels (same shape) to skip the Wigner -> kernel map.
    """
    thetas = np.asarray(thetas, dtype=float)
    return _quadrature_marginals(w_stack, grid, thetas, np.ones_like(thetas), x, kernels)


def symplectic_profiles(w_stack: np.ndarray, grid: PhaseSpaceGrid,
                        mu: np.ndarray, nu: np.ndarray, x: np.ndarray,
                        kernels: np.ndarray | None = None) -> np.ndarray:
    """Distributions of mu*q + nu*p on the meshed (mu, nu) samples.

    Uses mu q + nu p = r X(theta) with r = sqrt(mu^2 + nu^2 m^2 w^2) and
    theta = atan2(nu m w, mu).  Returns shape (..., n_mu, n_nu, n_x);
    kernels as in radon_slices.
    """
    mm, nn = np.meshgrid(mu, nu, indexing="ij")
    m_omega = grid.mass * grid.omega
    prof = _quadrature_marginals(w_stack, grid, np.arctan2(nn * m_omega, mm).ravel(),
                                 np.hypot(mm, nn * m_omega).ravel(), x, kernels)
    return prof.reshape(w_stack.shape[:-2] + (len(mu), len(nu), len(x)))


def optical_tomogram(fld: ScalarField, dom: TomogramDomain) -> ScalarField:
    """Optical tomogram (Radon marginals) of a Wigner field."""
    if fld.kind != "wigner":
        raise ValueError(f"expected a wigner field, got {fld.kind!r}")
    if dom.kind != "optical":
        raise ValueError("optical tomogram needs an optical domain")
    values = radon_slices(fld.values[None, :, :], fld.grid, dom.thetas, dom.x)[0]
    return ScalarField(grid=fld.grid, values=values, kind="optical", domain=dom)


# ---------------------------------------------------------------------------
# filtered back-projection
# ---------------------------------------------------------------------------

# fewest tomogram angles back_project accepts
MIN_ANGLES = 16


def angle_step(thetas: np.ndarray) -> float:
    """pi / n_theta for the uniform angle grid theta_k = pi k / n_theta, which
    back-projection, symplectic sections and theta derivatives assume; raises
    UndersampledDomainError for any other grid."""
    n = len(thetas)
    if not np.allclose(thetas, np.pi * np.arange(n) / n, rtol=0.0, atol=1e-12):
        raise UndersampledDomainError(
            f"expected the uniform angle grid pi k / {n} over [0, pi)")
    return np.pi / n


def _ramp_kernel_matrix(x_src: np.ndarray, x_dst: np.ndarray, dxs: float) -> np.ndarray:
    """Matrix of the band-limited ramp kernel h(x_dst - x_src) * dx.

    h(xi) = (1/2 pi) int_{-A}^{A} |eta| e^{i eta xi} d eta with A = pi/dx;
    convolving the samples with h is exact for band-limited projections.
    """
    a = np.pi / dxs
    xi = x_dst[:, None] - x_src[None, :]
    u = a * xi
    small = np.abs(u) < 1e-3
    u_safe = np.where(small, 1.0, u)
    direct = (a**2 / np.pi) * ((np.cos(u_safe) - 1.0) / u_safe**2
                               + np.sin(u_safe) / u_safe)
    taylor = (a**2 / np.pi) * (0.5 - u**2 / 8.0)
    return np.where(small, taylor, direct) * dxs


def back_project(stack: np.ndarray, grid: PhaseSpaceGrid, dom: TomogramDomain) -> np.ndarray:
    """Ramp-filtered back-projection of optical tomograms (c, n_theta, n_x)
    onto Wigner grids (c, n, n).

    Hann window at 80% of the X-Nyquist frequency; Radon inversion dominates
    the error budget (about 1e-3 in max norm for well-resolved states).  The
    filter and the interpolation weights depend only on the domain, so they
    are built once and shared by all c tomograms in one loop over angles.
    Needs at least MIN_ANGLES angles on the uniform grid of angle_step.
    """
    thetas = dom.thetas
    if len(thetas) < MIN_ANGLES:
        raise UndersampledDomainError(
            f"filtered back-projection needs >= {MIN_ANGLES} angles, got {len(thetas)}"
        )
    d_theta = angle_step(thetas)
    x = dom.x
    nx = len(x)
    dxs = dom.dx

    # evaluation abscissa: 4x padded range (filtered projections have 1/t^2
    # tails), 4x upsampled so linear interpolation is harmless
    n_pad = 4 * nx
    up = 4
    n_fine = up * n_pad
    off = (n_pad - nx) // 2
    x_fine = x[0] - off * dxs + (dxs / up) * np.arange(n_fine)

    # Hann taper from 80% of Nyquist as a smooth spectral correction:
    # effective filter |eta| * window = ramp - |eta| * (1 - window).  The
    # correction is a periodic convolution on the padded range: its response
    # to a unit sample at padded index 0, Fourier-upsampled to the fine
    # abscissa, where sample l sits at index up * (off + l).
    eta = 2.0 * np.pi * np.fft.fftfreq(n_pad, dxs)
    eta_nyq = np.pi / dxs
    eta_cut = 0.8 * eta_nyq
    taper_loss = np.zeros(n_pad)
    roll = np.abs(eta) > eta_cut
    taper_loss[roll] = np.abs(eta[roll]) * 0.5 * (
        1.0 - np.cos(np.pi * (np.abs(eta[roll]) - eta_cut) / (eta_nyq - eta_cut)))
    taper = fourier_upsample2(fourier_upsample2(np.fft.ifft(taper_loss))).real

    # band-limited ramp applied as its exact real-space kernel; exact for
    # band-limited slices, so no zero-bin quadrature bias
    filt = _ramp_kernel_matrix(x, x_fine, dxs)                  # (n_fine, n_x)
    for l in range(nx):
        filt[:, l] -= np.roll(taper, up * (off + l))

    m_omega = grid.mass * grid.omega
    q = grid.q
    y = grid.p / m_omega
    n_out = grid.n * grid.n
    row_ptr = np.arange(0, 2 * n_out + 1, 2)

    w_scaled = np.zeros((n_out, len(stack)))
    for t, th in enumerate(thetas):
        # linear interpolation on the fine abscissa (zero outside it) as a
        # sparse matrix with two entries per output point
        pos = ((q[:, None] * np.cos(th) + y[None, :] * np.sin(th)).ravel()
               - x_fine[0]) * (up / dxs)
        inside = (pos >= 0.0) & (pos <= n_fine - 1)
        i0 = np.clip(np.floor(pos).astype(int), 0, n_fine - 2)
        frac = pos - i0
        interp = sparse.csr_matrix(
            (np.column_stack([(1.0 - frac) * inside, frac * inside]).ravel(),
             np.column_stack([i0, i0 + 1]).ravel(), row_ptr),
            shape=(n_out, n_fine))
        w_scaled += interp @ (filt @ stack[:, t, :].T)
    w_scaled *= d_theta / (2.0 * np.pi)
    return w_scaled.T.reshape(len(stack), grid.n, grid.n) / m_omega


def wigner_from_optical(fld: ScalarField) -> ScalarField:
    """Ramp-filtered back-projection of one optical tomogram (see back_project)."""
    if fld.kind != "optical":
        raise ValueError(f"expected an optical field, got {fld.kind!r}")
    values = back_project(fld.values[None], fld.grid, fld.domain)[0]
    return ScalarField(grid=fld.grid, values=values, kind="wigner")


# ---------------------------------------------------------------------------
# symplectic sections and Husimi smoothing
# ---------------------------------------------------------------------------

def symplectic_section(tom: ScalarField, mu: float, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Distribution of mu*q + nu*p from an optical tomogram.

    Uses the homogeneity relation M(X, mu, nu) = w(X/r, theta)/r with
    r = sqrt(mu^2 + nu^2 m^2 w^2) and theta = atan2(nu m w, mu), read between
    the tomogram's angles by band-limited interpolation on the uniform grid
    of angle_step.  Returns (x, profile) on the tomogram's quadrature grid.
    """
    if tom.kind != "optical":
        raise ValueError(f"expected an optical field, got {tom.kind!r}")
    if mu == 0.0 and nu == 0.0:
        raise ValueError("(mu, nu) = (0, 0) does not define a quadrature")
    g = tom.grid
    m_omega = g.mass * g.omega
    r = float(np.hypot(mu, nu * m_omega))
    theta = float(np.arctan2(nu * m_omega, mu)) % np.pi
    x = tom.domain.x
    thetas = tom.domain.thetas
    angle_step(thetas)
    # slice at theta from the theta series extended over [0, 2 pi) with
    # w(X, theta + pi) = w(-X, theta)
    mirrored = np.roll(tom.values[:, ::-1], 1, axis=1)
    extended = np.concatenate([tom.values, mirrored], axis=0)
    theta_ext = np.concatenate([thetas, thetas + np.pi])
    sl = _band_limited_matrix(theta_ext, np.array([theta])) @ extended
    # targets beyond the quadrature box would wrap periodically; the slice
    # decays there, so the true value is zero
    profile = (sl @ _band_limited_matrix(x, x / r).T)[0] / r
    return x.copy(), profile


def husimi_variances(grid: PhaseSpaceGrid) -> tuple[float, float]:
    """Variances hbar/(2 m w) in q and hbar m w / 2 in p of the Gaussian that
    smooths a Wigner function into the Husimi function."""
    return (grid.hbar / (2.0 * grid.mass * grid.omega),
            grid.hbar * grid.mass * grid.omega / 2.0)


def husimi_from_wigner(fld: ScalarField) -> ScalarField:
    """Husimi function: Weierstrass (Gaussian) smoothing of the Wigner function
    with the variances of husimi_variances, so the result equals the
    coherent-state expectation divided by 2*pi*hbar.
    """
    if fld.kind != "wigner":
        raise ValueError(f"expected a wigner field, got {fld.kind!r}")
    g = fld.grid
    var_q, var_p = husimi_variances(g)
    kq = 2.0 * np.pi * np.fft.fftfreq(g.n, g.dx)
    kp = 2.0 * np.pi * np.fft.fftfreq(g.n, g.dp)
    mult = np.exp(-0.5 * var_q * kq[:, None] ** 2 - 0.5 * var_p * kp[None, :] ** 2)
    smooth = np.fft.ifft2(mult * np.fft.fft2(fld.values)).real
    return ScalarField(grid=g, values=smooth, kind="husimi")
