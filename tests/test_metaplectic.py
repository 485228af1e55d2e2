"""Optical and symplectic portraits by metaplectic rotation of kernel factors,
checked against the dense characteristic-function ray sums (kept here as the
independent reference) and against closed-form Gaussian marginals."""
import numpy as np
import pytest

from spintomo import (
    PhaseSpaceGrid,
    SpinorDensity,
    TomogramDomain,
    build_spin1_frame,
    gaussian_packet,
    random_frame,
    spinor_product_state,
    to_vector,
)
from spintomo.phase_space import (
    _band_limited_matrix,
    _rotate,
    _wigner_of_kernel,
    _working_grid,
    radon_slices,
    symplectic_profiles,
)
from spintomo.residuals import default_domain

JUST_BELOW_PI = np.pi * (1 - 1e-12)


def dense_ray_profiles(w_stack, grid, a_rows, b_rows, x):
    """Profiles over x for frequency rays (a_rows[r], b_rows[r]) * eta.

    w_stack has shape (..., n, n).  For each ray r, the characteristic
    function chi(eta * a_r, eta * b_r) is evaluated by direct (exact)
    summation on the eta grid conjugate to x, then inverted to X space.
    Returns shape (..., n_rays, n_x).
    """
    q = grid.q
    p = grid.p
    cell = grid.cell
    nx = len(x)
    dx = float(x[1] - x[0])
    eta = 2.0 * np.pi * np.fft.fftfreq(nx, dx)
    lead = w_stack.shape[:-2]
    flat = w_stack.reshape((-1,) + w_stack.shape[-2:])
    out = np.empty((flat.shape[0], len(a_rows), nx))
    phase_x0 = np.exp(1j * eta * x[0])
    # frequencies beyond the grid band alias to periodization ghosts; drop them
    band_q = (1.0 + 1e-12) * np.pi / grid.dx
    band_p = (1.0 + 1e-12) * np.pi / grid.dp
    for r, (ar, br) in enumerate(zip(a_rows, b_rows)):
        keep = (np.abs(eta * ar) <= band_q) & (np.abs(eta * br) <= band_p)
        e_q = np.exp(-1j * np.outer(eta * ar, q))          # (n_eta, n)
        e_p = np.exp(-1j * np.outer(eta * br, p))          # (n_eta, n)
        tmp = flat @ e_p.T                                  # (c, n, n_eta)
        chi = np.einsum("mi,cim->cm", e_q, tmp) * cell      # (c, n_eta)
        prof = np.fft.ifft(chi * keep[None, :] * phase_x0, axis=1) / dx
        out[:, r, :] = prof.real
    return out.reshape(lead + (len(a_rows), nx))


def gaussian_marginal(grid, q0, p0, sigma, theta, r, x):
    """Distribution over x of r (q cos(theta) + p sin(theta)/(m omega)) for
    gaussian_packet(grid, q0, p0, sigma); theta and r broadcast against x."""
    m_omega = grid.mass * grid.omega
    mean = r * (q0 * np.cos(theta) + p0 * np.sin(theta) / m_omega)
    var = r**2 * (sigma**2 * np.cos(theta)**2
                  + (grid.hbar / (2 * sigma * m_omega))**2 * np.sin(theta)**2)
    return np.exp(-(x - mean)**2 / (2 * var)) / np.sqrt(2 * np.pi * var)


FRAMES = {
    "paper": build_spin1_frame(),
    "random-0.5": random_frame(0.5, seed=11),
    "random-1.0": random_frame(1.0, seed=12),
    "random-1.5": random_frame(1.5, seed=13),
}


def mixture(grid, frame, rank, rng, centre, sigmas):
    d = frame.dim
    psis = [spinor_product_state(grid, rng.normal(size=d) + 1j * rng.normal(size=d),
                                 gaussian_packet(grid, *rng.uniform(-centre, centre, 2),
                                                 rng.uniform(*sigmas)))
            for _ in range(rank)]
    return SpinorDensity.from_mixture(rng.dirichlet(np.ones(rank)), psis, grid)


# The dense reference truncates each marginal's spectrum at the X-grid band
# and wraps marginals periodically.  At n = 128 neither matters for the
# packets below; at n = 64 even a coherent-width packet loses ~1e-12 of its
# marginal at oblique angles, so there the angles are those where the
# reference is exact (0, pi/2, just below pi), and packets have the
# oscillator width.  test_balanced_n64_oblique_angles covers the rest.
GRID_CASES = {
    64: dict(thetas=np.array([0.0, np.pi / 2, JUST_BELOW_PI]), centre=1.0,
             sigmas=(np.sqrt(0.5), np.sqrt(0.5))),
    128: dict(thetas=np.append(np.pi * np.arange(12) / 12, JUST_BELOW_PI), centre=1.5,
              sigmas=(0.65, 0.85)),
}


@pytest.mark.parametrize("n", sorted(GRID_CASES))
@pytest.mark.parametrize("frame_key", sorted(FRAMES))
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_portraits_match_dense_reference(n, frame_key, rank):
    case = GRID_CASES[n]
    grid = PhaseSpaceGrid.balanced(n)
    frame = FRAMES[frame_key]
    rng = np.random.default_rng([n, rank, frame.size])
    rho = mixture(grid, frame, rank, rng, case["centre"], case["sigmas"])
    wigners = to_vector(rho, frame, "wigner").components

    opt = TomogramDomain(kind="optical", x=grid.q.copy(), thetas=case["thetas"])
    ref = dense_ray_profiles(wigners, grid, np.cos(opt.thetas), np.sin(opt.thetas), opt.x)
    assert np.max(np.abs(to_vector(rho, frame, "optical", opt).components - ref)) <= 1e-12

    sym = default_domain("symplectic-section", grid)
    mm, nn = np.meshgrid(sym.mu, sym.nu, indexing="ij")
    ref = dense_ray_profiles(wigners, grid, mm.ravel(), nn.ravel(), sym.x)
    got = to_vector(rho, frame, "symplectic-section", sym).components
    assert np.max(np.abs(got.reshape(ref.shape) - ref)) <= 1e-12


def test_wigner_input_matches_kernel_input(grid128):
    rng = np.random.default_rng(3)
    rho = mixture(grid128, FRAMES["paper"], 2, rng, 1.5, (0.65, 0.85))
    kernel = np.einsum("aaxy->xy", rho.blocks)
    w = _wigner_of_kernel(kernel, grid128).real[None]
    thetas = np.pi * np.arange(16) / 16
    via_wigner = radon_slices(w, grid128, thetas, grid128.q)
    via_kernel = radon_slices(w, grid128, thetas, grid128.q, kernels=kernel[None])
    assert np.max(np.abs(via_wigner - via_kernel)) <= 1e-12
    mu, nu = np.array([0.9, -1.1]), np.array([0.8, 1.2])
    assert np.max(np.abs(symplectic_profiles(w, grid128, mu, nu, grid128.q)
                         - symplectic_profiles(w, grid128, mu, nu, grid128.q,
                                               kernels=kernel[None]))) <= 1e-12


def test_signed_kernel_matches_dense_reference(grid128):
    # a difference of two packets' kernels has one negative eigenvalue
    psi1 = gaussian_packet(grid128, 0.7, -0.4, 0.8)
    psi2 = gaussian_packet(grid128, -1.0, 0.9, 0.7)
    kernel = 0.7 * np.outer(psi1, psi1.conj()) - 0.4 * np.outer(psi2, psi2.conj())
    w = _wigner_of_kernel(kernel, grid128).real[None]
    thetas = np.append(np.pi * np.arange(8) / 8, JUST_BELOW_PI)
    got = radon_slices(w, grid128, thetas, grid128.q)
    ref = dense_ray_profiles(w, grid128, np.cos(thetas), np.sin(thetas), grid128.q)
    assert got.min() < -0.1
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_balanced_n64_oblique_angles(grid64):
    # at oblique angles on n = 64 the reference's band truncation is the
    # larger error: the rotation route is at least as close to the closed form
    q0, p0, sigma = 0.6, -0.8, np.sqrt(0.5)
    psi = gaussian_packet(grid64, q0, p0, sigma)
    kernel = np.outer(psi, psi.conj())[None]
    w = _wigner_of_kernel(kernel[0], grid64).real[None]
    thetas = np.pi * np.arange(16) / 16
    exact = gaussian_marginal(grid64, q0, p0, sigma, thetas[:, None], 1.0, grid64.q)
    err_new = np.max(np.abs(radon_slices(w, grid64, thetas, grid64.q, kernels=kernel)[0]
                            - exact))
    err_ref = np.max(np.abs(dense_ray_profiles(w, grid64, np.cos(thetas), np.sin(thetas),
                                               grid64.q)[0] - exact))
    assert err_new <= err_ref
    assert err_new < 1e-13


@pytest.mark.parametrize("grid", [PhaseSpaceGrid.centered(64, 20.0, mass=2.0),
                                  PhaseSpaceGrid.centered(128, 16.0)],
                         ids=["n64-L20-m2", "n128-L16"])
def test_non_balanced_grids_no_worse_than_dense_route(grid):
    q0, p0, sigma = 0.8, 0.5, 1.0
    m_omega = grid.mass * grid.omega
    psi = gaussian_packet(grid, q0, p0, sigma)
    kernel = np.outer(psi, psi.conj())[None]
    w = _wigner_of_kernel(kernel[0], grid).real[None]
    x = grid.q

    thetas = np.pi * np.arange(32) / 32
    exact = gaussian_marginal(grid, q0, p0, sigma, thetas[:, None], 1.0, x)
    err_new = np.max(np.abs(radon_slices(w, grid, thetas, x, kernels=kernel)[0] - exact))
    err_ref = np.max(np.abs(dense_ray_profiles(w, grid, np.cos(thetas),
                                               np.sin(thetas) / m_omega, x)[0] - exact))
    assert err_new <= err_ref

    dom = default_domain("symplectic-section", grid)
    mm, nn = np.meshgrid(dom.mu, dom.nu, indexing="ij")
    theta = np.arctan2(nn * m_omega, mm).ravel()[:, None]
    r = np.hypot(mm, nn * m_omega).ravel()[:, None]
    exact = gaussian_marginal(grid, q0, p0, sigma, theta, r, x)
    got = symplectic_profiles(w, grid, dom.mu, dom.nu, x, kernels=kernel)[0]
    err_new = np.max(np.abs(got.reshape(exact.shape) - exact))
    err_ref = np.max(np.abs(dense_ray_profiles(w, grid, mm.ravel(), nn.ravel(), x)[0]
                            - exact))
    assert err_new <= err_ref


def test_working_grid():
    balanced = PhaseSpaceGrid.balanced(64, mass=2.0, omega=1.5)
    assert _working_grid(balanced) is balanced
    for grid in (PhaseSpaceGrid.centered(64, 20.0, mass=2.0),
                 PhaseSpaceGrid.centered(128, 16.0)):
        work = _working_grid(grid)
        m_omega = work.mass * work.omega
        span = max(grid.length, grid.n * grid.dp / m_omega)
        assert work.dp == pytest.approx(m_omega * work.dx, rel=1e-12)
        assert work.x0 == pytest.approx(-work.length / 2, rel=1e-12)
        assert work.length >= span * (1 - 1e-12)
        # smallest such grid: half as many points would not cover the span
        assert PhaseSpaceGrid.balanced(work.n // 2, mass=work.mass).length < span


def test_rotation_quarter_turn_is_momentum_density(grid128):
    psi = gaussian_packet(grid128, 0.9, -0.6, 0.8)
    rotated = _rotate(psi, grid128, np.pi / 2)
    phi = np.fft.fftshift(np.fft.fft(psi)) * grid128.dx / np.sqrt(2 * np.pi)
    assert np.max(np.abs(np.abs(rotated)**2 - np.abs(phi)**2)) < 1e-13
    # rotations compose, and the half turn is the parity q -> -q
    twice = _rotate(_rotate(psi, grid128, 1.1), grid128, -0.4)
    assert np.max(np.abs(np.abs(twice)**2 - np.abs(_rotate(psi, grid128, 0.7))**2)) < 1e-13
    half = np.abs(_rotate(psi, grid128, np.pi))**2
    assert np.max(np.abs(half - np.roll(np.abs(psi[::-1])**2, 1))) < 1e-13


def test_band_limited_matrix_complex_stack(rng):
    n = 64
    x = -3.0 + 0.25 * np.arange(n)
    period = n * 0.25
    coeffs = rng.normal(size=(2, 3, 21)) + 1j * rng.normal(size=(2, 3, 21))
    ks = np.arange(-10, 11)

    def trig(t):
        return np.einsum("abk,tk->abt", coeffs, np.exp(2j * np.pi * np.outer(t - x[0], ks)
                                                         / period))

    targets = np.concatenate([x[0] + period * rng.uniform(size=40), x[:5]])
    got = trig(x) @ _band_limited_matrix(x, targets).T
    assert got.shape == (2, 3, len(targets))
    assert np.max(np.abs(got - trig(targets))) < 1e-12
    # samples reproduced; targets outside the period box read zero
    assert np.max(np.abs(_band_limited_matrix(x, x) - np.eye(n))) < 1e-14
    outside = _band_limited_matrix(x, np.array([x[0] - 0.1, x[0] + period]))
    assert np.all(outside == 0.0)
