"""Optical and symplectic portraits by metaplectic rotation of kernel factors,
from to_vector's carried factors and from Wigner input, checked against the
dense characteristic-function ray sums (kept here as the independent
reference) and against closed-form Gaussian marginals; and the per-domain
plans that march the rotation from ray to ray."""
import gc
import weakref

import numpy as np
import pytest

from spintomo import (
    PhaseSpaceGrid,
    SpinorDensity,
    TomogramDomain,
    build_spin1_frame,
    gaussian_packet,
    from_vector,
    random_frame,
    spinor_product_state,
    to_vector,
)
from spintomo import phase_space
from spintomo.phase_space import (
    _band_limited_matrix,
    _shear,
    _shear_factors,
    _wigner_of_factors,
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


def pure_factors(psi):
    """Factor form (weights (1, 1), amps (1, n)) of the kernel psi psi^H."""
    return np.ones((1, 1)), psi[None]


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
    # the spin-traced kernel sum_a rho_aa in factor form: weight p_r on psi_ra
    probs, fields = rho.factors
    factors = (np.repeat(probs, 3)[None], fields.reshape(-1, grid128.n))
    w = _wigner_of_factors(*factors, grid128).real
    thetas = np.pi * np.arange(16) / 16
    via_wigner = radon_slices(w, grid128, thetas, grid128.q)
    via_kernel = radon_slices(w, grid128, thetas, grid128.q, factors=factors)
    assert np.max(np.abs(via_wigner - via_kernel)) <= 1e-12
    mu, nu = np.array([0.9, -1.1]), np.array([0.8, 1.2])
    assert np.max(np.abs(symplectic_profiles(w, grid128, mu, nu, grid128.q)
                         - symplectic_profiles(w, grid128, mu, nu, grid128.q,
                                               factors=factors))) <= 1e-12


def test_signed_kernel_matches_dense_reference(grid128):
    # a difference of two packets' kernels has one negative eigenvalue
    psi1 = gaussian_packet(grid128, 0.7, -0.4, 0.8)
    psi2 = gaussian_packet(grid128, -1.0, 0.9, 0.7)
    w = _wigner_of_factors(np.array([[0.7, -0.4]]), np.stack([psi1, psi2]), grid128).real
    thetas = np.append(np.pi * np.arange(8) / 8, JUST_BELOW_PI)
    got = radon_slices(w, grid128, thetas, grid128.q)
    ref = dense_ray_profiles(w, grid128, np.cos(thetas), np.sin(thetas), grid128.q)
    assert got.min() < -0.1
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_balanced_n64_oblique_angles(grid64):
    # at oblique angles on n = 64 the reference's band truncation is the
    # larger error: the rotation route is at least as close to the closed form
    q0, p0, sigma = 0.6, -0.8, np.sqrt(0.5)
    factors = pure_factors(gaussian_packet(grid64, q0, p0, sigma))
    w = _wigner_of_factors(*factors, grid64).real
    thetas = np.pi * np.arange(16) / 16
    exact = gaussian_marginal(grid64, q0, p0, sigma, thetas[:, None], 1.0, grid64.q)
    err_new = np.max(np.abs(radon_slices(w, grid64, thetas, grid64.q, factors=factors)[0]
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
    factors = pure_factors(gaussian_packet(grid, q0, p0, sigma))
    w = _wigner_of_factors(*factors, grid).real
    x = grid.q

    thetas = np.pi * np.arange(32) / 32
    exact = gaussian_marginal(grid, q0, p0, sigma, thetas[:, None], 1.0, x)
    err_new = np.max(np.abs(radon_slices(w, grid, thetas, x, factors=factors)[0] - exact))
    err_ref = np.max(np.abs(dense_ray_profiles(w, grid, np.cos(thetas),
                                               np.sin(thetas) / m_omega, x)[0] - exact))
    assert err_new <= err_ref

    dom = default_domain("symplectic-section", grid)
    mm, nn = np.meshgrid(dom.mu, dom.nu, indexing="ij")
    theta = np.arctan2(nn * m_omega, mm).ravel()[:, None]
    r = np.hypot(mm, nn * m_omega).ravel()[:, None]
    exact = gaussian_marginal(grid, q0, p0, sigma, theta, r, x)
    got = symplectic_profiles(w, grid, dom.mu, dom.nu, x, factors=factors)[0]
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


def rotate(amps, work, theta):
    """Fractional-Fourier rotation of amplitudes (..., N) on the balanced grid
    work: afterwards |amps|^2 is the marginal of q cos(theta) + p sin(theta)/(m omega).

    The rotation of one ray from theta = 0, in sub-rotations of at most pi/4
    (_shear_factors).  Tomograms do not rotate ray by ray: their plan marches
    from ray to ray in angle steps (_Plan.march), which must compose to this
    rotation to round-off.
    """
    return _shear(amps, _shear_factors(work, theta))


def test_rotation_quarter_turn_is_momentum_density(grid128):
    psi = gaussian_packet(grid128, 0.9, -0.6, 0.8)
    rotated = rotate(psi, grid128, np.pi / 2)
    phi = np.fft.fftshift(np.fft.fft(psi)) * grid128.dx / np.sqrt(2 * np.pi)
    assert np.max(np.abs(np.abs(rotated)**2 - np.abs(phi)**2)) < 1e-13
    # rotations compose, and the half turn is the parity q -> -q
    twice = rotate(rotate(psi, grid128, 1.1), grid128, -0.4)
    assert np.max(np.abs(np.abs(twice)**2 - np.abs(rotate(psi, grid128, 0.7))**2)) < 1e-13
    half = np.abs(rotate(psi, grid128, np.pi))**2
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


def per_ray_marginals(factors, grid, thetas, radii, x):
    """Marginals of the factored kernels, each ray rotated from theta = 0 by
    rotate on its own: the reference for the plan's march."""
    weights, amps = factors
    work = _working_grid(grid)
    if work is not grid:
        amps = amps @ _band_limited_matrix(grid.q, work.q).T
    out = np.empty((len(weights), len(thetas), len(x)))
    for k, (theta, r) in enumerate(zip(thetas, radii)):
        rotated = rotate(amps, work, theta) @ _band_limited_matrix(work.q, x / r).T
        out[:, k] = weights @ np.abs(rotated)**2 / r
    return out


@pytest.mark.parametrize("grid", [PhaseSpaceGrid.balanced(128),
                                  PhaseSpaceGrid.centered(64, 20.0, mass=2.0)],
                         ids=["balanced-128", "n64-L20-m2"])
def test_march_matches_per_ray_rotation(grid):
    rng = np.random.default_rng(8)
    rho = mixture(grid, FRAMES["random-1.0"], 2, rng, 1.0, (0.65, 0.85))
    probs, fields = rho.factors
    factors = (np.repeat(probs, 3)[None], fields.reshape(-1, grid.n))
    w = np.zeros((1, grid.n, grid.n))     # unused when factors are given
    m_omega = grid.mass * grid.omega

    # uniform optical angles over [0, pi): every step is pi / 64
    thetas = np.pi * np.arange(64) / 64
    got = radon_slices(w, grid, thetas, grid.q, factors=factors)
    ref = per_ray_marginals(factors, grid, thetas, np.ones(64), grid.q)
    assert np.max(np.abs(got - ref)) <= 1e-13

    # unsorted, non-uniform symplectic angles in (-pi, pi]; the march starts
    # with a step of more than pi / 4 from theta = 0 to the smallest angle
    mu, nu = np.array([0.9, -1.1, 0.3, -0.2]), np.array([-0.8, 1.2, -0.1, 0.5])
    mm, nn = np.meshgrid(mu, nu, indexing="ij")
    ray_thetas = np.arctan2(nn * m_omega, mm).ravel()
    assert np.min(ray_thetas) < -0.25 * np.pi
    assert not np.all(np.diff(ray_thetas) > 0)
    got = symplectic_profiles(w, grid, mu, nu, grid.q, factors=factors)
    ref = per_ray_marginals(factors, grid, ray_thetas, np.hypot(mm, nn * m_omega).ravel(),
                            grid.q)
    assert np.max(np.abs(got.reshape(ref.shape) - ref)) <= 1e-13


def test_plan_reuse_is_bit_identical(grid64):
    frame = FRAMES["random-1.5"]
    rho = mixture(grid64, frame, 2, np.random.default_rng(4), 0.5,
                  (np.sqrt(0.5), np.sqrt(0.5)))
    for rep in ("optical", "symplectic-section"):
        dom = default_domain(rep, grid64)
        axes = (dom.thetas,) if rep == "optical" else (dom.mu, dom.nu)
        first = to_vector(rho, frame, rep, dom).components
        plan = phase_space._plan(grid64, dom.x, *axes)
        assert "march" in vars(plan)          # built by the first call
        second = to_vector(rho, frame, rep, dom).components
        assert np.array_equal(first, second)
        assert phase_space._plan(grid64, dom.x, *axes) is plan
    dom = default_domain("optical", grid64)
    v = to_vector(rho, frame, "optical", dom)
    assert np.array_equal(from_vector(v, frame).factors[1], from_vector(v, frame).factors[1])


def test_plan_dies_with_its_domain(grid64):
    frame = FRAMES["paper"]
    rho = mixture(grid64, frame, 1, np.random.default_rng(5), 0.5,
                  (np.sqrt(0.5), np.sqrt(0.5)))
    opt = TomogramDomain.optical_default(grid64, 32)
    sym = default_domain("symplectic-section", grid64)
    from_vector(to_vector(rho, frame, "optical", opt), frame)
    to_vector(rho, frame, "symplectic-section", sym)
    plans = [weakref.ref(phase_space._plan(grid64, opt.x, opt.thetas)),
             weakref.ref(phase_space._plan(grid64, sym.x, sym.mu, sym.nu))]
    assert "inversion" in vars(plans[0]()) and "march" in vars(plans[1]())
    del opt, sym
    gc.collect()
    assert [ref() for ref in plans] == [None, None]


def test_plan_follows_in_place_changes(grid64):
    # a plan keyed by array identity must not serve arrays changed in place
    psi = gaussian_packet(grid64, 0.3, -0.2, np.sqrt(0.5))
    factors = pure_factors(psi)
    w = _wigner_of_factors(*factors, grid64).real
    thetas, x = np.pi * np.arange(16) / 16, grid64.q
    radon_slices(w, grid64, thetas, x, factors=factors)
    thetas[:] = thetas[::-1].copy()
    got = radon_slices(w, grid64, thetas, x, factors=factors)
    fresh = radon_slices(w, grid64, thetas.copy(), x, factors=factors)
    assert np.array_equal(got, fresh)
