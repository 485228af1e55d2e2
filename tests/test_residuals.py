import tracemalloc

import numpy as np
import pytest

from spintomo import (
    EMFieldConfig,
    PhaseSpaceGrid,
    PropagatorConfig,
    SpinorDensity,
    ScalarField,
    StateSpec,
    TomogramDomain,
    UndersampledDomainError,
    build_spin1_frame,
    evolve_oracle,
    gaussian_packet,
    husimi_from_wigner,
    oscillator_eigenstate,
    random_frame,
    residual_check,
    residual_convergence,
    spin_coherent_state,
    spin_eigenvector,
    spinor_product_state,
    to_vector,
)
from spintomo import residuals
from spintomo.dynamics import spin_coupling_matrix
from spintomo.phase_space import _flip_x, angle_step, ddx, husimi_variances, invert_optical
from spintomo.residuals import Row, default_domain, generator

FIELD = EMFieldConfig(phi=(0.0, 0.2, 0.5), b_field=[0.4, 0.3, 0.5], kappa=0.8, spin=1.0)
SPEC = StateSpec(spin_direction=(1, 0, 0), spin_m=1.0, q0=0.8, p0=0.5, sigma=1.0)
REPS = ["wigner", "optical", "symplectic-section", "husimi"]


def short_trajectory(grid, fld, n_frames=3, dt_frame=0.02, substeps=5):
    prop = PropagatorConfig(dt=dt_frame / substeps, n_steps=substeps * (n_frames - 1),
                            save_every=substeps)
    return evolve_oracle(SPEC.build(grid, fld.spin), fld, prop)


class TestResidualCheck:
    def test_stationary_trap_state_zero_residual(self, frame):
        # trap ground state (x) mixed spin in a matching harmonic field with
        # no magnetic coupling: both sides of the evolution equation vanish
        grid = PhaseSpaceGrid.balanced(128)
        fld = EMFieldConfig(phi=(0.0, 0.0, 0.5), spin=1.0)
        chi = spin_eigenvector(1.0, [0, 0, 1], 0.0)
        rho = SpinorDensity.from_pure(
            spinor_product_state(grid, chi, oscillator_eigenstate(grid, 0)), grid)
        from spintomo.dynamics import Trajectory
        traj = Trajectory(times=np.array([0.0, 0.01, 0.02]), states=[rho, rho, rho],
                          energies=np.zeros(3), traces=np.ones(3))
        report = residual_check(traj, fld, "wigner", frame)
        assert report.max_residual < 1e-12

    def test_uniform_state_zero_field(self, frame):
        # a constant wavefunction is a zero-momentum eigenstate of the free
        # Hamiltonian on the periodic grid; the residual vanishes identically
        grid = PhaseSpaceGrid.balanced(64)
        fld = EMFieldConfig(spin=1.0)
        psi_flat = np.ones(grid.n, dtype=complex)
        psi_flat /= np.sqrt(np.sum(np.abs(psi_flat)**2) * grid.dx)
        chi = spin_eigenvector(1.0, [1, 0, 0], 1.0)
        rho = SpinorDensity.from_pure(spinor_product_state(grid, chi, psi_flat), grid)
        traj = evolve_oracle(rho, fld, PropagatorConfig(dt=0.01, n_steps=4, save_every=2))
        report = residual_check(traj, fld, "wigner", frame)
        assert report.max_residual < 1e-12

    def test_needs_three_frames(self, frame):
        grid = PhaseSpaceGrid.balanced(64)
        traj = evolve_oracle(SPEC.build(grid, 1.0), FIELD,
                             PropagatorConfig(dt=0.01, n_steps=1, save_every=1))
        with pytest.raises(ValueError, match="3 frames"):
            residual_check(traj, FIELD, "wigner", frame)

    def test_report_fields(self, frame):
        grid = PhaseSpaceGrid.balanced(64)
        traj = short_trajectory(grid, FIELD, n_frames=4)
        report = residual_check(traj, FIELD, "wigner", frame)
        assert report.representation == "wigner"
        assert len(report.per_frame_max) == 2
        assert report.max_residual >= report.per_frame_max.min()
        assert report.l2_residual > 0
        assert report.meta["n"] == 64

    def test_gauge_constant_invisible(self, frame):
        grid = PhaseSpaceGrid.balanced(64)
        shifted = EMFieldConfig(phi=(11.0, 0.2, 0.5), b_field=[0.4, 0.3, 0.5],
                                kappa=0.8, spin=1.0)
        traj = short_trajectory(grid, FIELD)
        r1 = residual_check(traj, FIELD, "wigner", frame)
        r2 = residual_check(traj, shifted, "wigner", frame)
        assert abs(r1.max_residual - r2.max_residual) < 1e-12


class TestGenerators:
    def test_husimi_drift_is_smoothed_wigner_drift(self, frame):
        # Husimi = Gaussian smoothing of Wigner, so its drift applied to the
        # Husimi components equals the smoothed Wigner drift, for any hbar,
        # grid mass and omega and any field mass (the packet is narrowed so
        # that its kernel coherences vanish at half the smaller box)
        grid = PhaseSpaceGrid.balanced(128, hbar=0.8, mass=1.5, omega=1.3)
        fld = EMFieldConfig(phi=(0.0, 0.2, 0.5), a_long=0.3, b_field=[0.4, 0.3, 0.5],
                            kappa=0.8, mass=0.7, spin=1.0)
        rho = StateSpec(spin_direction=(1, 0, 0), q0=0.8, p0=0.5, sigma=0.6).build(grid)
        w = to_vector(rho, frame, "wigner").components
        h = to_vector(rho, frame, "husimi").components
        drift_w = generator("wigner", grid, None, fld).operators["1"](w)
        smoothed = np.stack([husimi_from_wigner(ScalarField(grid, c, "wigner")).values
                             for c in drift_w])
        drift_h = generator("husimi", grid, None, fld).operators["1"](h)
        assert np.max(np.abs(drift_h - smoothed)) < 1e-10 * np.max(np.abs(drift_h))

    def test_oscillator_optical_generator_reduces_to_rotation(self, frame):
        # for the matched oscillator the drift collapses to w -> d_theta w
        grid = PhaseSpaceGrid.balanced(128)
        fld = EMFieldConfig(phi=(0.0, 0.0, 0.5), spin=1.0)
        dom = TomogramDomain.optical_default(grid, 64)
        rho = SPEC.build(grid, 1.0)
        v = to_vector(rho, frame, "optical", dom).components
        gen = generator("optical", grid, dom, fld).operators["1"]
        expected = grid.omega * _theta_derivative(v, dom.thetas, x_axis=2)
        assert np.max(np.abs(gen(v) - expected)) < 1e-10

    def test_non_uniform_angles_rejected(self, frame):
        grid = PhaseSpaceGrid.balanced(64)
        dom = TomogramDomain(kind="optical", x=grid.q, thetas=np.pi * np.arange(32) / 64)
        v = to_vector(SPEC.build(grid, 1.0), frame, "optical", dom).components
        with pytest.raises(UndersampledDomainError):
            generator("optical", grid, dom, FIELD).operators["1"](v)

    def test_unknown_representation(self, frame):
        grid = PhaseSpaceGrid.balanced(64)
        with pytest.raises(ValueError, match="unknown representation"):
            generator("glauber", grid, None, FIELD)


class TestTable:
    """generator maps the rows of evolution_rows; its drifts match the
    hand-derived ones, and each row is needed."""

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("rep", REPS)
    def test_matches_hand_derived_drift(self, rep, n):
        # random stacks of 3 functions at non-unit constants with a_long 0.3,
        # so every coefficient of every image is nonzero; the tomographic
        # drifts sum their terms in another order: 2.7 eps of the largest
        # value at most over 20 seeds at n = 64 and 128
        grid = PhaseSpaceGrid.balanced(n, **NON_UNIT)
        dom = default_domain(rep, grid)
        shape = ((grid.n, grid.n) if dom is None else (len(dom.thetas), len(dom.x))
                 if rep == "optical" else (len(dom.mu), len(dom.nu), len(dom.x)))
        v = np.random.default_rng(n).standard_normal((3,) + shape)
        expected = HAND_DERIVED[rep](grid, dom, NON_UNIT_FIELD)(v)
        drift = generator(rep, grid, dom, NON_UNIT_FIELD).operators["1"](v)
        if rep in ("wigner", "husimi"):
            assert np.array_equal(drift, expected)
        else:
            eps = np.finfo(float).eps
            assert np.max(np.abs(drift - expected)) <= 8 * eps * np.max(np.abs(expected))

    def test_groups_identity_first(self, grid128):
        image = generator("wigner", grid128, None, FIELD)
        assert list(image.operators) == ["1", "S"]
        v = np.random.default_rng(0).standard_normal((2, 128, 128))
        assert np.array_equal(image.operators["S"](v), v)

    @staticmethod
    def ratio(rep):
        fld = EMFieldConfig(phi=(0.0, 0.2, 0.5), b_field=[0.4, 0.3, 0.5], kappa=0.8,
                            mass=0.7, spin=1.0)
        grid = PhaseSpaceGrid.balanced(128, **NON_UNIT)
        return residual_convergence(rep, fld, build_spin1_frame(), SPEC, n=128,
                                    length=grid.length, **NON_UNIT).ratio_max

    def test_husimi_needs_the_substitution(self, monkeypatch):
        # at unit constants with c2 = 0.5 the d_q d_p coefficient is exactly
        # 0, so the substitution shows only at non-unit ones (3.975 with it,
        # test_second_order_at_non_unit_constants)
        monkeypatch.setattr(residuals, "husimi_variances", lambda grid: (0.0, 0.0))
        assert self.ratio("husimi") < 2.0

    @pytest.mark.parametrize("rep", REPS)
    def test_every_representation_needs_the_force_row(self, monkeypatch, rep):
        rows = residuals.evolution_rows
        monkeypatch.setattr(residuals, "evolution_rows",
                            lambda fld: [row for row in rows(fld) if row.order != (0, 1)])
        assert self.ratio(rep) < 2.0

    @pytest.mark.parametrize("rep", ["optical", "symplectic-section"])
    def test_position_row_refused_by_tomograms(self, grid128, monkeypatch, rep):
        # q. maps to -d_X^-1 d_mu, which no derivative cancels
        monkeypatch.setattr(residuals, "evolution_rows",
                            lambda fld: [Row("1", (1.0, 0.0, 0.0))])
        with pytest.raises(ValueError, match=rf"Row\(spin='1'.*no {rep} image"):
            generator(rep, grid128, default_domain(rep, grid128), FIELD)
        generator("husimi", grid128, None, FIELD)


class TestDomainsRefused:
    """The residual's derivatives assume their domain: an optical x closed
    under X -> -X, and uniform mu and nu meshes of 3 samples or more."""

    @pytest.mark.parametrize("shift", [0.5, 3.0], ids=["half-step", "three-steps"])
    def test_optical_x_not_mirror_closed(self, frame, grid128, shift):
        # the parent read max_residual 0.546 and 2.86 here, against 1.64e-3
        # on the centred points
        dom = TomogramDomain(kind="optical", x=grid128.q + shift * grid128.dx,
                             thetas=np.pi * np.arange(64) / 64)
        traj = short_trajectory(grid128, FIELD)
        with pytest.raises(UndersampledDomainError, match="X -> -X"):
            residual_check(traj, FIELD, "optical", frame, dom)

    @pytest.mark.parametrize("mu, nu, axis", [
        ([0.85, 0.9, 1.0, 1.1, 1.15], np.linspace(0.75, 1.05, 5), "mu"),
        ([0.85, 1.15], np.linspace(0.75, 1.05, 5), "mu"),
        (np.linspace(0.85, 1.15, 5), [1.05, 0.9, 0.75], "nu"),
    ], ids=["non-uniform-mu", "two-mu", "decreasing-nu"])
    def test_symplectic_mesh(self, frame, grid128, mu, nu, axis):
        dom = TomogramDomain.symplectic_grid(grid128, mu, nu)
        traj = short_trajectory(grid128, FIELD)
        with pytest.raises(UndersampledDomainError, match=f" {axis} mesh"):
            residual_check(traj, FIELD, "symplectic-section", frame, dom)

    @pytest.mark.parametrize("rep, other", [("symplectic-section", "optical"),
                                            ("optical", "symplectic-section")])
    def test_domain_of_the_wrong_kind(self, frame, grid64, rep, other):
        traj = short_trajectory(grid64, FIELD)
        with pytest.raises(ValueError, match=f"the {rep} representation needs a domain"):
            residual_check(traj, FIELD, rep, frame, default_domain(other, grid64))

    def test_wigner_reads_no_domain(self, frame, grid64):
        traj = short_trajectory(grid64, FIELD)
        report = residual_check(traj, FIELD, "wigner", frame, default_domain("optical", grid64))
        assert report.meta["n_theta"] is None
        assert report.max_residual == residual_check(traj, FIELD, "wigner", frame).max_residual


class TestConvergence:
    def test_unknown_representation_runs_no_oracle(self, frame, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return evolve_oracle(*args, **kwargs)

        monkeypatch.setattr(residuals, "evolve_oracle", counted)
        with pytest.raises(ValueError, match="unknown representation 'glauber'"):
            residual_convergence("glauber", FIELD, frame, SPEC, n=64)
        assert len(calls) == 0

    def test_wigner_second_order(self, frame):
        report = residual_convergence("wigner", FIELD, frame, SPEC,
                                      n=64, length=20.0, n_frames=4,
                                      dt_frame=0.04, substeps=6)
        assert 3.0 <= report.ratio_max <= 5.0
        assert report.order_max == pytest.approx(2.0, abs=0.5)

    def test_symplectic_mass_scaling(self, frame):
        # kinetic term carries mu/m: with mass = 2 the residual still
        # converges at second order, pinning the scaling of the printed
        # operator (which omits the mass factor)
        fld = EMFieldConfig(phi=(0.0, 0.0, 0.5), b_field=[0.0, 0.0, 0.6],
                            kappa=0.8, mass=2.0, spin=1.0)
        report = residual_convergence("symplectic-section", fld, frame, SPEC,
                                      n=64, length=20.0, n_frames=4,
                                      dt_frame=0.04, substeps=6, mass=2.0)
        assert 3.0 <= report.ratio_max <= 5.0
        assert report.coarse.max_residual < 0.05

    @pytest.mark.parametrize("rep, s", [(rep, 1.0) for rep in REPS]
                             + [(rep, s) for s in (0.5, 1.5) for rep in REPS],
                             ids=REPS + [f"{rep}-spin-{s}" for s in (0.5, 1.5) for rep in REPS])
    def test_second_order_at_non_unit_constants(self, frame, rep, s):
        if s == 1.0:
            # hbar, grid mass and omega differ from 1 and from the field mass,
            # so a drift that mixes up the grid's m omega and the field's m,
            # or that assumes unit constants, stops converging
            fld = EMFieldConfig(phi=(0.0, 0.2, 0.5), b_field=[0.4, 0.3, 0.5], kappa=0.8,
                                mass=0.7, spin=1.0)
            grid = PhaseSpaceGrid.balanced(128, hbar=0.8, mass=1.5, omega=1.3)
            report = residual_convergence(rep, fld, frame, SPEC, n=128, length=grid.length,
                                          hbar=0.8, mass=1.5, omega=1.3)
        else:
            # the evolution equations at other spins: the residual scenario's
            # field and packet with m = s, on a random frame of spin s
            fld = EMFieldConfig(phi=(0.0, 0.2, 0.5), b_field=[0.4, 0.3, 0.5], kappa=0.8,
                                spin=s)
            spec = StateSpec(spin_direction=(1, 0, 0), spin_m=s, q0=0.8, p0=0.5, sigma=1.0)
            report = residual_convergence(rep, fld, random_frame(s, 0), spec, n=64,
                                          length=PhaseSpaceGrid.balanced(64).length,
                                          n_theta=32)
        assert 3.0 <= report.ratio_max <= 5.0


def _theta_derivative(v, thetas, x_axis):
    """Central difference in theta using the mirror extension
    w(X, theta + pi) = w(-X, theta); theta sits on axis 1 of (c, n_t, n_x)."""
    ext = np.concatenate([_flip_x(v[:, -1:], x_axis), v, _flip_x(v[:, :1], x_axis)], axis=1)
    return (ext[:, 2:] - ext[:, :-2]) / (2.0 * angle_step(thetas))


# The hand-derived drifts that evolution_rows and its mapping rules replace,
# kept as the reference the table is checked against.  Each is an image of one
# affine flow d(q, p, 1)/dt = L (q, p, 1), L = fld.phase_flow(): G = L[:2, :2]
# is its linear part (zero diagonal in the quadratic class) and b = L[:2, 2]
# its offset.

def _rates(grid, fld):
    """(dq/dt, dp/dt) = L z with z = (q, p, 1) on the (q, p) mesh."""
    flow = fld.phase_flow()
    qq, pp = np.meshgrid(grid.q, grid.p, indexing="ij")
    return tuple(row[0] * qq + row[1] * pp + row[2] for row in flow[:2])


def wigner_drift(grid, fld):
    """Liouville drift of the vector Wigner function: d_t w = -(L z).grad w."""
    rate_q, rate_p = _rates(grid, fld)
    neg_rate_q = -rate_q

    def apply(v):
        out = ddx(v, grid.dx, axis=1)
        out *= neg_rate_q
        d_p = ddx(v, grid.dp, axis=2)
        d_p *= rate_p
        out -= d_p
        return out

    return apply


def husimi_drift(grid, fld):
    """The Wigner drift minus (G_01 S_pp + G_10 S_qq) d_q d_p, where
    S = diag(S_qq, S_pp) is the covariance of the Gaussian that smooths Wigner
    into Husimi."""
    rate_q, rate_p = _rates(grid, fld)
    neg_rate_q = -rate_q
    g = fld.phase_flow()[:2, :2]
    var_q, var_p = husimi_variances(grid)
    diffusion = g[0, 1] * var_p + g[1, 0] * var_q

    def apply(v):
        out = ddx(v, grid.dx, axis=1)
        d_qp = ddx(out, grid.dp, axis=2)
        d_qp *= diffusion
        out *= neg_rate_q
        d_p = ddx(v, grid.dp, axis=2)
        d_p *= rate_p
        out -= d_p
        out -= d_qp
        return out

    return apply


def optical_drift(grid, dom, fld):
    """Splitting G^T k = alpha k + beta dk/dtheta on the ellipse
    k = (cos theta, sin theta / m omega):
    d_t w = beta d_theta w - alpha (1 + X d_X) w - (k.b) d_X w."""
    flow = fld.phase_flow()
    th = dom.thetas[:, None]
    x = dom.x[None, :]
    m_omega = grid.mass * grid.omega
    k = np.array([np.cos(th), np.sin(th) / m_omega])
    dk = np.array([-np.sin(th), np.cos(th) / m_omega])
    gk = np.einsum("ij,i...->j...", flow[:2, :2], k)
    alpha = m_omega * (gk[0] * dk[1] - gk[1] * dk[0])
    beta = m_omega * (k[0] * gk[1] - k[1] * gk[0])
    shift = flow[0, 2] * k[0] + flow[1, 2] * k[1]

    def apply(v):
        d_th = _theta_derivative(v, dom.thetas, x_axis=2)
        d_x = ddx(v, dom.dx, axis=2)
        return beta * d_th - alpha * (v + x * d_x) - shift * d_x

    return apply


def symplectic_drift(grid, dom, fld):
    """d_t M = (G^T k).grad_k M - (k.b) d_X M, k = (mu, nu)."""
    flow = fld.phase_flow()
    k = (dom.mu[:, None, None], dom.nu[None, :, None])
    rate_mu, rate_nu, shift = (flow[0, j] * k[0] + flow[1, j] * k[1] for j in range(3))
    d_mu = dom.mu[1] - dom.mu[0]
    d_nu = dom.nu[1] - dom.nu[0]

    def apply(v):
        d_x = ddx(v, dom.dx, axis=3)
        dv_mu = np.gradient(v, d_mu, axis=1)
        dv_nu = np.gradient(v, d_nu, axis=2)
        return rate_nu * dv_nu - shift * d_x + rate_mu * dv_mu

    return apply


HAND_DERIVED = {
    "wigner": lambda grid, dom, fld: wigner_drift(grid, fld),
    "husimi": lambda grid, dom, fld: husimi_drift(grid, fld),
    "optical": optical_drift,
    "symplectic-section": symplectic_drift,
}


def _ddx_reference(values, dx, axis=-1):
    """ddx with its spectrum multiplied out of place."""
    n = values.shape[axis]
    k = 2.0 * np.pi * np.fft.rfftfreq(n, dx)
    shape = [1] * values.ndim
    shape[axis] = len(k)
    return np.fft.irfft(1j * k.reshape(shape) * np.fft.rfft(values, axis=axis), n, axis=axis)


def _residual_check_reference(traj, fld, representation, frame, factored=True):
    """residual_check with every frame's portrait held in a list and every
    operator term in its own temporary.  factored=True applies the drift to
    each portrait's functions and S to its mixing matrix, in residual_check's
    order, the reference that the three-frame, in-place residual_check must
    match bit for bit; factored=False applies both to the components.  The
    optical and symplectic generators are the module's, applied with
    residuals.ddx patched to _ddx_reference by the caller."""
    dt = float(traj.times[1] - traj.times[0])
    grid = traj.states[0].grid
    dom = default_domain(representation, grid)
    rate_q, rate_p = _rates(grid, fld)
    if representation == "wigner":
        def gen(v):
            return (-rate_q * _ddx_reference(v, grid.dx, axis=1)
                    - rate_p * _ddx_reference(v, grid.dp, axis=2))
    elif representation == "husimi":
        g = fld.phase_flow()[:2, :2]
        var_q, var_p = husimi_variances(grid)
        diffusion = g[0, 1] * var_p + g[1, 0] * var_q

        def gen(v):
            dq = _ddx_reference(v, grid.dx, axis=1)
            return (-rate_q * dq - rate_p * _ddx_reference(v, grid.dp, axis=2)
                    - diffusion * _ddx_reference(dq, grid.dp, axis=2))
    else:
        gen = generator(representation, grid, dom, fld).operators["1"]
    portraits = [to_vector(s, frame, representation, dom) for s in traj.states]
    s_mat = spin_coupling_matrix(frame, fld.b_field, fld.kappa, fld.spin, grid.hbar)
    if representation in ("wigner", "husimi"):
        cell = grid.cell
    elif representation == "optical":
        cell = dom.dx * angle_step(dom.thetas)
    else:
        cell = dom.dx * (dom.mu[1] - dom.mu[0]) * (dom.nu[1] - dom.nu[0])
    per_frame = []
    sq_sum = 0.0
    for k in range(1, len(portraits) - 1):
        lhs = (portraits[k + 1].components - portraits[k - 1].components) / (2.0 * dt)
        v = portraits[k]
        if factored:
            rhs = np.tensordot(np.hstack([v.mixing, s_mat @ v.mixing]),
                               np.concatenate([gen(v.functions), v.functions]), 1)
        else:
            rhs = gen(v.components) + np.tensordot(s_mat, v.components, 1)
        res = lhs - rhs
        if representation == "symplectic-section":
            res = res[:, 1:-1, 1:-1, :]
        per_frame.append(float(np.max(np.abs(res))))
        sq_sum += float(np.sum(res**2) * cell)
    return np.asarray(per_frame), max(per_frame), float(np.sqrt(sq_sum / len(per_frame)))


def assert_round_off(report, reference):
    """report's per-frame maxima and l2 residual within round-off of the
    reference's: 1e-14 against residuals of 1e-5 and more."""
    per_frame, _, l2_res = reference
    assert np.max(np.abs(report.per_frame_max - per_frame)) <= 1e-14
    assert abs(report.l2_residual - l2_res) <= 1e-14


NON_UNIT = dict(hbar=0.8, mass=1.5, omega=1.3)
NON_UNIT_FIELD = EMFieldConfig(phi=(0.0, 0.2, 0.5), a_long=0.3, b_field=[0.4, 0.3, 0.5],
                               kappa=0.8, mass=0.7, spin=1.0)


class TestInPlaceResiduals:
    @pytest.mark.parametrize("n, constants", [(64, {}), (128, {}), (128, NON_UNIT)],
                             ids=["64", "128", "128-non-unit"])
    @pytest.mark.parametrize("rep", ["wigner", "optical", "symplectic-section", "husimi"])
    def test_bit_identical_to_reference(self, frame, monkeypatch, n, constants, rep):
        # five frames: the three-frame window slides over three interior frames
        grid = PhaseSpaceGrid.balanced(n, **constants)
        fld = NON_UNIT_FIELD if constants else FIELD
        traj = short_trajectory(grid, fld, n_frames=5)
        report = residual_check(traj, fld, rep, frame)
        with monkeypatch.context() as patched:
            patched.setattr(residuals, "ddx", _ddx_reference)
            per_frame, max_res, l2_res = _residual_check_reference(traj, fld, rep, frame)
            by_component = _residual_check_reference(traj, fld, rep, frame, factored=False)
        assert report.per_frame_max.tolist() == per_frame.tolist()
        assert report.max_residual == max_res
        assert report.l2_residual == l2_res
        # the drift on the one function and on the nine components differ by
        # round-off (1.0e-15 at most in these cases)
        assert_round_off(report, by_component)

    def test_husimi_portrait_is_smoothed_wigner_portrait(self, frame, grid128):
        rho = SPEC.build(grid128, 1.0)
        w = to_vector(rho, frame, "wigner").components
        smoothed = np.stack([husimi_from_wigner(ScalarField(grid128, c, "wigner")).values
                             for c in w])
        # to_vector smooths the product state's one Schmidt function, then
        # weighs it into the nine components: the same map up to round-off
        assert np.max(np.abs(to_vector(rho, frame, "husimi").components - smoothed)) <= 1e-15


class TestFactoredResiduals:
    """Trajectories whose portraits have more than one function: the drift on
    the functions against the drift on the components."""

    @staticmethod
    def trajectory(case, grid):
        if case == "mixture":        # two product packets: R = 2
            a = spin_coherent_state(grid, [1, 0, 0], 1.0, 1.0, 0.8, 0.5, 1.0)
            b = spin_coherent_state(grid, np.array([0, 1, 1]) / np.sqrt(2), 1.0, 0.0,
                                    -0.6, -0.3, 0.9)
            rho = SpinorDensity.from_mixture([0.7, 0.3], [a, b], grid)
        else:                        # one entangled element: R = 9, mixing I
            packets = [gaussian_packet(grid, q0, p0, 0.9)
                       for q0, p0 in ((-1.0, 0.5), (0.8, -0.3), (0.2, 1.0))]
            psi = np.stack(packets) * np.array([0.6, 0.5 - 0.3j, 0.2 + 0.5j])[:, None]
            rho = SpinorDensity.from_pure(psi / np.sqrt(np.sum(np.abs(psi)**2) * grid.dx),
                                          grid)
        prop = PropagatorConfig(dt=0.004, n_steps=20, save_every=5)
        return evolve_oracle(rho, FIELD, prop)

    @pytest.mark.parametrize("rep", REPS)
    @pytest.mark.parametrize("case, n_functions", [("mixture", 2), ("entangled", 9)])
    def test_matches_component_order(self, frame, grid128, monkeypatch, case,
                                     n_functions, rep):
        traj = self.trajectory(case, grid128)
        v = to_vector(traj.states[1], frame, rep, default_domain(rep, grid128))
        assert v.mixing.shape == (9, n_functions)
        report = residual_check(traj, FIELD, rep, frame)
        with monkeypatch.context() as patched:
            patched.setattr(residuals, "ddx", _ddx_reference)
            factored = _residual_check_reference(traj, FIELD, rep, frame)
            by_component = _residual_check_reference(traj, FIELD, rep, frame,
                                                     factored=False)
        assert report.per_frame_max.tolist() == factored[0].tolist()
        assert_round_off(report, by_component)


def traced_peak(fn, *args):
    """Bytes allocated above the starting level at the peak of fn(*args);
    numpy reports its buffers to tracemalloc."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestWorkingSet:
    """Peaks counted in stacks: one (9, n, n) float64 portrait."""

    @pytest.fixture(scope="class")
    def trajectory(self):
        return short_trajectory(PhaseSpaceGrid.balanced(128), FIELD, n_frames=5)

    @pytest.mark.parametrize("rep", ["wigner", "husimi"])
    def test_residual_check_holds_three_frames(self, frame, trajectory, rep):
        # three portraits, the right-hand side and one temporary of the
        # maxima: about 4.6 stacks (Wigner and Husimi), the drift running on
        # the one function; the drift on the nine components took 5.2 and
        # 6.2, and all five frames with one temporary per operator term 11.4
        # and 12.4
        stack = 9 * 128 * 128 * 8
        residual_check(trajectory, FIELD, rep, frame)
        assert traced_peak(residual_check, trajectory, FIELD, rep, frame) <= 5 * stack

    def test_optical_inversion(self, frame):
        # a trivially factored R = 9 portrait at n = 256 with 128 angles; its
        # (R, n_theta + 1, n_x) complex harmonics weigh 2.02 stacks, and the
        # half shift holds three such arrays at once (the harmonics, their
        # spectrum and the shifted values): about 6.06 stacks, with each level
        # diagonal written into the levels as it is solved; right-hand sides
        # packed for all diagonals and a buffer of all solutions took 6.5, the
        # zero-padded 2 n_x spectrum 10.1
        grid = PhaseSpaceGrid.balanced(256)
        dom = TomogramDomain.optical_default(grid, 128)
        psi = spin_coherent_state(grid, [1.0, 0.5, 0.3], q0=0.4, p0=-0.3,
                                  sigma=np.sqrt(0.5))
        tom = to_vector(SpinorDensity.from_pure(psi, grid), frame, "optical", dom).components
        stack = tom.nbytes
        assert tom.shape == (9, 128, 256) and stack == 9 * 128 * 256 * 8
        invert_optical(tom, grid, dom)         # builds the domain's plan
        assert traced_peak(invert_optical, tom, grid, dom) <= 7 * stack

    def test_husimi_smoothed_in_place(self, frame, trajectory):
        # the components and the one smoothed function: about 1.12 stacks;
        # smoothing each component of a Wigner stack took 1.7, a second,
        # stacked Husimi array 3.0
        stack = 9 * 128 * 128 * 8
        rho = trajectory.states[0]
        to_vector(rho, frame, "husimi")
        assert traced_peak(to_vector, rho, frame, "husimi") <= 1.25 * stack
