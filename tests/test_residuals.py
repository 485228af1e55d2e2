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
    evolve_oracle,
    husimi_from_wigner,
    oscillator_eigenstate,
    random_frame,
    residual_check,
    residual_convergence,
    spin_eigenvector,
    spinor_product_state,
    to_vector,
)
from spintomo import residuals
from spintomo.dynamics import spin_coupling_matrix
from spintomo.phase_space import angle_step, husimi_variances
from spintomo.residuals import default_domain, optical_generator, representation_generator

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
        drift_w = representation_generator("wigner", grid, None, fld)(w)
        smoothed = np.stack([husimi_from_wigner(ScalarField(grid, c, "wigner")).values
                             for c in drift_w])
        drift_h = representation_generator("husimi", grid, None, fld)(h)
        assert np.max(np.abs(drift_h - smoothed)) < 1e-10 * np.max(np.abs(drift_h))

    def test_oscillator_optical_generator_reduces_to_rotation(self, frame):
        # for the matched oscillator the drift collapses to w -> d_theta w
        grid = PhaseSpaceGrid.balanced(128)
        fld = EMFieldConfig(phi=(0.0, 0.0, 0.5), spin=1.0)
        dom = TomogramDomain.optical_default(grid, 64)
        rho = SPEC.build(grid, 1.0)
        v = to_vector(rho, frame, "optical", dom).components
        gen = optical_generator(grid, dom, fld)
        from spintomo.residuals import _theta_derivative
        expected = grid.omega * _theta_derivative(v, dom.thetas, x_axis=2)
        assert np.max(np.abs(gen(v) - expected)) < 1e-10

    def test_non_uniform_angles_rejected(self, frame):
        grid = PhaseSpaceGrid.balanced(64)
        dom = TomogramDomain(kind="optical", x=grid.q, thetas=np.pi * np.arange(32) / 64)
        v = to_vector(SPEC.build(grid, 1.0), frame, "optical", dom).components
        with pytest.raises(UndersampledDomainError):
            optical_generator(grid, dom, FIELD)(v)

    def test_unknown_representation(self, frame):
        grid = PhaseSpaceGrid.balanced(64)
        with pytest.raises(ValueError, match="unknown representation"):
            representation_generator("glauber", grid, None, FIELD)


class TestConvergence:
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


def _ddx_reference(values, dx, axis=-1):
    """ddx with its spectrum multiplied out of place."""
    n = values.shape[axis]
    k = 2.0 * np.pi * np.fft.rfftfreq(n, dx)
    shape = [1] * values.ndim
    shape[axis] = len(k)
    return np.fft.irfft(1j * k.reshape(shape) * np.fft.rfft(values, axis=axis), n, axis=axis)


def _residual_check_reference(traj, fld, representation, frame):
    """residual_check with every frame's portrait held in a list and every
    operator term in its own temporary: the reference that the three-frame,
    in-place residual_check must match bit for bit.  The optical and
    symplectic generators are the module's, applied with residuals.ddx
    patched to _ddx_reference by the caller."""
    dt = float(traj.times[1] - traj.times[0])
    grid = traj.states[0].grid
    dom = default_domain(representation, grid)
    rate_q, rate_p = residuals._rates(grid, fld)
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
        gen = representation_generator(representation, grid, dom, fld)
    vals = [to_vector(s, frame, representation, dom).components for s in traj.states]
    s_mat = spin_coupling_matrix(frame, fld.b_field, fld.kappa, fld.spin, grid.hbar)
    if representation in ("wigner", "husimi"):
        cell = grid.cell
    elif representation == "optical":
        cell = dom.dx * angle_step(dom.thetas)
    else:
        cell = dom.dx * (dom.mu[1] - dom.mu[0]) * (dom.nu[1] - dom.nu[0])
    per_frame = []
    sq_sum = 0.0
    for k in range(1, len(vals) - 1):
        lhs = (vals[k + 1] - vals[k - 1]) / (2.0 * dt)
        rhs = gen(vals[k]) + (s_mat @ vals[k].reshape(len(s_mat), -1)).reshape(vals[k].shape)
        res = residuals._interior(lhs - rhs, representation)
        per_frame.append(float(np.max(np.abs(res))))
        sq_sum += float(np.sum(res**2) * cell)
    return np.asarray(per_frame), max(per_frame), float(np.sqrt(sq_sum / len(per_frame)))


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
        assert report.per_frame_max.tolist() == per_frame.tolist()
        assert report.max_residual == max_res
        assert report.l2_residual == l2_res

    def test_husimi_portrait_is_smoothed_wigner_portrait(self, frame, grid128):
        rho = SPEC.build(grid128, 1.0)
        w = to_vector(rho, frame, "wigner").components
        smoothed = np.stack([husimi_from_wigner(ScalarField(grid128, c, "wigner")).values
                             for c in w])
        assert np.array_equal(to_vector(rho, frame, "husimi").components, smoothed)


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
        # three portraits, the drift and the operator scratch: about 5.2
        # stacks (Wigner) and 6.2 (Husimi); all five frames and one
        # temporary per operator term took 11.4 and 12.4
        stack = 9 * 128 * 128 * 8
        residual_check(trajectory, FIELD, rep, frame)
        assert traced_peak(residual_check, trajectory, FIELD, rep, frame) <= 7 * stack

    def test_husimi_smoothed_in_place(self, frame, trajectory):
        # the Wigner stack and one component's smoothing: about 1.7 stacks;
        # a second, stacked Husimi array took 3.0
        stack = 9 * 128 * 128 * 8
        rho = trajectory.states[0]
        to_vector(rho, frame, "husimi")
        assert traced_peak(to_vector, rho, frame, "husimi") <= 2 * stack
