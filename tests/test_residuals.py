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
    UnsupportedPotentialError,
    evolve_oracle,
    husimi_from_wigner,
    oscillator_eigenstate,
    residual_check,
    residual_convergence,
    spin_eigenvector,
    spinor_product_state,
    to_vector,
)
from spintomo.residuals import optical_generator, representation_generator

FIELD = EMFieldConfig(phi=(0.0, 0.2, 0.5), b_field=[0.4, 0.3, 0.5], kappa=0.8, spin=1.0)
SPEC = StateSpec(spin_direction=(1, 0, 0), spin_m=1.0, q0=0.8, p0=0.5, sigma=1.0)


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
                          energies=np.zeros(3), traces=np.ones(3), field=fld,
                          scheme="split-step-strang")
        report = residual_check(traj, fld, "wigner", frame)
        assert report.max_residual < 1e-12

    def test_uniform_state_zero_field(self, frame):
        # a constant wavefunction is a zero-momentum eigenstate of the free
        # Hamiltonian on the periodic grid; the residual vanishes identically
        grid = PhaseSpaceGrid.balanced(64)
        fld = EMFieldConfig(phi=None, spin=1.0)
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

    def test_non_quadratic_field_rejected(self, frame):
        grid = PhaseSpaceGrid.balanced(64)
        fld = EMFieldConfig(phi=lambda q, t: np.cos(q), spin=1.0)
        traj = short_trajectory(grid, FIELD)
        with pytest.raises(UnsupportedPotentialError):
            residual_check(traj, fld, "wigner", frame)

    def test_report_fields(self, frame):
        grid = PhaseSpaceGrid.balanced(64)
        traj = short_trajectory(grid, FIELD, n_frames=4)
        report = residual_check(traj, FIELD, "wigner", frame)
        assert report.representation == "wigner"
        assert len(report.per_frame_max) == 2
        assert report.max_residual >= report.per_frame_max.min()
        assert report.l2_residual > 0
        d = report.as_dict()
        assert d["meta"]["n"] == 64

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

    @pytest.mark.parametrize("rep", ["wigner", "optical", "symplectic-section", "husimi"])
    def test_second_order_at_non_unit_constants(self, frame, rep):
        # hbar, grid mass and omega differ from 1 and from the field mass, so
        # a drift that mixes up the grid's m omega and the field's m, or that
        # assumes unit constants, stops converging
        fld = EMFieldConfig(phi=(0.0, 0.2, 0.5), b_field=[0.4, 0.3, 0.5], kappa=0.8,
                            mass=0.7, spin=1.0)
        grid = PhaseSpaceGrid.balanced(128, hbar=0.8, mass=1.5, omega=1.3)
        report = residual_convergence(rep, fld, frame, SPEC, n=128, length=grid.length,
                                      hbar=0.8, mass=1.5, omega=1.3)
        assert 3.0 <= report.ratio_max <= 5.0
