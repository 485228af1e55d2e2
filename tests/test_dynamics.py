import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from spintomo import (
    EMFieldConfig,
    PhaseSpaceGrid,
    PropagatorConfig,
    SchemeMismatchError,
    SpinorDensity,
    StateSpec,
    UnsteppableFieldError,
    audit,
    evolve_oracle,
    evolve_wigner_vector,
    fit_precession_frequency,
    gaussian_packet,
    hamiltonian_apply,
    oscillator_eigenstate,
    random_frame,
    spin_coherent_state,
    spin_coupling_matrix,
    spin_eigenvector,
    spin_flow,
    spin_operators,
    spinor_product_state,
    to_vector,
)
from spintomo import dynamics
from spintomo.dynamics import _max_steps, _power, _shear, _strang_step

HARMONIC = (0.0, 0.0, 0.5)     # e*phi = q^2/2 for e = 1


def kick_drift_reference(v0, fld, prop):
    """The step-by-step Strang loop that the composed map replaces: half-kick,
    then per step a drift and a (fused) kick, as spectral shifts.  Returns the
    complex frames, shape (n_frames, 9, n, n)."""
    grid = v0.grid
    dt = prop.dt
    kq = 2.0 * np.pi * np.fft.fftfreq(grid.n, grid.dx)
    kp = 2.0 * np.pi * np.fft.fftfreq(grid.n, grid.dp)
    vel = (grid.p - fld.e * fld.a_long / fld.c_light) / fld.mass
    _, c1, c2 = fld.phi
    drift_phase = np.exp(-1j * np.outer(kq, vel) * dt)
    half_kick = np.exp(0.5j * np.outer(fld.e * (c1 + 2.0 * c2 * grid.q) * dt, kp))
    full_kick = half_kick * half_kick
    s_mat = spin_coupling_matrix(v0.frame, fld.b_field, fld.kappa, fld.spin, grid.hbar)
    w = v0.components.astype(complex)
    frames = [w]
    done = 0
    while done < prop.n_steps:
        chunk = min(prop.save_every, prop.n_steps - done)
        w = np.fft.ifft(half_kick[None] * np.fft.fft(w, axis=2), axis=2)
        for i in range(chunk):
            w = np.fft.ifft(drift_phase[None] * np.fft.fft(w, axis=1), axis=1)
            kick = half_kick if i == chunk - 1 else full_kick
            w = np.fft.ifft(kick[None] * np.fft.fft(w, axis=2), axis=2)
        w = np.einsum("jk,kqp->jqp", expm(s_mat * (chunk * dt)), w)
        frames.append(w)
        done += chunk
    return np.stack(frames)


def complex_shear_reference(v0, fld, prop):
    """The composed map as complex shears: the sub-maps of evolve_wigner_vector,
    each shear a complex fft/ifft pair, so the imaginary part that a shear
    leaves at the Nyquist bin is carried along.  Returns the complex frames,
    shape (n_frames, 9, n, n)."""
    grid = v0.grid
    kq = 2.0 * np.pi * np.fft.fftfreq(grid.n, grid.dx)
    kp = 2.0 * np.pi * np.fft.fftfreq(grid.n, grid.dp)
    step = _strang_step(fld, prop.dt)
    max_steps = _max_steps(step, min(prop.save_every, prop.n_steps), grid.dx / grid.dp)
    s_mat = spin_coupling_matrix(v0.frame, fld.b_field, fld.kappa, fld.spin, grid.hbar)

    def shear(w, axis, phase):
        return np.fft.ifft(np.exp(1j * phase) * np.fft.fft(w, axis=axis), axis=axis)

    w = v0.components.astype(complex)
    frames = [w]
    done = 0
    while done < prop.n_steps:
        chunk = min(prop.save_every, prop.n_steps - done)
        k = -(-chunk // max_steps)
        m, r = divmod(chunk, k)
        for steps in [m + 1] * r + [m] * (k - r):
            (a1, b, cq), (_, d1, cp) = _power(step, steps)[:2]
            alpha, gamma = d1 / b, a1 / b
            w = shear(w, 2, np.outer(alpha * grid.q + (cp - alpha * cq), kp))
            w = shear(w, 1, np.outer(kq, b * grid.p + cq))
            w = shear(w, 2, np.outer(gamma * grid.q, kp))
        w = np.einsum("jk,kqp->jqp", expm(s_mat * (chunk * prop.dt)), w)
        frames.append(w)
        done += chunk
    return np.stack(frames)


def nine_row_reference(v0, fld, prop):
    """evolve_wigner_vector as it was before it factored the component stack:
    every component is sheared, and each shear adds its per-component largest
    dropped Nyquist part to the residues.  Returns the frames (n_frames, c, n, n)
    and their imag_residues (n_frames, c)."""
    grid = v0.grid
    dt = prop.dt
    kq = 2.0 * np.pi * np.fft.rfftfreq(grid.n, grid.dx)
    kp = 2.0 * np.pi * np.fft.rfftfreq(grid.n, grid.dp)
    step = _strang_step(fld, dt)
    max_steps = _max_steps(step, min(prop.save_every, prop.n_steps), grid.dx / grid.dp)
    s_mat = spin_coupling_matrix(v0.frame, fld.b_field, fld.kappa, fld.spin, grid.hbar)

    def shear(w, axis, phase):
        n = w.shape[axis]
        spec = np.fft.rfft(w, axis=axis)
        nyq = np.take(spec, -1, axis=axis).real * np.sin(np.take(phase, -1, axis=axis - 1))
        return (np.fft.irfft(np.exp(1j * phase) * spec, n, axis=axis),
                np.max(np.abs(nyq), axis=1) / n)

    w = np.array(v0.components, dtype=float)
    res = (np.zeros(len(w)) if v0.imag_residues is None
           else np.array(v0.imag_residues, dtype=float))
    frames, residues = [w], [res]
    done = 0
    while done < prop.n_steps:
        chunk = min(prop.save_every, prop.n_steps - done)
        k = -(-chunk // max_steps)
        m, r = divmod(chunk, k)
        for steps in [m + 1] * r + [m] * (k - r):
            (a1, b, cq), (_, d1, cp) = _power(step, steps)[:2]
            alpha, gamma = d1 / b, a1 / b
            for axis, phase in ((2, np.outer(alpha * grid.q + (cp - alpha * cq), kp)),
                                (1, np.outer(kq, b * grid.p + cq)),
                                (2, np.outer(gamma * grid.q, kp))):
                w, dropped = shear(w, axis, phase)
                res = res + dropped
        mix = expm(s_mat * (chunk * dt))
        w = (mix @ w.reshape(len(w), -1)).reshape(w.shape)
        res = np.abs(mix) @ res
        frames.append(w)
        residues.append(res)
        done += chunk
    return np.stack(frames), np.stack(residues)


def strang_loop_reference(rho0, fld, prop):
    """The step-by-step Strang loop that evolve_oracle's chunked form replaces:
    per step a half potential and half Zeeman kick, the kinetic phase, and the
    two half kicks again.  Returns the spinor factors of every saved frame,
    shape (n_frames, k, d, n)."""
    grid = rho0.grid
    hbar, dt = grid.hbar, prop.dt
    c0, c1, c2 = fld.phi
    half_v = np.exp(-0.5j * dt * fld.e * (c0 + c1 * grid.q + c2 * grid.q**2) / hbar)
    kin = np.exp(-1j * dt * (hbar * grid.k_fft - fld.e * fld.a_long / fld.c_light) ** 2
                 / (2.0 * fld.mass * hbar))
    half_z = expm(-0.5j * dt * fld.zeeman_matrix() / hbar)
    psis = rho0.factors[1]
    frames = [psis]
    done = 0
    while done < prop.n_steps:
        chunk = min(prop.save_every, prop.n_steps - done)
        for _ in range(chunk):
            psis = half_v * np.einsum("ab,kbn->kan", half_z, psis)
            psis = np.fft.ifft(kin * np.fft.fft(psis, axis=2), axis=2)
            psis = half_v * np.einsum("ab,kbn->kan", half_z, psis)
        done += chunk
        frames.append(psis)
    return np.stack(frames)


@pytest.fixture()
def matrix_powers(monkeypatch):
    """Counts numpy.linalg.matrix_power calls; refuses them once .refuse is set."""
    real = np.linalg.matrix_power

    class Calls:
        count = 0
        refuse = False

    def counted(a, n):
        if Calls.refuse:
            raise AssertionError("the stepped path must not power the Strang matrix")
        Calls.count += 1
        return real(a, n)

    monkeypatch.setattr(np.linalg, "matrix_power", counted)
    return Calls


def packet_vector(frame, grid, direction, q0, p0, sigma):
    chi = spin_eigenvector(1.0, np.asarray(direction) / np.linalg.norm(direction), 1.0)
    psi = spinor_product_state(grid, chi, gaussian_packet(grid, q0, p0, sigma))
    return to_vector(SpinorDensity.from_pure(psi, grid), frame, "wigner"), chi


def q_expectation(state, grid):
    return float(np.einsum("aaii,i->", state.blocks, grid.q).real * grid.dx)


def q_variance(state, grid):
    q1 = q_expectation(state, grid)
    q2 = float(np.einsum("aaii,i->", state.blocks, grid.q**2).real * grid.dx)
    return q2 - q1**2


class TestFieldConfig:
    def test_quadratic_coefficients(self):
        fld = EMFieldConfig(phi=[1, 2, 3], a_long=np.float32(0.5))
        assert fld.phi == (1.0, 2.0, 3.0) and type(fld.phi[0]) is float
        assert type(fld.a_long) is float
        assert EMFieldConfig().phi == (0.0, 0.0, 0.0)
        q = np.array([0.0, 1.0])
        assert np.allclose(fld.phi_at(q), [1.0, 6.0])
        # dp/dt = -e phi'(q) = -(2 + 6 q)
        assert np.allclose(fld.phase_flow()[1], [-6.0, 0.0, -2.0])

    def test_phase_flow(self):
        fld = EMFieldConfig(phi=(1.0, 0.3, 0.5), a_long=0.4, e=-2.0, c_light=2.0, mass=4.0)
        flow = fld.phase_flow()
        assert np.allclose(flow, [[0.0, 0.25, 0.1], [2.0, 0.0, 0.6], [0.0, 0.0, 0.0]])
        # L (q, p, 1) is the right-hand side of Hamilton's equations
        q, p = 0.7, -0.2
        assert np.allclose(flow @ [q, p, 1.0], [(p - fld.e * 0.4 / fld.c_light) / fld.mass,
                                                -fld.e * (0.3 + 2 * 0.5 * q), 0.0])

    @pytest.mark.parametrize("bad", [
        {"phi": lambda q, t: q**2}, {"a_long": lambda t: t}, {"phi": None}, {"phi": (0.0, 1.0)},
        {"phi": (0.0, np.nan, 0.0)}, {"a_long": np.nan}, {"phi": "0.5"}, {"a_long": [0.1]},
        {"b_field": lambda: 0}])
    def test_non_static_or_non_finite_refused(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            EMFieldConfig(**bad)

    def test_non_finite_rejected(self):
        for bad in ({"kappa": np.inf}, {"mass": 0.0}, {"mass": -1.0},
                    {"c_light": 0.0}, {"c_light": -2.0}):
            with pytest.raises(ValueError):
                EMFieldConfig(**bad)

    def test_zeeman_matrix(self):
        fld = EMFieldConfig(b_field=[0, 0, 2.0], kappa=0.7, spin=1.0)
        assert np.allclose(fld.zeeman_matrix(), -1.4 * np.diag([1.0, 0.0, -1.0]))


class TestPropagatorConfig:
    @pytest.mark.parametrize("bad", [
        {"dt": np.nan}, {"dt": np.inf}, {"dt": 0.0}, {"n_steps": 2.5}, {"n_steps": 0},
        {"save_every": 2.0}, {"save_every": -1}])
    def test_refused(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            PropagatorConfig(**{"dt": 0.01, "n_steps": 10, **bad})

    def test_numpy_integers_accepted(self):
        prop = PropagatorConfig(dt=0.01, n_steps=np.int64(10), save_every=np.int32(5))
        assert prop.n_steps == 10 and prop.save_every == 5


class TestHamiltonianApply:
    def test_windowed_plane_wave_energy(self, grid64):
        fld = EMFieldConfig()
        psi = spinor_product_state(grid64, [1, 0, 0], gaussian_packet(grid64, 0, 5.0, 2.0))
        e = np.sum(psi.conj() * hamiltonian_apply(psi, grid64, fld)).real * grid64.dx
        assert abs(e - 12.5) / 12.5 < 0.01

    def test_oscillator_ground_energy(self, grid128):
        fld = EMFieldConfig(phi=HARMONIC)
        psi = spinor_product_state(grid128, [1, 0, 0], oscillator_eigenstate(grid128, 0))
        e = np.sum(psi.conj() * hamiltonian_apply(psi, grid128, fld)).real * grid128.dx
        assert abs(e - 0.5) < 1e-8

    def test_zeeman_shifts(self, grid64):
        fld = EMFieldConfig(b_field=[0, 0, 2.0], kappa=0.7, spin=1.0)
        free = EMFieldConfig(spin=1.0)
        for m, chi in zip([1.0, 0.0, -1.0], np.eye(3)):
            psi = spinor_product_state(grid64, chi, gaussian_packet(grid64))
            shift = np.sum(psi.conj() * (hamiltonian_apply(psi, grid64, fld)
                                         - hamiltonian_apply(psi, grid64, free))).real * grid64.dx
            assert abs(shift - (-1.4 * m)) < 1e-12


class TestEvolveOracle:
    def test_free_packet_ehrenfest(self, grid128):
        fld = EMFieldConfig()
        rho0 = SpinorDensity.from_pure(
            spinor_product_state(grid128, [1, 0, 0], gaussian_packet(grid128, -2.0, 2.0)),
            grid128)
        prop = PropagatorConfig(dt=0.002, n_steps=500, save_every=250)
        traj = evolve_oracle(rho0, fld, prop)
        for t, state in zip(traj.times, traj.states):
            assert abs(q_expectation(state, grid128) - (-2.0 + 2.0 * t)) < 1e-6

    def test_oscillator_variance_period(self, grid128):
        fld = EMFieldConfig(phi=HARMONIC)
        rho0 = SpinorDensity.from_pure(
            spinor_product_state(grid128, [1, 0, 0], gaussian_packet(grid128, 0.0, 0.0, 1.3)),
            grid128)
        n_steps = 4000
        prop = PropagatorConfig(dt=2 * np.pi / n_steps, n_steps=n_steps, save_every=n_steps)
        traj = evolve_oracle(rho0, fld, prop)
        assert abs(q_variance(traj.states[-1], grid128)
                   - q_variance(traj.states[0], grid128)) < 1e-6

    def test_larmor_frequency_fit(self, grid64):
        kappa, bz = 0.7, 2.0
        fld = EMFieldConfig(phi=HARMONIC, b_field=[0, 0, bz], kappa=kappa, spin=1.0)
        chi_x = spin_eigenvector(1.0, [1, 0, 0], 1.0)
        rho0 = SpinorDensity.from_pure(
            spinor_product_state(grid64, chi_x, oscillator_eigenstate(grid64, 0)), grid64)
        omega_l = kappa * bz
        period = 2 * np.pi / omega_l
        prop = PropagatorConfig(dt=10 * period / 2000, n_steps=2000, save_every=10)
        traj = evolve_oracle(rho0, fld, prop)
        sx, _, _ = spin_operators(1.0)
        series = np.array([np.einsum("ab,abii->", sx, s.blocks).real * grid64.dx
                           for s in traj.states])
        fitted = fit_precession_frequency(np.asarray(traj.times), series, n_harmonics=1)
        assert abs(fitted - omega_l) / omega_l < 1e-6

    def test_conservation_invariants_long_run(self, grid64):
        fld = EMFieldConfig(phi=HARMONIC, b_field=[0.3, 0.2, 0.4], kappa=0.5, spin=1.0)
        chi = spin_eigenvector(1.0, [1, 0, 0], 1.0)
        rho0 = SpinorDensity.from_pure(
            spinor_product_state(grid64, chi, gaussian_packet(grid64, 0.5, 0.0, 1.0)),
            grid64)
        prop = PropagatorConfig(dt=1e-4, n_steps=10_000, save_every=2000)
        traj = evolve_oracle(rho0, fld, prop)
        assert np.max(np.abs(traj.traces - 1.0)) < 1e-10
        assert max(s.hermiticity_residual() for s in traj.states) < 1e-12
        e0 = traj.energies[0]
        assert np.max(np.abs(traj.energies - e0)) / abs(e0) < 1e-8

    def test_mixed_state_propagation(self, grid64, rng):
        fld = EMFieldConfig(phi=HARMONIC)
        psis = [spinor_product_state(grid64, rng.normal(size=3) + 1j * rng.normal(size=3),
                                     gaussian_packet(grid64, 0.3 * k, 0.2))
                for k in range(2)]
        rho0 = SpinorDensity.from_mixture([0.7, 0.3], psis, grid64)
        prop = PropagatorConfig(dt=0.01, n_steps=100, save_every=100)
        traj = evolve_oracle(rho0, fld, prop)
        final = traj.states[-1]
        assert abs(final.trace() - 1.0) < 1e-10
        assert np.linalg.eigvalsh(final.to_matrix()).min() * grid64.dx >= -1e-10

    def test_rk4_agrees_with_strang(self, grid64):
        fld = EMFieldConfig(phi=HARMONIC, b_field=[0, 0, 1.0], kappa=0.5, spin=1.0)
        chi = spin_eigenvector(1.0, [1, 0, 0], 1.0)
        rho0 = SpinorDensity.from_pure(
            spinor_product_state(grid64, chi, gaussian_packet(grid64)), grid64)
        out = {}
        for scheme in ("split-step-strang", "rk4-ode"):
            prop = PropagatorConfig(dt=0.001, n_steps=200, scheme=scheme, save_every=200)
            out[scheme] = evolve_oracle(rho0, fld, prop).states[-1].blocks
        assert np.max(np.abs(out["split-step-strang"] - out["rk4-ode"])) < 1e-8

    def test_scheme_mismatch(self, grid64):
        rho0 = SpinorDensity.from_pure(
            spinor_product_state(grid64, [1, 0, 0], gaussian_packet(grid64)), grid64)
        prop = PropagatorConfig(dt=0.01, n_steps=10, scheme="wigner-spectral")
        with pytest.raises(SchemeMismatchError):
            evolve_oracle(rho0, EMFieldConfig(phi=HARMONIC), prop)

    def test_gauge_shift_leaves_observables(self, grid64):
        chi = spin_eigenvector(1.0, [1, 0, 0], 1.0)
        rho0 = SpinorDensity.from_pure(
            spinor_product_state(grid64, chi, gaussian_packet(grid64, 0.5)), grid64)
        prop = PropagatorConfig(dt=0.005, n_steps=200, save_every=200)
        t1 = evolve_oracle(rho0, EMFieldConfig(phi=(0.0, 0.0, 0.5)), prop)
        t2 = evolve_oracle(rho0, EMFieldConfig(phi=(7.3, 0.0, 0.5)), prop)
        assert np.max(np.abs(t1.states[-1].blocks - t2.states[-1].blocks)) < 1e-10


class TestChunkedOracle:
    """evolve_oracle applies the Zeeman factor once per saved chunk and, for a
    static field on a long enough run, the powered one-step Strang matrix; the
    step-by-step loop is the reference."""

    @staticmethod
    def static_case(case, grid):
        spin = 0.5 if case == "spin-1/2" else 1.0
        fld = EMFieldConfig(phi=(0.1, 0.2, 0.4), a_long=0.3, e=0.9, c_light=1.3, mass=1.2,
                            b_field=[0.3, -0.5, 0.7], kappa=0.9, spin=spin)
        chis = [spin_eigenvector(spin, [1, 0, 1] / np.sqrt(2), spin),
                spin_eigenvector(spin, [0, 1, 0], -spin)]
        psis = [spinor_product_state(grid, chi, gaussian_packet(grid, 0.5 - k, 0.3 * k, 0.9))
                for k, chi in enumerate(chis)]
        if case == "mixture":
            return fld, SpinorDensity.from_mixture([0.65, 0.35], psis, grid)
        return fld, SpinorDensity.from_pure(psis[0], grid)

    @pytest.mark.parametrize("path", ["powered", "stepped"])
    @pytest.mark.parametrize("case", ["spin-1", "spin-1/2", "mixture", "ragged-chunks"])
    def test_static_field_matches_step_loop(self, grid64, matrix_powers, case, path):
        fld, rho0 = self.static_case(case, grid64)
        # (n_steps, save_every); powering pays from 2 ceil(log2 save_every) n
        # = 896 (1024) steps on, so the short runs are stepped
        n_steps, save_every = {("powered", False): (1000, 100), ("powered", True): (1050, 200),
                               ("stepped", False): (40, 10), ("stepped", True): (45, 10),
                               }[path, case == "ragged-chunks"]
        matrix_powers.refuse = path == "stepped"
        prop = PropagatorConfig(dt=1e-3, n_steps=n_steps, save_every=save_every)
        traj = evolve_oracle(rho0, fld, prop)
        lengths = {min(save_every, n_steps - done) for done in range(0, n_steps, save_every)}
        assert matrix_powers.count == (len(lengths) if path == "powered" else 0)
        got = np.stack([s.factors[1] for s in traj.states])
        ref = strang_loop_reference(rho0, fld, prop)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) < 1e-11
        assert np.allclose(traj.times, prop.dt * np.minimum(
            np.arange(len(ref)) * save_every, n_steps), rtol=0, atol=1e-12)

    def test_size_rule_boundaries(self, grid64, matrix_powers):
        fld, rho0 = self.static_case("spin-1", grid64)
        matrix_powers.refuse = True
        # save_every = 100: forming S^m pays from 2 * 7 * 64 = 896 steps on
        evolve_oracle(rho0, fld, PropagatorConfig(dt=1e-3, n_steps=895, save_every=100))
        # one dense product per chunk pays from 64 / 6 steps a chunk on
        for save_every in (1, 10):
            evolve_oracle(rho0, fld, PropagatorConfig(dt=1e-3, n_steps=600,
                                                      save_every=save_every))
        matrix_powers.refuse = False
        evolve_oracle(rho0, fld, PropagatorConfig(dt=1e-3, n_steps=896, save_every=100))
        assert matrix_powers.count == 2     # chunks of 100 and of 96
        evolve_oracle(rho0, fld, PropagatorConfig(dt=1e-3, n_steps=600, save_every=11))
        assert matrix_powers.count == 4     # chunks of 11 and of 6

    def test_each_side_of_the_rule_in_the_scenarios(self, grid128, matrix_powers):
        fld = EMFieldConfig(phi=(0.0, -0.21, 0.62), b_field=[0.4, -0.7, 0.3], kappa=1.3,
                            spin=1.0)
        rho0 = SpinorDensity.from_pure(spin_coherent_state(grid128, [0.3, -0.5, 0.8]),
                                       grid128)
        matrix_powers.refuse = True     # the benchmark's dynamics job
        evolve_oracle(rho0, fld, PropagatorConfig(dt=4e-3, n_steps=100, save_every=25))
        matrix_powers.refuse = False    # the default wavepacket run
        traj = evolve_oracle(rho0, EMFieldConfig(phi=HARMONIC),
                             PropagatorConfig(dt=6.2832 / 25000, n_steps=25000,
                                              save_every=2500))
        assert matrix_powers.count == 1
        assert np.max(np.abs(traj.traces - 1.0)) < 1e-10


class TestSpinCouplingMatrix:
    def test_zero_field(self, frame):
        s = spin_coupling_matrix(frame, [0, 0, 0], 1.0, 1.0)
        assert np.max(np.abs(s)) == 0.0

    def test_entries_real(self, frame):
        s = spin_coupling_matrix(frame, [0.3, -0.4, 0.9], 1.3, 1.0)
        assert s.dtype == np.float64

    def test_z_field_leaves_z_projectors(self, frame):
        s = spin_coupling_matrix(frame, [0, 0, 1.3], 0.8, 1.0)
        assert np.max(np.abs(s[:3])) < 1e-14

    def test_probability_sum_conserved(self, frame, rng):
        left = np.array([1.0, 1, 1, 0, 0, 0, 0, 0, 0])
        for _ in range(5):
            b = rng.normal(size=3)
            s = spin_coupling_matrix(frame, b, 0.9, 1.0)
            assert np.max(np.abs(left @ s)) < 1e-13

    @pytest.mark.parametrize("s_spin", [0.5, 1.0, 1.5])
    def test_matches_matrix_exponential_oracle(self, frame, s_spin):
        # the paper frame at spin 1, random frames at spins 1/2 and 3/2
        fr = frame if s_spin == 1.0 else random_frame(s_spin, seed=3)
        kappa, b = 0.7, 2.0
        sx, _, _ = spin_operators(s_spin)
        h_s = -(kappa / s_spin) * b * sx
        chi = np.eye(fr.dim, dtype=complex)[0]
        rho0 = np.outer(chi, chi.conj())
        s_mat = spin_coupling_matrix(fr, [b, 0, 0], kappa, s_spin)
        period = 2 * np.pi / (kappa * b)
        times = np.linspace(0.0, 10 * period, 257)
        evals, evecs = np.linalg.eigh(h_s)
        w0 = fr.weights(rho0).real
        for t in times:
            u = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
            w_oracle = fr.weights(u @ rho0 @ u.conj().T).real
            w_direct = expm(s_mat * t) @ w0
            assert np.max(np.abs(w_direct - w_oracle)) < 1e-8



class TestSpinFlow:
    # spin_flow's frame image against the conjugated density's weights: a
    # 500-seed sweep of this check (random field, hbar, density and six
    # times up to 30, among them 0 and 1e-3) peaked at 22 eps of max|w| on
    # the paper frame, 53 eps on random_frame(0.5, 1) and 50 eps on
    # random_frame(1.5, 2).  The bound is 128 eps.
    BOUND = 128 * np.finfo(float).eps

    @pytest.mark.parametrize("s_spin, frame_seed", [(1.0, None), (0.5, 1), (1.5, 2)],
                             ids=["paper", "random-s1/2", "random-s3/2"])
    def test_frame_image_moves_weights_as_the_flow(self, frame, s_spin, frame_seed):
        fr = frame if frame_seed is None else random_frame(s_spin, frame_seed)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            fld = EMFieldConfig(b_field=rng.uniform(-1, 1, 3), kappa=rng.uniform(0.5, 1.5),
                                spin=s_spin)
            hbar = rng.uniform(0.5, 1.5)
            times = np.concatenate([[0.0, 1e-3], rng.uniform(0.0, 30.0, 4)])
            a = rng.normal(size=(fr.dim, fr.dim)) + 1j * rng.normal(size=(fr.dim, fr.dim))
            rho0 = a @ a.conj().T / np.trace(a @ a.conj().T).real
            w = np.stack([fr.weights(u @ rho0 @ u.conj().T).real
                          for u in spin_flow(fld, hbar, times)])
            got = spin_flow(fld, hbar, times, fr) @ fr.weights(rho0).real
            assert np.max(np.abs(got - w)) <= self.BOUND * np.max(np.abs(w))

    def test_image_at_zero_time_is_the_identity(self, frame):
        fld = EMFieldConfig(b_field=[0.3, 0.2, 0.5], kappa=0.7)
        assert np.array_equal(spin_flow(fld, 0.9, [0.0], frame)[0], np.eye(frame.size))


class TestEvolveWignerVector:
    def test_free_particle_exact_shear(self, frame, grid128):
        fld = EMFieldConfig(spin=1.0)
        chi = spin_eigenvector(1.0, [1, 0, 0], 1.0)
        q0, p0, sig = -1.0, 1.5, 1.0
        psi = spinor_product_state(grid128, chi, gaussian_packet(grid128, q0, p0, sig))
        v0 = to_vector(SpinorDensity.from_pure(psi, grid128), frame, "wigner")
        t_final = 0.8
        traj = evolve_wigner_vector(v0, fld, PropagatorConfig(
            dt=0.1, n_steps=8, scheme="wigner-spectral", save_every=8))
        q, p = np.meshgrid(grid128.q, grid128.p, indexing="ij")
        spin_w = frame.weights(np.outer(chi, chi.conj())).real
        sheared = np.exp(-((q - p * t_final) - q0)**2 / (2 * sig**2)
                         - 2 * sig**2 * (p - p0)**2) / np.pi
        expected = spin_w[:, None, None] * sheared[None]
        assert np.max(np.abs(traj.frames[-1].components - expected)) < 1e-6

    def test_norm_sum_conserved(self, frame, grid64):
        fld = EMFieldConfig(phi=HARMONIC, b_field=[0.5, 0.2, 0.1], kappa=1.1, spin=1.0)
        chi = spin_eigenvector(1.0, [0, 1, 0], 1.0)
        psi = spinor_product_state(grid64, chi, gaussian_packet(grid64, 0.5, 0.2))
        v0 = to_vector(SpinorDensity.from_pure(psi, grid64), frame, "wigner")
        traj = evolve_wigner_vector(v0, fld, PropagatorConfig(
            dt=0.01, n_steps=200, scheme="wigner-spectral", save_every=20))
        assert np.max(np.abs(traj.norm_sums - 1.0)) < 1e-8

    def test_combined_field_matches_oracle(self, frame, grid128):
        fld = EMFieldConfig(phi=HARMONIC, b_field=[0, 0, 0.7], kappa=1.0, spin=1.0)
        chi = spin_eigenvector(1.0, [1, 0, 0], 1.0)
        psi = spinor_product_state(grid128, chi, gaussian_packet(grid128, 1.0, 0.5))
        rho0 = SpinorDensity.from_pure(psi, grid128)
        v0 = to_vector(rho0, frame, "wigner")
        t_final, n = 2.0, 500
        traj_w = evolve_wigner_vector(v0, fld, PropagatorConfig(
            dt=t_final / n, n_steps=n, scheme="wigner-spectral", save_every=n))
        traj_o = evolve_oracle(rho0, fld, PropagatorConfig(
            dt=t_final / (4 * n), n_steps=4 * n, save_every=4 * n))
        v_oracle = to_vector(traj_o.states[-1], frame, "wigner")
        assert np.max(np.abs(traj_w.frames[-1].components
                             - v_oracle.components)) < 1e-5

    @pytest.mark.parametrize("s", [0.5, 1.5])
    def test_matches_oracle_at_spin(self, s):
        # a random frame, the residual scenario's default field and packet
        # with m = s; both schemes carry an O(dt^2) Strang error (2e-7 here)
        grid = PhaseSpaceGrid.balanced(64)
        fr = random_frame(s, seed=3)
        fld = EMFieldConfig(phi=(0.0, 0.2, 0.5), b_field=[0.4, 0.3, 0.5], kappa=0.8, spin=s)
        rho0 = StateSpec(spin_direction=(1.0, 0.0, 0.0), spin_m=s, q0=0.8, p0=0.5).build(grid, s)
        traj_w = evolve_wigner_vector(to_vector(rho0, fr, "wigner"), fld, PropagatorConfig(
            dt=1e-3, n_steps=400, scheme="wigner-spectral", save_every=100))
        traj_o = evolve_oracle(rho0, fld, PropagatorConfig(dt=1e-3, n_steps=400,
                                                           save_every=100))
        assert len(traj_w.frames) == len(traj_o.states) == 5
        err = max(np.max(np.abs(f.components - to_vector(state, fr, "wigner").components))
                  for f, state in zip(traj_w.frames, traj_o.states))
        assert err < 1e-6

    @pytest.mark.parametrize("spin", [0.5, 1.5])
    def test_spin_dimension_mismatch_rejected(self, frame, grid64, spin):
        rho0 = SpinorDensity.from_pure(spin_coherent_state(grid64, [0, 0, 1]), grid64)
        v0 = to_vector(rho0, frame, "wigner")
        fld = EMFieldConfig(phi=HARMONIC, spin=spin)
        dim = int(2 * spin + 1)
        with pytest.raises(ValueError, match=f"{dim}, but the state has spin dimension 3"):
            evolve_oracle(rho0, fld, PropagatorConfig(dt=0.01, n_steps=1))
        with pytest.raises(ValueError, match=f"{dim}, but the frame has spin dimension 3"):
            evolve_wigner_vector(v0, fld, PropagatorConfig(
                dt=0.01, n_steps=1, scheme="wigner-spectral"))

    def test_scheme_checked(self, frame, grid64):
        psi = spin_coherent_state(grid64, [0, 0, 1])
        v0 = to_vector(SpinorDensity.from_pure(psi, grid64), frame, "wigner")
        with pytest.raises(SchemeMismatchError):
            evolve_wigner_vector(v0, EMFieldConfig(phi=HARMONIC),
                                 PropagatorConfig(dt=0.01, n_steps=1))


class TestFieldTheGridCannotStep:
    """A field whose Strang factors overflow on the grid is refused by both
    evolutions with UnsteppableFieldError (a ValueError) naming it, without a
    floating-point warning:
    the oracle carried NaN traces and energies, the vector Wigner evolution
    either failed on its NaN imag_residues (phi) or ran with phases that
    hold no digit (a_long)."""

    @pytest.mark.parametrize("kwargs, dt, name", [
        ({"phi": (0.0, 0.0, 1e308)}, 0.01, "phi"), ({"a_long": 1e200}, 0.01, "a_long"),
        ({"a_long": 1.0}, 1e307, "dt")],
        ids=["phi", "a_long", "dt"])
    def test_refused(self, frame, grid64, kwargs, dt, name):
        # dt: the kinetic phase overflows with a_long left out as well, so
        # the time step is named, not the field
        rho0 = SpinorDensity.from_pure(spin_coherent_state(grid64, [0, 0, 1]), grid64)
        v0 = to_vector(rho0, frame, "wigner")
        fld = EMFieldConfig(**kwargs)
        with np.errstate(all="raise"):
            with pytest.raises(UnsteppableFieldError, match=f"^{name}: .* overflows"):
                evolve_oracle(rho0, fld, PropagatorConfig(dt=dt, n_steps=2))
            with pytest.raises(UnsteppableFieldError, match=f"^{name}: .* overflows"):
                evolve_wigner_vector(v0, fld, PropagatorConfig(
                    dt=dt, n_steps=2, scheme="wigner-spectral"))

    @pytest.mark.parametrize("kwargs, name", [
        ({"phi": (0.0, 0.0, 1e308)}, "phi"), ({"phi": (0.0, 1e308, 0.0), "e": 10.0}, "phi"),
        ({"a_long": 1e300, "mass": 1e-10}, "a_long")], ids=["c2", "e-c1", "a_long"])
    def test_phase_flow_refused(self, kwargs, name):
        with pytest.raises(UnsteppableFieldError, match=f"^{name}: the phase-space flow"):
            EMFieldConfig(**kwargs).phase_flow()

    def test_factors_unchanged(self, grid64):
        # the checked factors are the plain formulas' values, bit for bit
        fld = EMFieldConfig(phi=(0.1, -0.3, 0.7), a_long=0.4, e=-1.5, mass=2.0)
        dt = 3e-3
        kick, kinetic = dynamics._strang_factors(grid64, fld, dt)
        assert np.array_equal(kick, np.exp(-0.5j * dt * fld.e * fld.phi_at(grid64.q)
                                           / grid64.hbar))
        assert np.array_equal(kinetic, np.exp(
            -1j * dt * (grid64.hbar * grid64.k_fft - fld.e * fld.a_long / fld.c_light) ** 2
            / (2.0 * fld.mass * grid64.hbar)))


class TestComposedStrangMap:
    """evolve_wigner_vector composes the Strang steps between saved frames in
    closed form; the step-by-step loop is the reference."""

    @staticmethod
    def composed_case(case, frame, grid):
        """(v0, fld, prop) of a named case on grid."""
        if case == "workload":       # the benchmark's dynamics jobs
            fld = EMFieldConfig(phi=(0.0, -0.21, 0.62), b_field=[0.4, -0.7, 0.3],
                                kappa=1.3, spin=1.0)
            v0, _ = packet_vector(frame, grid, [0.3, -0.5, 0.8], 1.2, -0.9, 2**-0.5)
            prop = PropagatorConfig(dt=4e-3, n_steps=100, scheme="wigner-spectral",
                                    save_every=25)
        elif case == "units":        # a_long, mass, e and c_light all != 1
            fld = EMFieldConfig(phi=(0.3, 0.25, 0.35), a_long=0.6, e=0.8, c_light=1.7,
                                mass=1.6, b_field=[0.2, 0.5, -0.4], kappa=0.7, spin=1.0)
            v0, _ = packet_vector(frame, grid, [1, 1, 0], -0.6, 0.4, 0.8)
            prop = PropagatorConfig(dt=0.01, n_steps=120, scheme="wigner-spectral",
                                    save_every=40)
        elif case == "ragged-chunks":  # save_every does not divide n_steps
            fld = EMFieldConfig(phi=(0.0, 0.1, 0.5), b_field=[0, 0.6, 0], spin=1.0)
            v0, _ = packet_vector(frame, grid, [0, 0, 1], 0.5, 0.2, 0.9)
            prop = PropagatorConfig(dt=0.01, n_steps=90, scheme="wigner-spectral",
                                    save_every=25)
        else:                        # a whole oscillator period in one chunk
            fld = EMFieldConfig(phi=HARMONIC, spin=1.0)
            v0, _ = packet_vector(frame, grid, [1, 0, 0], 1.0, 0.5, 1.0)
            n = 200
            prop = PropagatorConfig(dt=2 * np.pi / n, n_steps=n, scheme="wigner-spectral",
                                    save_every=n)
        return v0, fld, prop

    @pytest.mark.parametrize("case", ["workload", "units", "ragged-chunks", "full-period"])
    def test_matches_kick_drift_loop(self, frame, grid128, case):
        v0, fld, prop = self.composed_case(case, frame, grid128)
        if case == "full-period":
            n = prop.n_steps
            max_steps = _max_steps(_strang_step(fld, prop.dt), n, grid128.dx / grid128.dp)
            assert -(-n // max_steps) >= 8
        traj = evolve_wigner_vector(v0, fld, prop)
        ref = kick_drift_reference(v0, fld, prop)
        got = np.stack([f.components for f in traj.frames])
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref.real)) < 1e-11
        assert np.allclose(traj.times, v0.time + prop.dt * np.minimum(
            np.arange(len(ref)) * prop.save_every, prop.n_steps), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["workload", "units"])
    def test_real_shears_match_complex_shears(self, frame, grid128, case):
        # on a supported state the rfft shears drop nothing but round-off
        v0, fld, prop = self.composed_case(case, frame, grid128)
        traj = evolve_wigner_vector(v0, fld, prop)
        ref = complex_shear_reference(v0, fld, prop)
        got = np.stack([f.components for f in traj.frames])
        assert got.dtype == np.float64
        assert np.max(np.abs(got - ref.real)) < 1e-14
        assert max(np.max(f.imag_residues) for f in traj.frames) <= 1e-14

    @pytest.mark.parametrize("axis", [1, 2])
    def test_shear_drops_the_imaginary_part(self, rng, axis):
        # a full-band real stack: the rfft shear returns the real part of the
        # complex shear and, per component and line, the imaginary part it
        # drops, the largest imaginary part the complex shear leaves on that
        # line; atol is the round-off of the complex shear on this unit-scale
        # stack (1.6e-16 measured), so lines dropping 1e-4 are still checked
        n = 32
        w = rng.normal(size=(3, n, n))
        k = 2.0 * np.pi * np.fft.fftfreq(n)
        coef = rng.uniform(-2.0, 2.0, size=n)

        def phase(k):
            return np.outer(coef, k) if axis == 2 else np.outer(k, coef)

        ref = np.fft.ifft(np.exp(1j * phase(k)) * np.fft.fft(w, axis=axis), axis=axis)
        got, dropped = _shear(w, axis, np.exp(1j * phase(2.0 * np.pi * np.fft.rfftfreq(n))))
        assert np.max(np.abs(got - ref.real)) < 1e-14
        assert dropped.shape == (3, n)
        np.testing.assert_allclose(np.abs(dropped), np.max(np.abs(ref.imag), axis=axis),
                                   rtol=1e-12, atol=1e-15)

    def test_residues_follow_the_spin_mixing(self, frame, grid128):
        # a residue seeded in one component spreads as |expm(S tau)| r
        v0, fld, prop = self.composed_case("workload", frame, grid128)
        seed = np.zeros(len(v0.components))
        seed[4] = 1e-6
        traj = evolve_wigner_vector(dataclasses.replace(v0, imag_residues=seed), fld, prop)
        s_mat = spin_coupling_matrix(frame, fld.b_field, fld.kappa, fld.spin, grid128.hbar)
        expected = seed
        for f in traj.frames[1:]:
            expected = np.abs(expm(s_mat * prop.dt * prop.save_every)) @ expected
            assert np.allclose(f.imag_residues, expected, rtol=1e-9, atol=1e-14)
        assert np.count_nonzero(traj.frames[-1].imag_residues > 1e-9) > 1

    def test_band_edge_content_reported(self, frame, grid128):
        # a packet too narrow for balanced(64): its band-edge content is what
        # the complex shears leave in the imaginary part, and the residues
        # track it within a small factor
        _, fld, prop = self.composed_case("workload", frame, grid128)
        grid = PhaseSpaceGrid.balanced(64)
        v0, _ = packet_vector(frame, grid, [0.3, -0.5, 0.8], 0.0, 2.0, 0.25)
        traj = evolve_wigner_vector(v0, fld, prop)
        ref = complex_shear_reference(v0, fld, prop)
        for f, rf in zip(traj.frames[1:], ref[1:]):
            got, im = np.max(f.imag_residues), np.max(np.abs(rf.imag))
            assert got > 1e-6 and not audit(f).realness_ok
            assert 0.5 * im <= got <= 4.0 * im

    def test_uniform_force_matches_closed_form(self, frame, grid128):
        # with c2 = 0 the Strang step is exact: the packet falls freely
        c1, a_long = 0.3, 0.5
        fld = EMFieldConfig(phi=(0.1, c1, 0.0), a_long=a_long, e=1.2, c_light=2.0, mass=1.5,
                            b_field=[0.3, 0.0, 0.8], kappa=0.9, spin=1.0)
        q0, p0, sig = -0.8, 0.6, 2**-0.5
        v0, chi = packet_vector(frame, grid128, [1, 0, 1], q0, p0, sig)
        prop = PropagatorConfig(dt=0.02, n_steps=75, scheme="wigner-spectral",
                                save_every=25)
        traj = evolve_wigner_vector(v0, fld, prop)
        s_mat = spin_coupling_matrix(frame, fld.b_field, fld.kappa, 1.0)
        spin_w = frame.weights(np.outer(chi, chi.conj())).real
        q, p = np.meshgrid(grid128.q, grid128.p, indexing="ij")
        force = -fld.e * c1
        for t, f in zip(traj.times, traj.frames):
            p_back = p - force * t
            q_back = q - (p - fld.e * a_long / fld.c_light) * t / fld.mass \
                + force * t**2 / (2 * fld.mass)
            scalar = np.exp(-(q_back - q0)**2 / (2 * sig**2)
                            - 2 * sig**2 * (p_back - p0)**2) / np.pi
            expected = (expm(s_mat * t) @ spin_w)[:, None, None] * scalar[None]
            # one q-shear per chunk; the kick/drift loop drifts 1.9e-13 here
            assert np.max(np.abs(f.components - expected)) < 1e-13

    def test_inverted_oscillator_short_run(self, frame, grid128):
        fld = EMFieldConfig(phi=(0.0, 0.0, -0.3), b_field=[0.1, 0.2, 0.3], spin=1.0)
        v0, _ = packet_vector(frame, grid128, [0, 1, 0], 0.3, -0.2, 0.8)
        prop = PropagatorConfig(dt=0.01, n_steps=100, scheme="wigner-spectral",
                                save_every=50)
        traj = evolve_wigner_vector(v0, fld, prop)
        ref = kick_drift_reference(v0, fld, prop)
        assert np.max(np.abs(np.stack([f.components for f in traj.frames]) - ref.real)) < 1e-7

    def test_cost_does_not_grow_with_steps(self, grid64):
        # the same final time in 10x more steps needs no more sub-maps
        fld = EMFieldConfig(phi=HARMONIC, spin=1.0)
        counts = []
        for n in (200, 2000):
            step = _strang_step(fld, 2.0 / n)
            counts.append(-(-n // _max_steps(step, n, grid64.dx / grid64.dp)))
        assert counts[0] == counts[1] >= 2


class TestFactoredEvolution:
    """evolve_wigner_vector shears the independent phase-space functions of the
    component stack, not its components; the nine-row evolution is the
    reference."""

    @staticmethod
    def state_case(case, frame, grid):
        """(v0, fld, prop, rank) of a named case on grid."""
        if case in ("workload", "units", "ragged-chunks", "full-period"):
            return TestComposedStrangMap.composed_case(case, frame, grid) + (1,)
        _, fld, prop = TestComposedStrangMap.composed_case("workload", frame, grid)
        if case == "band-edge":      # too narrow for balanced(64)
            v0, _ = packet_vector(frame, PhaseSpaceGrid.balanced(64), [0.3, -0.5, 0.8],
                                  0.0, 2.0, 0.25)
            return v0, fld, prop, 1
        packets = [gaussian_packet(grid, q0, p0, 0.9)
                   for q0, p0 in ((-1.0, 0.5), (0.8, -0.3), (0.2, 1.0))]
        if case == "mixture":        # three product states
            chis = [spin_eigenvector(1.0, d / np.linalg.norm(d), 1.0)
                    for d in np.array([[1, 0, 0], [0, 1, 1], [1, -1, 0.5]])]
            rho = SpinorDensity.from_mixture(
                [0.5, 0.3, 0.2], [spinor_product_state(grid, chi, phi)
                                  for chi, phi in zip(chis, packets)], grid)
            return to_vector(rho, frame, "wigner"), fld, prop, 3
        # an entangled pure spinor: each spin level carries its own packet
        psi = np.stack(packets) * np.array([0.6, 0.5 - 0.3j, 0.2 + 0.5j])[:, None]
        psi /= np.sqrt(np.sum(np.abs(psi)**2) * grid.dx)
        return to_vector(SpinorDensity.from_pure(psi, grid), frame, "wigner"), fld, prop, 9

    @pytest.mark.parametrize("case", ["workload", "units", "ragged-chunks", "full-period",
                                      "band-edge", "mixture", "entangled"])
    def test_matches_nine_row_evolution(self, frame, grid128, monkeypatch, case):
        v0, fld, prop, rank = self.state_case(case, frame, grid128)
        rows = []

        def counted(w, axis, turn):
            rows.append(len(w))
            return _shear(w, axis, turn)

        monkeypatch.setattr(dynamics, "_shear", counted)
        traj = evolve_wigner_vector(v0, fld, prop)
        assert rows and set(rows) == {rank}
        ref, ref_res = nine_row_reference(v0, fld, prop)
        got = np.stack([f.components for f in traj.frames])
        got_res = np.stack([f.imag_residues for f in traj.frames])
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-15
        # residues that carry band-edge content agree closely; those built
        # from round-off (up to 2.6e-12 over the full period's 42 shears)
        # differ by round-off of the Nyquist bins, 8e-18 at most
        big = ref_res > 1e-9
        assert np.all(np.abs(got_res - ref_res)[big] <= 1e-12 * ref_res[big])
        assert np.all(np.abs(got_res - ref_res)[~big] <= 1e-15)

    def test_dynamics_job_runs_no_qr(self, frame, grid128, monkeypatch):
        # the benchmark's dynamics job: the portrait's own factors are evolved,
        # and each saved frame keeps them
        def refuse(*args, **kwargs):
            raise AssertionError("a dynamics job must not run a QR")

        monkeypatch.setattr(np.linalg, "qr", refuse)
        fld = EMFieldConfig(phi=(0.0, -0.21, 0.62), b_field=[0.4, -0.7, 0.3], kappa=1.3,
                            spin=1.0)
        direction = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
        rho0 = SpinorDensity.from_pure(
            spin_coherent_state(grid128, direction, 1.0, 1.0, 1.2, -0.9, 2**-0.5), grid128)
        v0 = to_vector(rho0, frame, "wigner")
        traj = evolve_wigner_vector(v0, fld, PropagatorConfig(
            4e-3, 100, dynamics.WIGNER_SCHEME, 25))
        evolve_oracle(rho0, fld, PropagatorConfig(4e-3, 100, "split-step-strang", 25))
        assert v0.mixing.shape == (9, 1)
        for f in traj.frames:
            assert f.mixing.shape == (9, 1) and f.functions.shape == (1, 128, 128)
            assert np.array_equal(f.components, np.tensordot(f.mixing, f.functions, 1))

    def test_zero_portrait(self, frame, grid64):
        v0, fld, prop = TestComposedStrangMap.composed_case("workload", frame, grid64)
        zero = dataclasses.replace(v0, components=np.zeros_like(v0.components),
                                   imag_residues=np.zeros(len(v0.components)))
        traj = evolve_wigner_vector(zero, fld, prop)
        assert len(traj.frames) == 5
        for f in traj.frames:
            assert f.components.shape == v0.components.shape
            assert not np.any(f.components)
            assert not np.any(f.imag_residues)


class TestFrequencyFit:
    def test_two_harmonic_signal(self):
        t = np.linspace(0, 20, 400)
        omega = 1.37
        y = 0.4 + 0.5 * np.cos(omega * t) + 0.1 * np.cos(2 * omega * t + 0.3)
        assert abs(fit_precession_frequency(t, y) - omega) / omega < 1e-9

    @pytest.mark.parametrize("first, second", [(0.1, 0.5), (0.5, 0.0)],
                             ids=["second-harmonic-peak", "one-harmonic"])
    def test_peak_on_either_harmonic(self, first, second):
        # a peak at 2 omega is not taken for the frequency; a signal at omega
        # alone, which omega / 2 with its second harmonic fits as well, is
        # fit at omega
        t = np.linspace(0, 20, 400)
        omega = 1.37
        y = 0.4 + first * np.cos(omega * t) + second * np.cos(2 * omega * t + 0.3)
        assert abs(fit_precession_frequency(t, y) - omega) / omega < 1e-9
