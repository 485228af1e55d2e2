"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned to the stated values; runtime budgets are asserted
against wall-clock time with wide margins at desk scale.
"""
import time

import numpy as np
import pytest
from scipy.linalg import expm

from spintomo import (
    EMFieldConfig,
    PhaseSpaceGrid,
    PropagatorConfig,
    SpinorDensity,
    StateSpec,
    TomogramDomain,
    build_spin1_frame,
    evolve_oracle,
    evolve_wigner_vector,
    fidelity_with_pure,
    fit_precession_frequency,
    from_vector,
    gaussian_packet,
    paper_quantizer_comparison,
    random_band_limited_state,
    residual_convergence,
    spin_coherent_state,
    spin_coupling_matrix,
    spin_eigenvector,
    spin_operators,
    spinor_product_state,
    to_vector,
)

FRAME = build_spin1_frame()
HARMONIC = (0.0, 0.0, 0.5)


def report(number, name, passed, detail, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {name}: {detail} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def moyal_runs():
    """Trajectories for criterion 8, shared with criterion 6."""
    grid = PhaseSpaceGrid.balanced(128)
    chi_x = spin_eigenvector(1.0, [1, 0, 0], 1.0)

    runs = {}
    t0 = time.perf_counter()

    # free-particle shear
    fld_free = EMFieldConfig(phi=None, spin=1.0)
    psi_a = spinor_product_state(grid, chi_x, gaussian_packet(grid, -1.0, 1.5, 1.0))
    v0_a = to_vector(SpinorDensity.from_pure(psi_a, grid), FRAME, "wigner")
    runs["free"] = (v0_a, evolve_wigner_vector(
        v0_a, fld_free, PropagatorConfig(dt=0.1, n_steps=8,
                                         scheme="wigner-spectral", save_every=2)))

    # harmonic period return
    fld_ho = EMFieldConfig(phi=HARMONIC, spin=1.0)
    psi_b = spinor_product_state(grid, chi_x, gaussian_packet(grid, 1.0, 0.5, 1.0))
    v0_b = to_vector(SpinorDensity.from_pure(psi_b, grid), FRAME, "wigner")
    n_b = 1600
    runs["oscillator"] = (v0_b, evolve_wigner_vector(
        v0_b, fld_ho, PropagatorConfig(dt=2 * np.pi / n_b, n_steps=n_b,
                                       scheme="wigner-spectral", save_every=n_b // 4)))

    # oscillator + uniform B_z against the oracle
    fld_c = EMFieldConfig(phi=HARMONIC, b_field=[0, 0, 0.7], kappa=1.0, spin=1.0)
    rho_c = SpinorDensity.from_pure(psi_b, grid)
    n_c = 500
    runs["combined"] = (v0_b, evolve_wigner_vector(
        v0_b, fld_c, PropagatorConfig(dt=2.0 / n_c, n_steps=n_c,
                                      scheme="wigner-spectral", save_every=n_c // 4)))
    runs["combined_oracle"] = evolve_oracle(
        rho_c, fld_c, PropagatorConfig(dt=2.0 / (4 * n_c), n_steps=4 * n_c,
                                       save_every=4 * n_c))
    runs["elapsed"] = time.perf_counter() - t0
    runs["grid"] = grid
    return runs


def test_criterion_01_frame_duality():
    t0 = time.perf_counter()
    duality = FRAME.duality_residual()
    completeness = FRAME.completeness_residual()
    elapsed = time.perf_counter() - t0
    ok = duality <= 1e-12 and completeness <= 1e-12 and elapsed < 1.0
    report(1, "frame duality/completeness", ok,
           f"duality={duality:.2e} completeness={completeness:.2e}", elapsed)
    assert duality <= 1e-12
    assert completeness <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_paper_quantizer_check():
    t0 = time.perf_counter()
    rows = paper_quantizer_comparison(FRAME)
    diag_ok = True
    print("quantizer comparison against the published vectors:")
    for row in rows:
        print(f"  slot {row['slot']}: max |recomputed - printed| = {row['max_abs_diff']:.3e}")
    for pos, (j, k) in enumerate([(0, 0), (1, 1), (2, 2)]):
        vec = FRAME.quantizer_vector(j, k)
        expected = np.zeros(9)
        expected[pos] = 1.0
        diag_ok &= bool(np.max(np.abs(vec - expected)) <= 1e-12)
    elapsed = time.perf_counter() - t0
    report(2, "diagonal quantizer vectors + diff table", diag_ok and elapsed < 1.0,
           "D_(11), D_(22), D_(33) are exact basis vectors", elapsed)
    assert diag_ok
    assert elapsed < 1.0


def test_criterion_03_spin_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        back = FRAME.reconstruct(FRAME.weights(rho))
        worst = max(worst, float(np.max(np.abs(back - rho))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(3, "spin-only round trip (200 states)", ok, f"max error={worst:.2e}", elapsed)
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_04_joint_round_trip_wigner():
    t0 = time.perf_counter()
    grid = PhaseSpaceGrid.balanced(128)
    rng = np.random.default_rng(4)
    probs = rng.dirichlet(np.ones(2))
    psis = [spinor_product_state(grid, rng.normal(size=3) + 1j * rng.normal(size=3),
                                 random_band_limited_state(grid, rng))
            for _ in range(2)]
    rho = SpinorDensity.from_mixture(probs, psis, grid)
    back = from_vector(to_vector(rho, FRAME, "wigner"), FRAME)
    err = float(np.max(np.abs(back.blocks - rho.blocks)))
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-10 and elapsed < 5.0
    report(4, "joint round trip, wigner route", ok, f"max block error={err:.2e}", elapsed)
    assert err <= 1e-10
    assert elapsed < 5.0


def test_criterion_05_optical_route_reconstruction():
    t0 = time.perf_counter()
    grid = PhaseSpaceGrid.balanced(256)
    psi = spin_coherent_state(grid, [1, 1, 1], q0=0.5, p0=0.3, sigma=1.0)
    rho = SpinorDensity.from_pure(psi, grid)
    dom = TomogramDomain.optical_default(grid, 128)
    back = from_vector(to_vector(rho, FRAME, "optical", dom), FRAME)
    fid = fidelity_with_pure(back, psi)
    elapsed = time.perf_counter() - t0
    ok = fid >= 0.999 and elapsed < 30.0
    report(5, "optical route reconstruction (256 pts, 128 angles)", ok,
           f"fidelity={fid:.6f}", elapsed)
    assert fid >= 0.999
    assert elapsed < 30.0


def test_criterion_06_normalization_conservation(moyal_runs):
    t0 = time.perf_counter()
    worst = 0.0
    counted = 0
    for key in ("free", "oscillator", "combined"):
        _, traj = moyal_runs[key]
        worst = max(worst, float(np.max(np.abs(traj.norm_sums - 1.0))))
        counted += len(traj.frames)
    oracle = moyal_runs["combined_oracle"]
    for state in oracle.states:
        v = to_vector(state, FRAME, "wigner")
        worst = max(worst, abs(v.normalization_sum() - 1.0))
        counted += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8
    report(6, "normalization sum conserved on every frame", ok,
           f"{counted} frames, max |sum-1|={worst:.2e}", elapsed)
    assert worst <= 1e-8


def test_criterion_07_larmor_precession():
    t0 = time.perf_counter()
    kappa, b, s, hbar = 0.7, 2.0, 1.0, 1.0
    omega_expected = kappa * b / (s * hbar)
    period = 2 * np.pi / omega_expected
    sx, _, _ = spin_operators(s)
    h_s = -(kappa / s) * b * sx
    chi = np.array([1.0, 0.0, 0.0], dtype=complex)
    rho0 = np.outer(chi, chi.conj())
    times = np.linspace(0.0, 10 * period, 641)
    evals, evecs = np.linalg.eigh(h_s)
    weights = np.empty((len(times), 9))
    for i, t in enumerate(times):
        u = (evecs * np.exp(-1j * evals * t / hbar)) @ evecs.conj().T
        weights[i] = FRAME.weights(u @ rho0 @ u.conj().T).real

    s_mat = spin_coupling_matrix(FRAME, [b, 0, 0], kappa, s, hbar)
    w_direct = np.stack([expm(s_mat * t) @ weights[0] for t in times])
    s_err = float(np.max(np.abs(w_direct - weights)))

    spans = weights.max(axis=0) - weights.min(axis=0)
    series = weights[:, int(np.argmax(spans))]
    fitted = fit_precession_frequency(times, series)
    rel_err = abs(fitted - omega_expected) / omega_expected
    elapsed = time.perf_counter() - t0
    ok = rel_err <= 1e-6 and s_err <= 1e-8 and elapsed < 5.0
    report(7, "Larmor precession (B along x, 10 periods)", ok,
           f"freq rel err={rel_err:.2e}, S-matrix vs oracle={s_err:.2e}", elapsed)
    assert rel_err <= 1e-6
    assert s_err <= 1e-8
    assert elapsed < 5.0


def test_criterion_08_vector_moyal_dynamics(moyal_runs):
    grid = moyal_runs["grid"]
    chi_x = spin_eigenvector(1.0, [1, 0, 0], 1.0)
    spin_w = FRAME.weights(np.outer(chi_x, chi_x.conj())).real
    q, p = np.meshgrid(grid.q, grid.p, indexing="ij")

    v0_a, traj_a = moyal_runs["free"]
    t_final = traj_a.times[-1]
    sheared = np.exp(-((q - p * t_final) + 1.0)**2 / 2.0 - 2.0 * (p - 1.5)**2) / np.pi
    err_free = float(np.max(np.abs(traj_a.frames[-1].components
                                   - spin_w[:, None, None] * sheared[None])))

    v0_b, traj_b = moyal_runs["oscillator"]
    err_period = float(np.max(np.abs(traj_b.frames[-1].components - v0_b.components)))

    _, traj_c = moyal_runs["combined"]
    v_oracle = to_vector(moyal_runs["combined_oracle"].states[-1], FRAME, "wigner")
    err_combined = float(np.max(np.abs(traj_c.frames[-1].components
                                       - v_oracle.components)))
    elapsed = moyal_runs["elapsed"]
    ok = err_free <= 1e-6 and err_period <= 1e-5 and err_combined <= 1e-5 and elapsed < 120.0
    report(8, "vector Moyal dynamics (128x128)", ok,
           f"free={err_free:.2e}, period={err_period:.2e}, combined={err_combined:.2e}",
           elapsed)
    assert err_free <= 1e-6
    assert err_period <= 1e-5
    assert err_combined <= 1e-5
    assert elapsed < 120.0


def test_criterion_09_residual_convergence():
    t0 = time.perf_counter()
    fld = EMFieldConfig(phi=(0.0, 0.2, 0.5), b_field=[0.4, 0.3, 0.5],
                        kappa=0.8, spin=1.0)
    spec = StateSpec(spin_direction=(1, 0, 0), spin_m=1.0, q0=0.8, p0=0.5, sigma=1.0)
    length = PhaseSpaceGrid.balanced(128).length
    ratios = {}
    for rep in ("wigner", "optical", "symplectic-section", "husimi"):
        result = residual_convergence(rep, fld, FRAME, spec, n=128, length=length,
                                      n_theta=64, n_mu=5, n_nu=5, n_frames=5,
                                      dt_frame=0.04, substeps=8)
        ratios[rep] = result.ratio_max
    elapsed = time.perf_counter() - t0
    ok = all(3.0 <= r <= 5.0 for r in ratios.values()) and elapsed < 600.0
    detail = ", ".join(f"{k}={v:.2f}" for k, v in ratios.items())
    report(9, "residual convergence ratios in [3,5]", ok, detail, elapsed)
    for rep, ratio in ratios.items():
        assert 3.0 <= ratio <= 5.0, f"{rep} ratio {ratio}"
    assert elapsed < 600.0


def test_criterion_10_representation_sanity():
    t0 = time.perf_counter()
    grid = PhaseSpaceGrid.balanced(128)
    rng = np.random.default_rng(10)
    probs = rng.dirichlet(np.ones(2))
    psis = [spinor_product_state(grid, rng.normal(size=3) + 1j * rng.normal(size=3),
                                 random_band_limited_state(grid, rng))
            for _ in range(2)]
    rho = SpinorDensity.from_mixture(probs, psis, grid)

    v_w = to_vector(rho, FRAME, "wigner")
    realness = float(np.max(v_w.imag_residues))

    v_h = to_vector(rho, FRAME, "husimi")
    husimi_min = float(np.min(v_h.components))
    spin_weights = FRAME.weights(rho.spin_matrix()).real
    husimi_int_err = float(np.max(np.abs(v_h.component_integrals() - spin_weights)))

    from spintomo.states import oscillator_eigenstate
    psi0 = oscillator_eigenstate(grid, 0)
    rho0 = SpinorDensity.from_pure(
        spinor_product_state(grid, [1, 0, 0], psi0), grid)
    dom = TomogramDomain.optical_default(grid, 64)
    tom = to_vector(rho0, FRAME, "optical", dom).components[0]
    gauss = np.exp(-dom.x**2) / np.sqrt(np.pi)
    theta_dev = float(np.max(np.abs(tom - gauss[None, :])))

    elapsed = time.perf_counter() - t0
    ok = (realness <= 1e-12 and husimi_min >= -1e-10
          and husimi_int_err <= 1e-8 and theta_dev <= 1e-8)
    report(10, "representation sanity", ok,
           f"wigner imag={realness:.2e}, husimi min={husimi_min:.2e}, "
           f"husimi ints={husimi_int_err:.2e}, tomogram dev={theta_dev:.2e}", elapsed)
    assert realness <= 1e-12
    assert husimi_min >= -1e-10
    assert husimi_int_err <= 1e-8
    assert theta_dev <= 1e-8
