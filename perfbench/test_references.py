"""Checks of the benchmark's own code: the closed-form references, the span
metrics, and the agreement of BENCHMARK.json with what run.py prints.

    python3 -m pytest -q perfbench
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import references as ref  # noqa: E402
import spans  # noqa: E402


def _packets(d, rng, k=2):
    probs = rng.dirichlet(np.ones(k))
    return [ref.Packet(float(p), rng.normal(size=d) + 1j * rng.normal(size=d),
                       float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                       float(rng.uniform(0.65, 0.85))) for p in probs]


def test_closed_forms_are_marginals_and_smoothings_of_the_wigner_form():
    """Optical and symplectic forms integrate the Wigner form along lines;
    the Husimi form is its Gaussian smoothing (checked by quadrature)."""
    rng = np.random.default_rng(0)
    pk = _packets(2, rng, 1)[0]
    u = np.eye(2, dtype=complex)[:, :, None] * np.eye(2)[:, None, :]  # z projectors
    y = np.linspace(-12, 12, 4801)
    x = np.linspace(-4, 4, 33)
    for th in (0.0, 0.4, 1.3, 2.9):
        # W on the line q = X cos - Y sin, p = X sin + Y cos, integrated over Y
        q = x[:, None] * np.cos(th) - y[None, :] * np.sin(th)
        p = x[:, None] * np.sin(th) + y[None, :] * np.cos(th)
        w = np.exp(-((q - pk.q0) ** 2) / (2 * pk.sigma**2)
                   - 2 * pk.sigma**2 * (p - pk.p0) ** 2) / np.pi
        marg = np.trapezoid(w, y, axis=1)
        opt = ref.optical([pk], u, np.array([th]), x)
        weights = ref.spin_weights(pk, u)
        np.testing.assert_allclose(opt[:, 0, :], np.outer(weights, marg), atol=1e-12)
        # homogeneity: X = mu q + nu p has density w(X / r, theta) / r
        mu, nu = 1.7 * np.cos(th), 1.7 * np.sin(th)
        sym = ref.symplectic([pk], u, [mu], [nu], 1.7 * x)
        np.testing.assert_allclose(sym[:, 0, 0, :], opt[:, 0, :] / 1.7, atol=1e-12)

    grid = np.linspace(-10, 10, 2001)
    h = grid[1] - grid[0]
    wig = ref.wigner([pk], u, grid, grid)
    kernel = np.exp(-grid**2) / np.sqrt(np.pi)   # variance 1/2 in q and in p
    smooth = np.apply_along_axis(lambda r: np.convolve(r, kernel, "same") * h, 2, wig)
    smooth = np.apply_along_axis(lambda r: np.convolve(r, kernel, "same") * h, 1, smooth)
    hus = ref.husimi([pk], u, grid, grid)
    np.testing.assert_allclose(smooth[:, 500:1500:50, 500:1500:50],
                               hus[:, 500:1500:50, 500:1500:50], atol=1e-10)


def test_program_portraits_match_closed_forms_to_round_off():
    import spintomo as st
    from spintomo.residuals import default_domain

    g = st.PhaseSpaceGrid.balanced(128)
    frame = st.random_frame(0.5, 11)
    packets = _packets(2, np.random.default_rng(1))
    psis = [st.spinor_product_state(g, pk.chi, st.gaussian_packet(g, pk.q0, pk.p0, pk.sigma))
            for pk in packets]
    rho = st.SpinorDensity.from_mixture([pk.prob for pk in packets], psis, g)
    u = frame.dequantizer
    opt = st.TomogramDomain.optical_default(g, 64)
    sym = default_domain("symplectic-section", g)
    cases = {
        "wigner": (None, ref.wigner(packets, u, g.q, g.p)),
        "optical": (opt, ref.optical(packets, u, opt.thetas, opt.x)),
        "symplectic-section": (sym, ref.symplectic(packets, u, sym.mu, sym.nu, sym.x)),
        "husimi": (None, ref.husimi(packets, u, g.q, g.p)),
    }
    for rep, (dom, expected) in cases.items():
        got = st.to_vector(rho, frame, rep, dom).components
        assert np.max(np.abs(got - expected)) < 1e-12, rep


def _orbit(rng, kappa=0.9):
    b_field = rng.uniform(-1, 1, 3)
    orb = ref.Orbit(chi=ref.coherent_spin_vector(1.0, rng.normal(size=3)),
                    q0=0.8, p0=-0.5, c1=0.2, c2=0.45,
                    h_spin=ref.zeeman_hamiltonian(1.0, b_field, kappa))
    return orb, b_field


def test_orbit_solves_the_equations_of_motion():
    orb, _ = _orbit(np.random.default_rng(2))
    h = orb.h_spin

    def rhs(t, y):
        q, p = y[0], y[1]
        chi = y[2:5] + 1j * y[5:8]
        dchi = -1j * h @ chi
        return np.concatenate([[p / orb.mass, -orb.e * (orb.c1 + 2 * orb.c2 * q)],
                               dchi.real, dchi.imag])

    chi0 = orb.spin_vector(0.0)
    y0 = np.concatenate([[orb.q0, orb.p0], chi0.real, chi0.imag])
    sol = solve_ivp(rhs, (0, 3.0), y0, t_eval=[0.7, 3.0], rtol=1e-12, atol=1e-12)
    for k, t in enumerate(sol.t):
        np.testing.assert_allclose(orb.centre(t), sol.y[:2, k], atol=1e-9)
        np.testing.assert_allclose(orb.spin_vector(t), sol.y[2:5, k] + 1j * sol.y[5:8, k],
                                   atol=1e-9)
    sx, sy, sz = ref.spin_matrices(1.0)
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz)


def test_strang_error_against_orbit_is_second_order():
    import spintomo as st

    g = st.PhaseSpaceGrid.balanced(128)
    frame = st.build_spin1_frame()
    orb, b_field = _orbit(np.random.default_rng(3))
    chi = orb.spin_vector(0.0)
    psi = st.spinor_product_state(g, chi, st.gaussian_packet(g, orb.q0, orb.p0, orb.sigma))
    v0 = st.to_vector(st.SpinorDensity.from_pure(psi, g), frame, "wigner")
    assert np.max(np.abs(v0.components - ref.wigner(orb.packets(0.0), frame.dequantizer,
                                                    g.q, g.p))) < 1e-14
    fld = st.EMFieldConfig(phi=(0.0, orb.c1, orb.c2), b_field=b_field, kappa=0.9,
                           spin=1.0)
    errs = []
    for dt in (4e-3, 2e-3):
        n = int(round(0.4 / dt))
        traj = st.evolve_wigner_vector(v0, fld, st.PropagatorConfig(dt, n, "wigner-spectral", n))
        errs.append(np.max(np.abs(traj.frames[-1].components - ref.wigner(
            orb.packets(0.4), frame.dequantizer, g.q, g.p))))
    assert errs[0] < 1e-5
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_span_metrics_busy_self_and_nesting():
    rec = spans.Recorder()
    rec.phase = "loop"
    rec.job = 0
    with rec.span("vector_portrait.to_vector"):
        with rec.span("phase_space.radon_slices", {"rays": 6}):
            pass
    with rec.span("states.gaussian_packet"):
        with rec.span("states.normalize_field"):
            pass
    m = spans.per_layer_metrics(rec, n_jobs=2, overhead_ratio=1.0, bytes_written=0.0)
    outer, inner = rec.spans[0], rec.spans[1]
    d_outer = outer["end"] - outer["start"]
    d_inner = inner["end"] - inner["start"]
    assert m["vector_portrait.to_vector.calls"] == 0.5
    assert m["phase_space.radon_slices.rays"] == 3
    assert np.isclose(m["vector_portrait.to_vector.self_s"], (d_outer - d_inner) / 2)
    states_outer = rec.spans[2]
    assert np.isclose(m["states.busy_s"], (states_outer["end"] - states_outer["start"]) / 2)


def test_instrumented_wraps_internal_lookups_and_restores_them():
    import spintomo.cli
    import spintomo.phase_space
    import spintomo.vector_portrait as vp

    radon, to_vector = spintomo.phase_space.radon_slices, vp.to_vector
    with spans.instrumented(spans.Recorder()):
        assert vp.radon_slices is not radon
        assert spintomo.cli.to_vector is vp.to_vector is not to_vector
    assert vp.radon_slices is spintomo.phase_space.radon_slices is radon
    assert spintomo.cli.to_vector is vp.to_vector is to_vector


def test_benchmark_json_lists_what_run_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import run

    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert bench["paths"] == ["perfbench"]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(
        ("tomography", "dynamics", "cli-suite"))


@pytest.mark.parametrize("name", ["tomography", "dynamics"])
def test_same_seed_gives_same_inputs(name):
    import workloads

    a, b = workloads.make(name, 5, HERE), workloads.make(name, 5, HERE)
    c = workloads.make(name, 6, HERE)
    for wl in (a, b, c):
        wl.setup()
    ja, jb, jc = (repr(wl.job(3)) for wl in (a, b, c))
    assert ja == jb != jc
