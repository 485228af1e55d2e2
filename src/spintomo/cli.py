"""Scenario runner: frame audits, precession runs, wavepacket simulations,
round-trip checks, and residual-convergence studies.

Each run reads one JSON config, writes report.json plus plot-ready CSV tables
into the output directory, and exits 0 only if every enabled gate passes
(1: physics gate failure, 2: config error).  Reports carry no timestamps, so
identical configs and seeds produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from .dynamics import (
    ORACLE_SCHEMES,
    EMFieldConfig,
    PropagatorConfig,
    conserved_columns,
    evolve_oracle,
    fit_precession_frequency,
    spin_coupling_matrix,
)
from .errors import ConfigError
from .grids import PhaseSpaceGrid, TomogramDomain, write_csv
from .phase_space import MIN_ANGLES
from .residuals import StateSpec, residual_convergence
from .spin_frames import (
    build_spin1_frame,
    paper_quantizer_comparison,
    projection_values,
    random_frame,
    spin_eigenvector,
)
from .states import random_band_limited_state, spin_coherent_state, spinor_product_state
from .vector_portrait import (
    VECTOR_REPRESENTATIONS,
    SpinorDensity,
    audit,
    fidelity_with_pure,
    from_vector,
    to_vector,
)

SCENARIOS = ("audit-frame", "precess", "wavepacket", "roundtrip", "residual")

# length <= 0 selects the balanced grid (dp = m*omega*dq)
_GRID_DEFAULTS = {"n": 128, "length": 0.0, "hbar": 1.0, "mass": 1.0, "omega": 1.0}
_FIELD_DEFAULTS = {
    "phi": [0.0, 0.0, 0.0], "a_long": 0.0, "b": [0.0, 0.0, 0.0],
    "e": 1.0, "c": 1.0, "kappa": 1.0, "m": 1.0, "s": 1.0,
}
_STATE_DEFAULTS = {
    "spin_direction": [0.0, 0.0, 1.0], "spin_m": 1.0,
    "q0": 0.0, "p0": 0.0, "sigma": 1.0,
}
_RUN_DEFAULTS = {
    "audit-frame": {"frame": "paper", "spin": 1.0},
    "precess": {"periods": 10.0, "samples_per_period": 64},
    "wavepacket": {"t_final": 6.2832, "n_steps": 25000, "save_every": 2500,
                   "scheme": "split-step-strang"},
    "roundtrip": {"route": "both", "rank": 2, "n_theta": 128, "optical_n": 256},
    "residual": {"representations": ["wigner", "optical", "symplectic-section", "husimi"],
                 "n_theta": 64, "n_mu": 5, "n_nu": 5,
                 "n_frames": 5, "dt_frame": 0.04, "substeps": 8},
}
_TOL_DEFAULTS = {
    "audit-frame": {"duality": 1e-12, "completeness": 1e-12, "projectors": 1e-12},
    "precess": {"freq_rel_err": 1e-6, "s_matrix_vs_oracle": 1e-8},
    "wavepacket": {"trace_drift": 1e-10, "energy_rel_drift": 1e-8, "norm_sum_dev": 1e-8},
    "roundtrip": {"wigner_block_err": 1e-10, "optical_infidelity": 1e-3},
    "residual": {"ratio_window": 1.0},
}


_CHOICES = {"scheme": ORACLE_SCHEMES, "frame": ("paper", "random"),
            "route": ("wigner", "optical", "both")}
_GRID_SIZES = ("grid.n", "run.optical_n")
# least counts the scenarios step, mix or sample with; central differences in
# time, mu and nu need three samples, in theta two (run.n_theta is checked
# with the route)
_MINIMA = {"run.n_steps": 1, "run.save_every": 1, "run.rank": 1, "run.substeps": 1,
           "run.n_frames": 3, "run.n_mu": 3, "run.n_nu": 3}
# scales and durations the scenarios divide by or sample over
_POSITIVE = ("grid.hbar", "grid.mass", "grid.omega", "field.m", "field.c", "run.t_final",
             "run.periods", "run.samples_per_period", "run.dt_frame")


def _is_finite_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool) and bool(np.isfinite(val))


def _merge_section(user: dict, defaults: dict, path: str) -> dict:
    """Defaults overlaid with user values of the same type: finite numbers,
    numeric vectors of the default's length, strings."""
    if not isinstance(user, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in user:
        if key not in defaults:
            raise ConfigError(f"{path}.{key}: unknown key")
    merged = dict(defaults)
    merged.update(user)
    for key, val in merged.items():
        ref = defaults[key]
        if _is_finite_number(ref) and not _is_finite_number(val):
            raise ConfigError(f"{path}.{key}: expected a finite number, got {val!r}")
        if isinstance(ref, list) and all(map(_is_finite_number, ref)) and not (
                isinstance(val, list) and len(val) == len(ref)
                and all(map(_is_finite_number, val))):
            raise ConfigError(
                f"{path}.{key}: expected a list of {len(ref)} finite numbers, got {val!r}")
        if isinstance(ref, str) and not isinstance(val, str):
            raise ConfigError(f"{path}.{key}: expected a string, got {val!r}")
    return merged


def _present(cfg: dict, paths: tuple) -> list:
    """(path, value) for each "section.key" path the config holds."""
    pairs = [(where, where.split(".")) for where in paths]
    return [(where, cfg[sec][key]) for where, (sec, key) in pairs if key in cfg[sec]]


def _check_values(cfg: dict) -> None:
    """Enums, grid sizes, counts, scales and spin values that the scenarios
    would otherwise reject with a traceback."""
    run = cfg["run"]
    for key, allowed in _CHOICES.items():
        if key in run and run[key] not in allowed:
            raise ConfigError(f"run.{key}: expected one of {list(allowed)}, got {run[key]!r}")
    reps = run.get("representations", "all")
    if reps != "all" and not (isinstance(reps, list) and reps
                              and all(r in VECTOR_REPRESENTATIONS for r in reps)):
        raise ConfigError(f"run.representations: expected \"all\" or a non-empty list "
                          f"of {list(VECTOR_REPRESENTATIONS)}, got {reps!r}")
    for where, n in _present(cfg, _GRID_SIZES):
        if not isinstance(n, int) or isinstance(n, bool):
            raise ConfigError(f"{where}: expected an integer, got {n!r}")
        try:
            PhaseSpaceGrid.balanced(n)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    minima = {**_MINIMA, "run.n_theta": 2}
    if run.get("route") in ("optical", "both"):
        minima["run.n_theta"] = MIN_ANGLES         # filtered back-projection
    for where, val in _present(cfg, tuple(minima)):
        if val < minima[where]:
            raise ConfigError(f"{where}: expected at least {minima[where]}, got {val!r}")
    for where, val in _present(cfg, _POSITIVE):
        if val <= 0:
            raise ConfigError(f"{where}: expected a positive number, got {val!r}")
    if cfg["scenario"] == "precess" and run["periods"] * run["samples_per_period"] < 1:
        raise ConfigError("run.samples_per_period: periods * samples_per_period must be "
                          "at least 1, so that the run has two samples")
    if not np.any(cfg["state"]["spin_direction"]):
        raise ConfigError("state.spin_direction: expected a nonzero vector")
    if cfg["scenario"] == "audit-frame":
        try:
            projection_values(run["spin"])
        except ValueError as exc:
            raise ConfigError(f"run.spin: {exc}") from exc
    s, m = cfg["field"]["s"], cfg["state"]["spin_m"]
    if s != 1.0:
        raise ConfigError(f"field.s: the scenarios use the spin-1 frame, got {s!r}")
    allowed_m = projection_values(s)
    if not np.any(np.abs(allowed_m - m) < 1e-9):
        raise ConfigError(
            f"state.spin_m: expected one of {allowed_m.tolist()} for s={s:g}, got {m!r}")


# scenario-specific default overrides (a precession run needs a field)
_FIELD_SCENARIO = {"precess": {"b": [1.0, 0.0, 0.0]},
                   "wavepacket": {"phi": [0.0, 0.0, 0.5]},
                   "residual": {"phi": [0.0, 0.2, 0.5], "b": [0.4, 0.3, 0.5], "kappa": 0.8}}
_STATE_SCENARIO = {"roundtrip": {"spin_direction": [1.0, 1.0, 1.0], "q0": 0.5, "p0": 0.3},
                   "residual": {"spin_direction": [1.0, 0.0, 0.0], "q0": 0.8, "p0": 0.5}}


def load_config(raw: dict, scenario: str) -> dict:
    top_keys = {"scenario", "seed", "grid", "field", "state", "run", "tolerances"}
    for key in raw:
        if key not in top_keys:
            raise ConfigError(f"{key}: unknown key")
    if "scenario" in raw and raw["scenario"] != scenario:
        raise ConfigError(
            f"scenario: config says {raw['scenario']!r} but subcommand is {scenario!r}")
    field_defaults = {**_FIELD_DEFAULTS, **_FIELD_SCENARIO.get(scenario, {})}
    state_defaults = {**_STATE_DEFAULTS, **_STATE_SCENARIO.get(scenario, {})}
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed: expected an integer, got {seed!r}")
    cfg = {
        "scenario": scenario,
        "seed": seed,
        "grid": _merge_section(raw.get("grid", {}), _GRID_DEFAULTS, "grid"),
        "field": _merge_section(raw.get("field", {}), field_defaults, "field"),
        "state": _merge_section(raw.get("state", {}), state_defaults, "state"),
        "run": _merge_section(raw.get("run", {}), _RUN_DEFAULTS[scenario], "run"),
        "tolerances": _merge_section(raw.get("tolerances", {}), _TOL_DEFAULTS[scenario],
                                     "tolerances"),
    }
    _check_values(cfg)
    return cfg


def _grid_from(cfg: dict, n_override: int | None = None) -> PhaseSpaceGrid:
    g = cfg["grid"]
    n = int(n_override if n_override is not None else g["n"])
    if float(g["length"]) <= 0.0:
        return PhaseSpaceGrid.balanced(n, float(g["hbar"]), float(g["mass"]),
                                       float(g["omega"]))
    return PhaseSpaceGrid.centered(n, float(g["length"]), float(g["hbar"]),
                                   float(g["mass"]), float(g["omega"]))


def _field_from(cfg: dict) -> EMFieldConfig:
    f = cfg["field"]
    return EMFieldConfig(phi=tuple(f["phi"]), a_long=float(f["a_long"]),
                         b_field=np.asarray(f["b"], dtype=float), e=float(f["e"]),
                         c_light=float(f["c"]), kappa=float(f["kappa"]),
                         mass=float(f["m"]), spin=float(f["s"]))


def _gate(value: float, threshold: float, scale: float) -> dict:
    thr = threshold * scale
    return {"value": float(value), "threshold": float(thr), "pass": bool(value <= thr)}


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _run_audit_frame(cfg: dict, out: Path, scale: float) -> dict:
    run = cfg["run"]
    if run["frame"] == "paper":
        frame = build_spin1_frame()
    else:
        frame = random_frame(float(run["spin"]), cfg["seed"])
    tol = cfg["tolerances"]
    proj = frame.projector_residuals()
    gram_det = float(np.linalg.det(frame.gram))
    gram_cond = float(np.linalg.cond(frame.gram))
    measurements = {
        "duality_residual": frame.duality_residual(),
        "completeness_residual": frame.completeness_residual(),
        "projector_residuals": proj,
        "gram_determinant": gram_det,
        "gram_condition": gram_cond,
    }
    gates = {
        "duality": _gate(measurements["duality_residual"], tol["duality"], scale),
        "completeness": _gate(measurements["completeness_residual"], tol["completeness"], scale),
        "projectors": _gate(max(proj.values()), tol["projectors"], scale),
    }
    (out / "frame.json").write_text(frame.to_json())
    if run["frame"] == "paper":
        entries = paper_quantizer_comparison(frame)
        slot, component = np.meshgrid([e["slot"] for e in entries], np.arange(1, 10),
                                      indexing="ij")
        rc = np.array([e["recomputed"] for e in entries]).ravel()
        pr = np.array([e["printed"] for e in entries]).ravel()
        diff = rc - pr
        write_csv(out / "quantizer_diff.csv", {
            "slot": slot.ravel(), "component": component.ravel(),
            "re_recomputed": rc.real, "im_recomputed": rc.imag,
            "re_printed": pr.real, "im_printed": pr.imag,
            # hypot gives abs() of each complex scalar to the last bit; np.abs
            # of a complex array can differ in it
            "abs_diff": np.hypot(diff.real, diff.imag)})
        measurements["paper_quantizer_max_diffs"] = {
            e["slot"]: e["max_abs_diff"] for e in entries}
    return {"measurements": measurements, "gates": gates}


def _run_precess(cfg: dict, out: Path, scale: float) -> dict:
    field = _field_from(cfg)
    hbar = float(cfg["grid"]["hbar"])
    tol = cfg["tolerances"]
    run = cfg["run"]
    frame = build_spin1_frame()
    b_norm = float(np.linalg.norm(field.b_field))
    if b_norm == 0.0:
        raise ConfigError("field.b: precession needs a nonzero magnetic field")
    omega_expected = field.kappa * b_norm / (field.spin * hbar)
    period = 2.0 * np.pi / omega_expected
    n_samples = int(run["periods"] * run["samples_per_period"]) + 1
    times = np.linspace(0.0, run["periods"] * period, n_samples)

    direction = np.asarray(cfg["state"]["spin_direction"], dtype=float)
    chi = spin_eigenvector(field.spin, direction / np.linalg.norm(direction),
                           float(cfg["state"]["spin_m"]))
    rho0 = np.outer(chi, chi.conj())

    h_s = field.zeeman_matrix()
    evals, evecs = np.linalg.eigh(h_s)
    weights = np.empty((n_samples, frame.size))
    for i, t in enumerate(times):
        u = (evecs * np.exp(-1j * evals * t / hbar)) @ evecs.conj().T
        weights[i] = frame.weights(u @ rho0 @ u.conj().T).real

    s_mat = spin_coupling_matrix(frame, field.b_field, field.kappa, field.spin, hbar)
    w0 = weights[0]
    s_weights = np.stack([expm(s_mat * t) @ w0 for t in times])
    s_err = float(np.max(np.abs(s_weights - weights)))

    spans = weights.max(axis=0) - weights.min(axis=0)
    series = weights[:, int(np.argmax(spans))]
    omega_fit = fit_precession_frequency(times, series)
    rel_err = abs(omega_fit - omega_expected) / omega_expected

    t, series = np.meshgrid(times, [f"w{j + 1}" for j in range(frame.size)], indexing="ij")
    write_csv(out / "precess_weights.csv",
              {"t": t.ravel(), "series": series.ravel(), "value": weights.ravel()})

    measurements = {
        "omega_expected": omega_expected,
        "omega_fitted": omega_fit,
        "freq_rel_err": rel_err,
        "s_matrix_vs_oracle": s_err,
        "fitted_series": int(np.argmax(spans)) + 1,
    }
    gates = {
        "freq_rel_err": _gate(rel_err, tol["freq_rel_err"], scale),
        "s_matrix_vs_oracle": _gate(s_err, tol["s_matrix_vs_oracle"], scale),
    }
    return {"measurements": measurements, "gates": gates}


def _run_wavepacket(cfg: dict, out: Path, scale: float) -> dict:
    grid = _grid_from(cfg)
    field = _field_from(cfg)
    tol = cfg["tolerances"]
    run = cfg["run"]
    rho0 = StateSpec(**cfg["state"]).build(grid, field.spin)
    dt = run["t_final"] / run["n_steps"]
    prop = PropagatorConfig(dt=dt, n_steps=int(run["n_steps"]),
                            scheme=run["scheme"], save_every=int(run["save_every"]))
    traj = evolve_oracle(rho0, field, prop)
    frame = build_spin1_frame()
    norm_sums = np.array([
        to_vector(s, frame, "wigner").normalization_sum() for s in traj.states
    ])

    write_csv(out / "conserved.csv", conserved_columns(traj))
    write_csv(out / "norm_sums.csv", {"t": traj.times, "series": ["norm_sum"] * len(norm_sums),
                                      "value": norm_sums})

    trace_drift = float(np.max(np.abs(traj.traces - 1.0)))
    e0 = traj.energies[0]
    energy_drift = float(np.max(np.abs(traj.energies - e0)) / max(1e-30, abs(e0)))
    norm_dev = float(np.max(np.abs(norm_sums - 1.0)))
    measurements = {
        "trace_drift": trace_drift,
        "energy_rel_drift": energy_drift,
        "norm_sum_dev": norm_dev,
        "final_time": float(traj.times[-1]),
    }
    gates = {
        "trace_drift": _gate(trace_drift, tol["trace_drift"], scale),
        "energy_rel_drift": _gate(energy_drift, tol["energy_rel_drift"], scale),
        "norm_sum_dev": _gate(norm_dev, tol["norm_sum_dev"], scale),
    }
    return {"measurements": measurements, "gates": gates}


def _run_roundtrip(cfg: dict, out: Path, scale: float) -> dict:
    tol = cfg["tolerances"]
    run = cfg["run"]
    frame = build_spin1_frame()
    rng = np.random.default_rng(cfg["seed"])
    measurements = {}
    gates = {}

    if run["route"] in ("wigner", "both"):
        grid = _grid_from(cfg)
        rank = int(run["rank"])
        probs = rng.dirichlet(np.ones(rank))
        psis = []
        for _ in range(rank):
            chi = rng.normal(size=3) + 1j * rng.normal(size=3)
            psis.append(spinor_product_state(grid, chi, random_band_limited_state(grid, rng)))
        rho = SpinorDensity.from_mixture(probs, psis, grid)
        v = to_vector(rho, frame, "wigner")
        rho_back = from_vector(v, frame)
        err = float(np.max(np.abs(rho.blocks - rho_back.blocks)))
        measurements["wigner_block_err"] = err
        measurements["wigner_audit"] = audit(v).as_dict()
        gates["wigner_block_err"] = _gate(err, tol["wigner_block_err"], scale)

    if run["route"] in ("optical", "both"):
        grid_o = _grid_from(cfg, n_override=int(run["optical_n"]))
        st = cfg["state"]
        psi = spin_coherent_state(grid_o, st["spin_direction"], 1.0, st["spin_m"],
                                  st["q0"], st["p0"], st["sigma"])
        rho = SpinorDensity.from_pure(psi, grid_o)
        dom = TomogramDomain.optical_default(grid_o, int(run["n_theta"]))
        v = to_vector(rho, frame, "optical", dom)
        rho_back = from_vector(v, frame)
        fid = fidelity_with_pure(rho_back, psi)
        measurements["optical_fidelity"] = fid
        gates["optical_infidelity"] = _gate(1.0 - fid, tol["optical_infidelity"], scale)

    return {"measurements": measurements, "gates": gates}


def _run_residual(cfg: dict, out: Path, scale: float) -> dict:
    tol = cfg["tolerances"]
    run = cfg["run"]
    field = _field_from(cfg)
    frame = build_spin1_frame()
    spec = StateSpec(**cfg["state"])
    reps = run["representations"]
    if reps == "all":
        reps = ["wigner", "optical", "symplectic-section", "husimi"]
    grid = _grid_from(cfg)
    measurements = {}
    gates = {}
    for rep in reps:
        report = residual_convergence(
            rep, field, frame, spec, n=grid.n, length=grid.length,
            n_theta=int(run["n_theta"]), n_mu=int(run["n_mu"]), n_nu=int(run["n_nu"]),
            n_frames=int(run["n_frames"]), dt_frame=float(run["dt_frame"]),
            substeps=int(run["substeps"]), hbar=grid.hbar, mass=grid.mass,
            omega=grid.omega)
        measurements[rep] = {
            "coarse_max": report.coarse.max_residual,
            "fine_max": report.fine.max_residual,
            "ratio_max": report.ratio_max,
            "ratio_l2": report.ratio_l2,
            "order_max": report.order_max,
        }
        gates[f"{rep}_ratio"] = _gate(abs(report.ratio_max - 4.0), tol["ratio_window"], scale)
    columns = ("coarse_max", "fine_max", "ratio_max", "order_max")
    write_csv(out / "residual_convergence.csv", {
        "representation": reps, **{c: [measurements[r][c] for r in reps] for c in columns}})
    return {"measurements": measurements, "gates": gates}


_RUNNERS = {
    "audit-frame": _run_audit_frame,
    "precess": _run_precess,
    "wavepacket": _run_wavepacket,
    "roundtrip": _run_roundtrip,
    "residual": _run_residual,
}


def run(cfg: dict, out_dir: str | Path, tolerance_scale: float = 1.0) -> tuple[dict, int]:
    """Execute a validated config; returns (report, exit_code)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = _RUNNERS[cfg["scenario"]](cfg, out, tolerance_scale)
    passed = all(g["pass"] for g in result["gates"].values())
    first_failed = next((name for name, g in result["gates"].items() if not g["pass"]), None)
    report = {
        "scenario": cfg["scenario"],
        "seed": cfg["seed"],
        "tolerance_scale": tolerance_scale,
        "config": cfg,
        "measurements": result["measurements"],
        "gates": result["gates"],
        "first_failed_gate": first_failed,
        "pass": passed,
    }
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=1))
    return report, 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="spintomo",
                                     description="vector spin-tomography scenario runner")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file (defaults apply when omitted)")
        p.add_argument("--out", type=str, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--tolerance-scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    try:
        raw = {}
        if args.config is not None:
            try:
                raw = json.loads(Path(args.config).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        cfg = load_config(raw, args.scenario)
        if args.seed is not None:
            cfg["seed"] = int(args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        report, code = run(cfg, args.out, args.tolerance_scale)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    status = "PASS" if report["pass"] else f"FAIL ({report['first_failed_gate']})"
    print(f"{args.scenario}: {status} -> {Path(args.out) / 'report.json'}")
    return code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
