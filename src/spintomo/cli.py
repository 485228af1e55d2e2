"""Scenario runner: frame audits, precession runs, wavepacket simulations,
round-trip checks, and residual-convergence studies.

Each run reads one JSON config object, writes report.json plus plot-ready
CSV tables into the output directory, and exits 0 only if every enabled gate
passes (1: physics gate failure, 2: config error, or a state or domain that
the grid or the optical inversion cannot hold, UndersampledDomainError).  A
scenario accepts only the sections and keys it reads (the _DEFAULTS table),
each value in its default's type, and "seed".  Reports carry no timestamps,
so identical configs and seeds produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dynamics import (
    ORACLE_SCHEMES,
    EMFieldConfig,
    PropagatorConfig,
    evolve_oracle,
    fit_precession_frequency,
    spin_coupling_matrix,
)
from .errors import ConfigError, UndersampledDomainError
from .grids import PhaseSpaceGrid, TomogramDomain, tidy_columns, write_csv
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
    REALNESS_BOUND,
    VECTOR_REPRESENTATIONS,
    SpinorDensity,
    audit,
    fidelity_with_pure,
    from_vector,
    to_vector,
)

SCENARIOS = ("audit-frame", "precess", "wavepacket", "roundtrip", "residual")

# The sections and keys each scenario reads, with their defaults; a scenario
# rejects every other key.  grid.length <= 0 selects the balanced grid
# (dp = m*omega*dq).
_DEFAULTS = {
    "audit-frame": {
        "run": {"frame": "paper", "spin": 1.0},
        "tolerances": {"duality": 1e-12, "completeness": 1e-12, "projectors": 1e-12},
    },
    "precess": {
        "grid": {"hbar": 1.0},
        "field": {"b": [1.0, 0.0, 0.0], "kappa": 1.0},
        "state": {"spin_direction": [0.0, 0.0, 1.0], "spin_m": 1.0},
        "run": {"periods": 10.0, "samples_per_period": 64},
        "tolerances": {"freq_rel_err": 1e-6, "s_matrix_vs_oracle": 1e-8},
    },
    "wavepacket": {
        "grid": {"n": 128, "length": 0.0, "hbar": 1.0, "mass": 1.0, "omega": 1.0},
        "field": {"phi": [0.0, 0.0, 0.5], "a_long": 0.0, "b": [0.0, 0.0, 0.0],
                  "e": 1.0, "c": 1.0, "kappa": 1.0, "m": 1.0},
        "state": {"spin_direction": [0.0, 0.0, 1.0], "spin_m": 1.0,
                  "q0": 0.0, "p0": 0.0, "sigma": 1.0},
        "run": {"t_final": 6.2832, "n_steps": 25000, "save_every": 2500,
                "scheme": "split-step-strang"},
        "tolerances": {"trace_drift": 1e-10, "energy_rel_drift": 1e-8, "norm_sum_dev": 1e-8},
    },
    "roundtrip": {
        "grid": {"n": 128, "length": 0.0, "hbar": 1.0, "mass": 1.0, "omega": 1.0},
        "state": {"spin_direction": [1.0, 1.0, 1.0], "spin_m": 1.0,
                  "q0": 0.5, "p0": 0.3, "sigma": 1.0},
        "run": {"route": "both", "rank": 2, "n_theta": 128, "optical_n": 256},
        "tolerances": {"wigner_block_err": 1e-10, "optical_infidelity": 1e-3},
    },
    "residual": {
        "grid": {"n": 128, "length": 0.0, "hbar": 1.0, "mass": 1.0, "omega": 1.0},
        "field": {"phi": [0.0, 0.2, 0.5], "a_long": 0.0, "b": [0.4, 0.3, 0.5],
                  "e": 1.0, "c": 1.0, "kappa": 0.8, "m": 1.0},
        "state": {"spin_direction": [1.0, 0.0, 0.0], "spin_m": 1.0,
                  "q0": 0.8, "p0": 0.5, "sigma": 1.0},
        "run": {"representations": ["wigner", "optical", "symplectic-section", "husimi"],
                "n_theta": 64, "n_mu": 5, "n_nu": 5,
                "n_frames": 5, "dt_frame": 0.04, "substeps": 8},
        "tolerances": {"ratio_window": 1.0},
    },
}
# roundtrip keys that one route leaves unread; setting them is an error
_UNREAD_BY_ROUTE = {
    "wigner": tuple(f"state.{key}" for key in _DEFAULTS["roundtrip"]["state"])
    + ("run.optical_n", "run.n_theta"),
    "optical": ("grid.n", "run.rank"),
}
# field keys -> EMFieldConfig parameters; the spin is the frame's spin 1
_FIELD_PARAMS = {"phi": "phi", "a_long": "a_long", "b": "b_field", "e": "e", "c": "c_light",
                 "kappa": "kappa", "m": "mass"}


# the names each string setting takes
_CHOICES = {"run.scheme": ORACLE_SCHEMES, "run.frame": ("paper", "random"),
            "run.route": ("wigner", "optical", "both"),
            "run.representations": VECTOR_REPRESENTATIONS}
_GRID_SIZES = ("grid.n", "run.optical_n")
# least counts the scenarios step, mix or sample with; central differences in
# time, mu and nu need three samples, in theta two (run.n_theta is checked
# with the route)
_MINIMA = {"run.n_steps": 1, "run.save_every": 1, "run.rank": 1, "run.substeps": 1,
           "run.n_frames": 3, "run.n_mu": 3, "run.n_nu": 3}
# scales and durations the scenarios divide by or sample over
_POSITIVE = ("grid.hbar", "grid.mass", "grid.omega", "field.m", "field.c", "state.sigma",
             "run.t_final", "run.periods", "run.samples_per_period", "run.dt_frame")


def _is_finite_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool) and bool(np.isfinite(val))


def _typed(val, ref, where: str):
    """val in the type of its default ref: an integer default takes only an
    integer, a float default any finite number and a string default one of
    its names; a list default takes a list of such values, of its length for
    a vector and non-empty for names."""
    if isinstance(ref, list):
        vector = not isinstance(ref[0], str)
        if not isinstance(val, list) or not val or vector and len(val) != len(ref):
            shape = f"a list of {len(ref)} finite numbers" if vector else "a non-empty list"
            raise ConfigError(f"{where}: expected {shape}, got {val!r}")
        return [_typed(v, ref[0], where) for v in val]
    if isinstance(ref, str):
        expected, ok = f"one of {list(_CHOICES[where])}", val in _CHOICES[where]
    elif isinstance(ref, int):
        expected, ok = "an integer", isinstance(val, int) and not isinstance(val, bool)
    else:
        expected, ok = "a finite number", _is_finite_number(val)
    if not ok:
        raise ConfigError(f"{where}: expected {expected}, got {val!r}")
    return type(ref)(val)


def _merge_section(user, defaults: dict, path: str) -> dict:
    """Defaults overlaid with user values, each in its default's type."""
    if not isinstance(user, dict):
        raise ConfigError(f"{path}: expected an object")
    merged = dict(defaults)
    for key, val in user.items():
        if key not in defaults:
            raise ConfigError(f"{path}.{key}: unknown key")
        merged[key] = _typed(val, defaults[key], f"{path}.{key}")
    return merged


def _present(cfg: dict, paths: tuple) -> list:
    """(path, value) for each "section.key" path the scenario reads."""
    pairs = [(where, where.split(".")) for where in paths]
    return [(where, cfg[sec][key]) for where, (sec, key) in pairs if key in cfg.get(sec, ())]


def _check_values(cfg: dict) -> None:
    """Grid sizes, counts, scales and spin values that the scenarios would
    otherwise reject with a traceback."""
    run = cfg["run"]
    for where, n in _present(cfg, _GRID_SIZES):
        try:
            PhaseSpaceGrid.balanced(n)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    minima = {**_MINIMA, "run.n_theta": 2}
    if run.get("route") in ("optical", "both"):
        minima["run.n_theta"] = MIN_ANGLES         # the optical inversion
    for where, val in _present(cfg, tuple(minima)):
        if val < minima[where]:
            raise ConfigError(f"{where}: expected at least {minima[where]}, got {val!r}")
    for where, val in _present(cfg, _POSITIVE):
        if val <= 0:
            raise ConfigError(f"{where}: expected a positive number, got {val!r}")
    if cfg["scenario"] == "precess":
        if run["periods"] * run["samples_per_period"] < 1:
            raise ConfigError("run.samples_per_period: periods * samples_per_period must be "
                              "at least 1, so that the run has two samples")
        if not np.any(cfg["field"]["b"]):
            raise ConfigError("field.b: precession needs a nonzero magnetic field")
        if cfg["field"]["kappa"] == 0:
            raise ConfigError("field.kappa: precession needs a nonzero magnetic moment")
        omega = _precession_frequency(cfg["field"]["kappa"], cfg["field"]["b"],
                                      cfg["grid"]["hbar"])
        if not (np.isfinite(omega) and np.isfinite(run["periods"] * 2.0 * np.pi / omega)):
            # an overflowing frequency comes from a tiny hbar, a vanishing one
            # (infinite duration) from a tiny moment
            key = "grid.hbar" if omega > 1.0 else "field.kappa"
            raise ConfigError(
                f"{key}: the precession frequency |kappa| |b| / hbar is {omega!r} for "
                f"grid.hbar {cfg['grid']['hbar']!r}, field.kappa {cfg['field']['kappa']!r} "
                f"and field.b {cfg['field']['b']!r}; it and the run's duration must be finite")
    if cfg["scenario"] == "audit-frame":
        if run["frame"] == "paper" and run["spin"] != 1.0:
            raise ConfigError(f"run.spin: the paper frame has spin 1, got {run['spin']!r}")
        try:
            projection_values(run["spin"])
        except ValueError as exc:
            raise ConfigError(f"run.spin: {exc}") from exc
    if "state" in cfg:
        state = cfg["state"]
        if not np.any(state["spin_direction"]):
            raise ConfigError("state.spin_direction: expected a nonzero vector")
        allowed_m = projection_values(1.0)
        if not np.any(np.abs(allowed_m - state["spin_m"]) < 1e-9):
            raise ConfigError(f"state.spin_m: expected one of {allowed_m.tolist()} for the "
                              f"spin-1 frame, got {state['spin_m']!r}")


def _precession_frequency(kappa: float, b, hbar: float, spin: float = 1.0) -> float:
    """Larmor frequency |kappa| |b| / (s hbar); a negative moment precesses
    the other way round at the same rate."""
    with np.errstate(over="ignore"):
        return abs(kappa) * float(np.linalg.norm(b)) / (spin * hbar)


def _checked_seed(seed) -> int:
    """seed, if it is an integer numpy.random.default_rng accepts."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed: expected a non-negative integer, got {seed!r}")
    return seed


def load_config(raw, scenario: str) -> dict:
    """raw (parsed JSON) overlaid on the defaults of what the scenario reads."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config: expected a JSON object, got {raw!r}")
    defaults = _DEFAULTS[scenario]
    for key in raw:
        if key not in ("scenario", "seed", *defaults):
            raise ConfigError(f"{key}: unknown key")
    if "scenario" in raw and raw["scenario"] != scenario:
        raise ConfigError(
            f"scenario: config says {raw['scenario']!r} but subcommand is {scenario!r}")
    cfg = {"scenario": scenario, "seed": _checked_seed(raw.get("seed", 0))}
    for section, section_defaults in defaults.items():
        cfg[section] = _merge_section(raw.get(section, {}), section_defaults, section)
    if scenario == "roundtrip":
        route = cfg["run"]["route"]
        unread = _present(raw, _UNREAD_BY_ROUTE.get(route, ()))
        if unread:
            raise ConfigError(f"{unread[0][0]}: the {route} route does not read this key")
    _check_values(cfg)
    return cfg


def _grid_from(cfg: dict, n_override: int | None = None) -> PhaseSpaceGrid:
    g = cfg["grid"]
    n = g["n"] if n_override is None else n_override
    if g["length"] <= 0.0:
        return PhaseSpaceGrid.balanced(n, g["hbar"], g["mass"], g["omega"])
    return PhaseSpaceGrid.centered(n, g["length"], g["hbar"], g["mass"], g["omega"])


def _field_from(cfg: dict) -> EMFieldConfig:
    return EMFieldConfig(**{_FIELD_PARAMS[key]: val for key, val in cfg["field"].items()})


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
        frame = random_frame(run["spin"], cfg["seed"])
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
    from scipy.linalg import expm   # costs every import 0.28 s at module level

    field = _field_from(cfg)
    hbar = cfg["grid"]["hbar"]
    tol = cfg["tolerances"]
    run = cfg["run"]
    frame = build_spin1_frame()
    omega_expected = _precession_frequency(field.kappa, field.b_field, hbar, field.spin)
    period = 2.0 * np.pi / omega_expected
    n_samples = int(run["periods"] * run["samples_per_period"]) + 1
    times = np.linspace(0.0, run["periods"] * period, n_samples)

    direction = np.asarray(cfg["state"]["spin_direction"])
    chi = spin_eigenvector(field.spin, direction / np.linalg.norm(direction),
                           cfg["state"]["spin_m"])
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

    write_csv(out / "precess_weights.csv",
              tidy_columns(times, {f"w{j + 1}": w for j, w in enumerate(weights.T)}))

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
    prop = PropagatorConfig(dt=dt, n_steps=run["n_steps"], scheme=run["scheme"],
                            save_every=run["save_every"])
    traj = evolve_oracle(rho0, field, prop)
    frame = build_spin1_frame()
    norm_sums = np.array([
        to_vector(s, frame, "wigner").normalization_sum() for s in traj.states
    ])

    write_csv(out / "conserved.csv",
              tidy_columns(traj.times, {"trace": traj.traces, "energy": traj.energies}))
    write_csv(out / "norm_sums.csv", tidy_columns(traj.times, {"norm_sum": norm_sums}))

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
        rank = run["rank"]
        probs = rng.dirichlet(np.ones(rank))
        psis = []
        for _ in range(rank):
            chi = rng.normal(size=3) + 1j * rng.normal(size=3)
            psis.append(spinor_product_state(grid, chi, random_band_limited_state(grid, rng)))
        rho = SpinorDensity.from_mixture(probs, psis, grid)
        v = to_vector(rho, frame, "wigner")
        # the real Wigner map drops the coherence at half-box separation that
        # the residue measures: past the realness bound the grid is too small
        residue = float(np.max(v.imag_residues))
        if residue > REALNESS_BOUND:
            raise UndersampledDomainError(
                f"n = {grid.n} does not hold the roundtrip state: its largest imaginary "
                f"residue {residue:.2e} exceeds the realness bound {REALNESS_BOUND:g}")
        rho_back = from_vector(v, frame)
        err = float(np.max(np.abs(rho.blocks - rho_back.blocks)))
        measurements["wigner_block_err"] = err
        measurements["wigner_audit"] = audit(v).as_dict()
        gates["wigner_block_err"] = _gate(err, tol["wigner_block_err"], scale)

    if run["route"] in ("optical", "both"):
        grid_o = _grid_from(cfg, n_override=run["optical_n"])
        st = cfg["state"]
        psi = spin_coherent_state(grid_o, st["spin_direction"], 1.0, st["spin_m"],
                                  st["q0"], st["p0"], st["sigma"])
        rho = SpinorDensity.from_pure(psi, grid_o)
        dom = TomogramDomain.optical_default(grid_o, run["n_theta"])
        v = to_vector(rho, frame, "optical", dom)
        rho_back = from_vector(v, frame)
        fid = fidelity_with_pure(rho_back, psi)
        measurements["optical_fidelity"] = fid
        # two-sided: a reconstruction whose overlap exceeds 1 is as wrong as one below it
        gates["optical_infidelity"] = _gate(abs(1.0 - fid), tol["optical_infidelity"], scale)

    return {"measurements": measurements, "gates": gates}


def _run_residual(cfg: dict, out: Path, scale: float) -> dict:
    tol = cfg["tolerances"]
    run = cfg["run"]
    field = _field_from(cfg)
    frame = build_spin1_frame()
    spec = StateSpec(**cfg["state"])
    settings = dict(run)     # the other run keys are residual_convergence's settings
    reps = settings.pop("representations")
    grid = _grid_from(cfg)
    measurements = {}
    gates = {}
    for rep in reps:
        report = residual_convergence(
            rep, field, frame, spec, n=grid.n, length=grid.length, hbar=grid.hbar,
            mass=grid.mass, omega=grid.omega, **settings)
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
            cfg["seed"] = _checked_seed(args.seed)
        if not (np.isfinite(args.tolerance_scale) and args.tolerance_scale > 0):
            raise ConfigError(f"--tolerance-scale: expected a finite number > 0, "
                              f"got {args.tolerance_scale!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        report, code = run(cfg, args.out, args.tolerance_scale)
    except UndersampledDomainError as exc:
        # the config asked for a state or domain that the inversion refuses
        print(f"undersampled: {exc}", file=sys.stderr)
        return 2
    status = "PASS" if report["pass"] else f"FAIL ({report['first_failed_gate']})"
    print(f"{args.scenario}: {status} -> {Path(args.out) / 'report.json'}")
    return code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
