import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spintomo
from spintomo import (
    EMFieldConfig,
    PropagatorConfig,
    SpinorDensity,
    StateSpec,
    build_spin1_frame,
    evolve_oracle,
    evolve_wigner_vector,
    residual_convergence,
    spin_coherent_state,
    to_vector,
)
from spintomo.cli import load_config, main
from spintomo.errors import ConfigError
from spintomo.grids import tidy_columns, write_csv


def read_report(out_dir):
    return json.loads((Path(out_dir) / "report.json").read_text())


def run_python(*args):
    """A fresh interpreter that imports this checkout's spintomo."""
    src = str(Path(spintomo.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = load_config({}, "precess")
        assert cfg["run"]["periods"] == 10.0
        assert cfg["field"]["b"] == [1.0, 0.0, 0.0]

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            load_config({"bogus": 1}, "precess")

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="run.extra"):
            load_config({"run": {"extra": 2}}, "precess")

    def test_scenario_mismatch(self):
        with pytest.raises(ConfigError, match="scenario"):
            load_config({"scenario": "precess"}, "roundtrip")

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError, match="grid.length"):
            load_config({"grid": {"length": float("nan")}}, "precess")


class TestScenarios:
    def test_audit_frame(self, tmp_path):
        rc = main(["audit-frame", "--out", str(tmp_path / "o")])
        assert rc == 0
        rep = read_report(tmp_path / "o")
        assert rep["pass"] is True
        assert rep["measurements"]["duality_residual"] < 1e-12
        assert (tmp_path / "o" / "frame.json").exists()
        assert (tmp_path / "o" / "quantizer_diff.csv").exists()

    def test_audit_random_frame(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {"frame": "random", "spin": 0.5}}))
        rc = main(["audit-frame", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--seed", "3"])
        assert rc == 0

    def test_precess(self, tmp_path):
        rc = main(["precess", "--out", str(tmp_path / "o")])
        assert rc == 0
        rep = read_report(tmp_path / "o")
        assert rep["measurements"]["freq_rel_err"] < 1e-6
        assert rep["measurements"]["s_matrix_vs_oracle"] < 1e-8
        weights = (tmp_path / "o" / "precess_weights.csv").read_text().splitlines()
        assert weights[0] == "t,series,value"

    def test_wavepacket(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"n": 64},
            "run": {"t_final": 1.0, "n_steps": 10000, "save_every": 2500}}))
        rc = main(["wavepacket", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        rep = read_report(tmp_path / "o")
        assert rep["gates"]["energy_rel_drift"]["pass"]
        assert (tmp_path / "o" / "conserved.csv").exists()
        assert (tmp_path / "o" / "norm_sums.csv").exists()

    def test_roundtrip_wigner_only(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {"route": "wigner"}}))
        rc = main(["roundtrip", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        rep = read_report(tmp_path / "o")
        assert rep["measurements"]["wigner_block_err"] < 1e-10

    def test_residual_single_representation(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"n": 64},
            "run": {"representations": ["wigner"], "n_frames": 4,
                    "dt_frame": 0.04, "substeps": 6}}))
        rc = main(["residual", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        rep = read_report(tmp_path / "o")
        assert 3.0 <= rep["measurements"]["wigner"]["ratio_max"] <= 5.0
        assert (tmp_path / "o" / "residual_convergence.csv").exists()

    def test_residual_field_mass(self, tmp_path):
        # the optical and Husimi drifts carry the field's mass, not the grid's
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"field": {"m": 2.0},
                                   "run": {"representations": ["optical", "husimi"]}}))
        assert main(["residual", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        rep = read_report(tmp_path / "o")
        for name in ("optical", "husimi"):
            assert 3.0 <= rep["measurements"][name]["ratio_max"] <= 5.0

    def test_residual_grid_section_sets_the_grid(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n": 64, "length": 20.0},
                                   "run": {"representations": ["wigner"], "n_frames": 3,
                                           "substeps": 2}}))
        assert main(["residual", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        rep = read_report(tmp_path / "o")
        fld = EMFieldConfig(phi=(0.0, 0.2, 0.5), b_field=[0.4, 0.3, 0.5], kappa=0.8)
        spec = StateSpec(spin_direction=(1, 0, 0), q0=0.8, p0=0.5)
        direct = residual_convergence("wigner", fld, build_spin1_frame(), spec, n=64,
                                      length=20.0, n_frames=3, substeps=2)
        assert rep["measurements"]["wigner"]["coarse_max"] == direct.coarse.max_residual
        assert "n" not in rep["config"]["run"] and "length" not in rep["config"]["run"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"run": {"n": 64}}))
        assert main(["residual", "--config", str(bad), "--out", str(tmp_path / "b")]) == 2

    def test_exit_codes_contract(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["precess", "--config", str(bad), "--out", str(tmp_path / "o1")]) == 2
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"run": {"nope": 1}}))
        assert main(["precess", "--config", str(unknown), "--out", str(tmp_path / "o2")]) == 2
        # an unreachable tolerance forces a physics-gate failure
        impossible = tmp_path / "imp.json"
        impossible.write_text(json.dumps({"tolerances": {"freq_rel_err": 1e-30}}))
        assert main(["precess", "--config", str(impossible), "--out", str(tmp_path / "o3")]) == 1
        rep = read_report(tmp_path / "o3")
        assert rep["first_failed_gate"] == "freq_rel_err"

    @pytest.mark.parametrize("scenario, raw, path", [
        ("precess", {"seed": "abc"}, "seed"),
        ("precess", {"field": {"b": [1.0, 0.0]}}, "field.b"),
        ("wavepacket", {"run": {"scheme": "euler"}}, "run.scheme"),
        ("roundtrip", {"grid": {"n": 100}}, "grid.n"),
        ("precess", {"field": {"s": 0.5}}, "field.s"),
        ("wavepacket", {"state": {"spin_m": 0.5}}, "state.spin_m"),
        ("roundtrip", {"run": {"route": "neither"}}, "run.route"),
        ("residual", {"run": {"representations": ["wigner", "radon"]}}, "run.representations"),
        ("audit-frame", {"run": {"frame": "random", "spin": 0.3}}, "run.spin"),
        ("wavepacket", {"state": {"spin_direction": [0, 0, 0]}}, "state.spin_direction"),
        ("roundtrip", {"state": {"spin_direction": [0, 0, 0]}}, "state.spin_direction"),
        ("wavepacket", {"grid": {"hbar": 0.0}}, "grid.hbar"),
        ("residual", {"grid": {"mass": -1.0}}, "grid.mass"),
        ("precess", {"grid": {"omega": 0}}, "grid.omega"),
        ("wavepacket", {"field": {"m": 0}}, "field.m"),
        ("wavepacket", {"field": {"c": -1.0}}, "field.c"),
        ("wavepacket", {"run": {"n_steps": 0}}, "run.n_steps"),
        ("wavepacket", {"run": {"save_every": 0}}, "run.save_every"),
        ("wavepacket", {"run": {"t_final": -1.0}}, "run.t_final"),
        ("precess", {"run": {"periods": 0}}, "run.periods"),
        ("precess", {"run": {"samples_per_period": -64}}, "run.samples_per_period"),
        ("precess", {"run": {"periods": 0.01}}, "run.samples_per_period"),
        ("roundtrip", {"run": {"rank": 0}}, "run.rank"),
        ("roundtrip", {"run": {"n_theta": 8}}, "run.n_theta"),
        ("roundtrip", {"run": {"route": "optical", "n_theta": 15}}, "run.n_theta"),
        ("residual", {"run": {"n_theta": 1}}, "run.n_theta"),
        ("residual", {"run": {"n_frames": 2}}, "run.n_frames"),
        ("residual", {"run": {"substeps": 0}}, "run.substeps"),
        ("residual", {"run": {"n_mu": 2}}, "run.n_mu"),
        ("residual", {"run": {"dt_frame": 0.0}}, "run.dt_frame"),
        ("roundtrip", {"seed": -1}, "seed"),
        ("audit-frame", {"seed": -3, "run": {"frame": "random"}}, "seed"),
        ("precess", [], "config"),
        ("wavepacket", 3, "config"),
        ("roundtrip", "x", "config"),
        ("audit-frame", None, "config"),
        ("wavepacket", {"run": {"n_steps": 10.5}}, "run.n_steps"),
        ("roundtrip", {"run": {"rank": 1.7}}, "run.rank"),
        ("residual", {"run": {"n_theta": 64.5}}, "run.n_theta"),
        ("audit-frame", {"grid": {"n": 64}}, "grid"),
        ("precess", {"state": {"q0": 1.0}}, "state.q0"),
        ("precess", {"field": {"phi": [0.0, 0.0, 0.5]}}, "field.phi"),
        ("roundtrip", {"field": {"b": [0, 0, 5]}}, "field"),
        ("wavepacket", {"field": {"s": 1.0}}, "field.s"),
        ("residual", {"field": {"s": 1.0}}, "field.s"),
        ("residual", {"run": {"representations": "all"}}, "run.representations"),
        ("audit-frame", {"run": {"spin": 0.5}}, "run.spin"),
        ("precess", {"field": {"b": [0, 0, 0]}}, "field.b"),
        ("residual", {"state": {"sigma": 0}}, "state.sigma"),
        ("roundtrip", {"state": {"sigma": -1.0}}, "state.sigma"),
        ("precess", {"field": {"kappa": 0}}, "field.kappa"),
        ("precess", {"grid": {"hbar": 1e-320}}, "grid.hbar"),
        ("roundtrip", {"run": {"route": "wigner", "optical_n": 512}, "state": {"q0": 3.0}},
         "state.q0"),
        ("roundtrip", {"run": {"route": "wigner", "n_theta": 64}}, "run.n_theta"),
        ("roundtrip", {"run": {"route": "optical", "rank": 3}}, "run.rank"),
        ("roundtrip", {"run": {"route": "optical"}, "grid": {"n": 64}}, "grid.n"),
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, scenario, raw, path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main([scenario, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {path}:" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_optical_fidelity_above_one_exits_1(self, tmp_path, monkeypatch):
        # the optical gate reads |1 - F|: an overlap above 1 fails as one below it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {"route": "optical"}}))
        monkeypatch.setattr(spintomo.cli, "fidelity_with_pure", lambda rho, psi: 1.01)
        assert main(["roundtrip", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        gate = read_report(tmp_path / "o")["gates"]["optical_infidelity"]
        assert gate["value"] == pytest.approx(0.01) and not gate["pass"]

    def test_unsupported_state_exits_2(self, tmp_path, capsys):
        # the packet holds 3e-7 of its weight above the 128 levels that the
        # optical inversion resolves at optical_n = 256 and 128 angles
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"mass": 4.0}, "state": {"q0": 3.0, "p0": 2.0},
                                   "run": {"route": "optical"}}))
        assert main(["roundtrip", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "unexplained" in err and "Traceback" not in err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_grid_too_small_for_the_state_exits_2(self, tmp_path, capsys):
        # on n = 64 the rank-2 state's coherence at half-box separation leaves
        # an imaginary residue of 3.2e-8, which the real Wigner map drops
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n": 64}, "run": {"route": "wigner"}}))
        argv = ["roundtrip", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "n = 64" in err and "3.23e-08" in err and "Traceback" not in err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_default_roundtrip_passes_byte_identically(self, tmp_path):
        for copy in ("a", "b"):
            assert main(["roundtrip", "--out", str(tmp_path / copy), "--seed", "0"]) == 0
        assert ((tmp_path / "a" / "report.json").read_bytes()
                == (tmp_path / "b" / "report.json").read_bytes())

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--tolerance-scale", "nan"), ("--tolerance-scale", "inf"),
        ("--tolerance-scale", "0"), ("--tolerance-scale", "-1")])
    def test_malformed_flag_exits_2(self, tmp_path, capsys, flag, value):
        # unchecked, inf would pass every gate and nan, 0 or -1 fail them as physics
        assert main(["roundtrip", "--out", str(tmp_path / "o"), flag, value]) == 2
        name = "seed" if flag == "--seed" else flag
        assert f"config error: {name}:" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_csv_cells_read_back_as_numbers(self, tmp_path):
        wave = tmp_path / "wave.json"
        wave.write_text(json.dumps({
            "grid": {"n": 64}, "run": {"t_final": 0.1, "n_steps": 20, "save_every": 10}}))
        residual = tmp_path / "residual.json"
        residual.write_text(json.dumps({
            "grid": {"n": 64},
            "run": {"representations": ["wigner"], "n_frames": 3, "substeps": 2}}))
        for argv in (["audit-frame"], ["precess"], ["wavepacket", "--config", str(wave)],
                     ["residual", "--config", str(residual)]):
            main(argv + ["--out", str(tmp_path / "out" / argv[0])])
        tables = sorted((tmp_path / "out").rglob("*.csv"))
        assert sorted(t.name for t in tables) == [
            "conserved.csv", "norm_sums.csv", "precess_weights.csv", "quantizer_diff.csv",
            "residual_convergence.csv"]
        for table in tables:
            header, *rows = table.read_text().splitlines()
            names = header.split(",")
            assert rows, table.name
            for row in rows:
                for name, cell in zip(names, row.split(","), strict=True):
                    if name not in ("slot", "series", "representation"):
                        float(cell)

    def test_negative_moment_precesses_at_the_same_rate(self, tmp_path):
        omegas = []
        for kappa in (1.0, -1.0):
            cfg = tmp_path / f"kappa{kappa}.json"
            cfg.write_text(json.dumps({"field": {"kappa": kappa}}))
            out = tmp_path / f"o{kappa}"
            assert main(["precess", "--config", str(cfg), "--out", str(out)]) == 0
            omegas.append(read_report(out)["measurements"]["omega_expected"])
        assert omegas[0] == omegas[1] == 1.0

    def test_tolerance_scale_loosens_gate(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {"freq_rel_err": 1e-12}}))
        assert main(["precess", "--config", str(cfg), "--out", str(tmp_path / "o1")]) == 1
        assert main(["precess", "--config", str(cfg), "--out", str(tmp_path / "o2"),
                     "--tolerance-scale", "1e6"]) == 0

    def test_reports_byte_identical(self, tmp_path):
        main(["precess", "--out", str(tmp_path / "a"), "--seed", "7"])
        main(["precess", "--out", str(tmp_path / "b"), "--seed", "7"])
        assert ((tmp_path / "a" / "report.json").read_bytes()
                == (tmp_path / "b" / "report.json").read_bytes())
        assert ((tmp_path / "a" / "precess_weights.csv").read_bytes()
                == (tmp_path / "b" / "precess_weights.csv").read_bytes())

    def test_import_leaves_scipy_out(self):
        # scipy is imported by the functions that use it: at module level
        # scipy.linalg alone costs every run 0.28 s
        proc = run_python("-c", "import sys, spintomo; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_module_entry_point(self, tmp_path):
        proc = run_python("-m", "spintomo.cli", "audit-frame", "--out", str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        assert read_report(tmp_path / "o")["pass"]


@pytest.fixture(scope="module")
def trajectories(frame, grid64):
    fld = EMFieldConfig(phi=(0, 0, 0.5), b_field=[0, 0, 1.0], kappa=1.0, spin=1.0)
    rho0 = SpinorDensity.from_pure(spin_coherent_state(grid64, [1, 0, 0]), grid64)
    v0 = to_vector(rho0, frame, "wigner")
    vec = evolve_wigner_vector(v0, fld, PropagatorConfig(
        dt=0.05, n_steps=8, scheme="wigner-spectral", save_every=2))
    orc = evolve_oracle(rho0, fld, PropagatorConfig(dt=0.05, n_steps=8, save_every=2))
    return vec, orc


class TestEmitPlotData:
    """Plot data the CLI emits from trajectories."""

    def test_component_integrals_constant_under_bz(self, trajectories):
        # the three z-axis weights are stationary for a field along z
        vec, _ = trajectories
        series = np.stack([f.component_integrals() for f in vec.frames])
        assert np.max(np.abs(series[:, :3] - series[0, :3])) < 1e-9
        assert series[:, 3].max() - series[:, 3].min() > 1e-3

    def test_conserved_oracle(self, trajectories, tmp_path):
        _, orc = trajectories
        write_csv(tmp_path / "c.csv",
                  tidy_columns(orc.times, {"trace": orc.traces, "energy": orc.energies}))
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines[0] == "t,series,value"
        assert [row.split(",")[1] for row in lines[1:]] == ["trace", "energy"] * 5
        energies = [float(l.split(",")[2]) for l in lines[1:] if ",energy," in l]
        assert len(energies) == 5
        assert max(energies) - min(energies) < 1e-3 * abs(energies[0])
