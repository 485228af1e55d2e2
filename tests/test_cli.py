import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spintomo
from spintomo import (
    EMFieldConfig,
    PhaseSpaceGrid,
    PropagatorConfig,
    SpinorDensity,
    StateSpec,
    build_spin1_frame,
    evolve_oracle,
    evolve_wigner_vector,
    random_frame,
    residual_convergence,
    spin_coherent_state,
    spin_coupling_matrix,
    spin_eigenvector,
    to_vector,
)
from spintomo import cli
from spintomo.cli import _spectrum_deviations, load_config, main
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

    @pytest.mark.parametrize("periods", [2048.0, 1e6])
    def test_precess_sample_count_capped(self, periods):
        # about 2.7 kB a sample: the cap of 2^17 samples holds about 350 MB,
        # and 1e6 periods of 64 samples asked numpy for 8.58 GiB
        with pytest.raises(ConfigError, match="run.periods"):
            load_config({"run": {"periods": periods}}, "precess")
        assert load_config({"run": {"periods": 2047.0}}, "precess")["run"]["periods"] == 2047.0

    # Gaussian packets the grid cannot hold, which the runs met with a
    # traceback ("cannot normalize the zero field", an OverflowError) or a
    # failed ratio gate; the refusal names the key that, set back alone to its
    # default, lets the packet fit
    @pytest.mark.parametrize("scenario, raw, key", [
        ("wavepacket", {"state": {"q0": 1e6}}, "state.q0"),
        ("roundtrip", {"state": {"q0": 1e6}}, "state.q0"),
        ("residual", {"state": {"q0": 1e6}}, "state.q0"),
        ("roundtrip", {"state": {"sigma": 1e-12}}, "state.sigma"),
        ("residual", {"state": {"sigma": 1e-12}}, "state.sigma"),
        ("wavepacket", {"state": {"sigma": 1e300}}, "state.sigma"),
        ("roundtrip", {"state": {"sigma": 1e300}}, "state.sigma"),
        ("roundtrip", {"grid": {"length": 1e-300}}, "grid.length"),
        ("residual", {"state": {"sigma": 3.0}}, "state.sigma"),
        ("residual", {"state": {"q0": 30.0}}, "state.q0"),
        ("roundtrip", {"run": {"route": "optical", "optical_n": 32},
                       "grid": {"hbar": 0.5}}, "run.optical_n"),
    ], ids=["wavepacket-q0", "roundtrip-q0", "residual-q0", "roundtrip-narrow",
            "residual-narrow", "wavepacket-wide", "roundtrip-wide", "roundtrip-length",
            "residual-sigma-3", "residual-q0-30", "roundtrip-optical-n"])
    def test_packet_the_grid_cannot_hold_refused(self, scenario, raw, key):
        with pytest.raises(ConfigError, match=f"^{key}: the Gaussian packet"):
            load_config(raw, scenario)

    def test_packet_tail_reads_the_run_grid(self):
        # the wigner route draws its own states and reads no packet, so a box
        # of 3 that cannot hold the default one is refused on the other routes
        # only; the default and CI configs keep their packets inside the grid
        assert load_config({"grid": {"length": 3.0}, "run": {"route": "wigner"}}, "roundtrip")
        with pytest.raises(ConfigError, match="^grid.length: the Gaussian packet"):
            load_config({"grid": {"length": 3.0}}, "roundtrip")
        for scenario, raw in [
                ("wavepacket", {}), ("roundtrip", {}), ("residual", {}),
                ("roundtrip", {"grid": {"length": 24.0, "hbar": 0.7, "mass": 1.3, "omega": 0.9}}),
                ("roundtrip", {"grid": {"length": 24.0, "hbar": 0.7}}),
                ("residual", {"grid": {"hbar": 0.8, "mass": 1.5, "omega": 1.3},
                              "field": {"a_long": 0.3, "m": 0.7}, "state": {"sigma": 0.6}}),
                ("roundtrip", {"grid": {"mass": 4.0}, "state": {"q0": 3.0, "p0": 2.0},
                               "run": {"route": "optical"}})]:
            assert load_config(raw, scenario)["scenario"] == scenario


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

    @pytest.mark.parametrize("raw", [
        {}, {"grid": {"hbar": 0.7}, "field": {"b": [0.3, -0.5, 0.8], "kappa": -1.3},
             "state": {"spin_direction": [1.0, 2.0, -0.5], "spin_m": -1.0}},
        {"grid": {"hbar": 0.7}, "field": {"b": [0.3, -0.5, 0.8], "kappa": -1.3},
         "state": {"spin_direction": [1.0, 2.0, -0.5], "spin_m": 0.0}}],
        ids=["default", "general", "spin-m-0"])
    def test_precess_weights_match_the_conjugated_density(self, tmp_path, raw):
        # against the exact orbit: the spin-1 closed form
        # exp(-i theta n.S) = I - i sin(theta) n.S + (cos(theta) - 1) (n.S)^2,
        # theta = -kappa |b| t / hbar, conjugating the density in 40 digits.
        # The weights' rounding grows with the phase |E| t / hbar they carry
        # (|E| = |kappa b| the largest energy); the three configs peak at
        # 4.0 eps (1 + |E| t / hbar) over every 7th sample, against a bound of 16
        import mpmath

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["precess", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "o" / "precess_weights.csv").read_text().splitlines()[1:]]
        times = np.array([float(row[0]) for row in rows[::9]])
        weights = np.array([float(row[2]) for row in rows]).reshape(len(times), 9)
        c = load_config(raw, "precess")
        direction = np.asarray(c["state"]["spin_direction"])
        chi = spin_eigenvector(1.0, direction / np.linalg.norm(direction), c["state"]["spin_m"])
        frame = build_spin1_frame()
        kappa, hbar = c["field"]["kappa"], c["grid"]["hbar"]
        gaps = []
        with mpmath.workdps(40):
            b = [mpmath.mpf(x) for x in c["field"]["b"]]
            b_norm = mpmath.sqrt(sum(x * x for x in b))
            r = 1 / mpmath.sqrt(2)
            spin = (mpmath.matrix([[0, r, 0], [r, 0, r], [0, r, 0]]),
                    mpmath.matrix([[0, -1j * r, 0], [1j * r, 0, -1j * r], [0, 1j * r, 0]]),
                    mpmath.diag([1, 0, -1]))
            n_s = sum((x / b_norm * s for x, s in zip(b, spin)), mpmath.zeros(3))
            rho0 = mpmath.matrix(np.outer(chi, chi.conj()).tolist())
            dequant = [mpmath.matrix(d.tolist()) for d in frame.dequantizer]
            for i in range(0, len(times), 7):
                theta = -mpmath.mpf(kappa) * b_norm * mpmath.mpf(times[i]) / mpmath.mpf(hbar)
                u = mpmath.eye(3) - 1j * mpmath.sin(theta) * n_s \
                    + (mpmath.cos(theta) - 1) * n_s * n_s
                rho = u * rho0 * u.H
                exact = [float(mpmath.re(sum(rho[a, k] * d[k, a] for a in range(3)
                                             for k in range(3)))) for d in dequant]
                phase = abs(kappa) * float(b_norm) * times[i] / hbar
                gaps.append(np.max(np.abs(weights[i] - exact)) / (1.0 + phase))
        assert max(gaps) <= 16 * np.finfo(float).eps

    @pytest.mark.parametrize("raw, omega", [
        ({"field": {"b": [1e-300, 0.0, 0.0]}}, 1e-300),
        ({"field": {"b": [1e-150, 0.0, 0.0]}}, 1e-150),
        ({"grid": {"hbar": 1e300}}, 1e-300),
        ({"run": {"periods": 1.0, "samples_per_period": 3}}, 1.0)],
        ids=["tiny-field", "small-field", "huge-hbar", "four-samples"])
    def test_valid_precession_passes(self, tmp_path, raw, omega):
        # |b| of a tiny field is taken without underflow, and the spectrum of
        # S reads the frequency at any scale and from any number of samples
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["precess", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        measured = read_report(tmp_path / "o")["measurements"]
        assert measured["omega_expected"] == omega
        assert measured["freq_rel_err"] < 1e-6

    @pytest.mark.parametrize("hbar_factor, s_factor", [(2.0, 1.0), (1.0, 1.0 + 1e-3)],
                             ids=["hbar-doubled", "scaled-1e-3"])
    def test_wrong_s_matrix_fails_the_frequency_gate(self, tmp_path, monkeypatch, hbar_factor,
                                                      s_factor):
        def wrong_s(frame, b, kappa, s, hbar):
            return s_factor * spin_coupling_matrix(frame, b, kappa, s, hbar_factor * hbar)

        monkeypatch.setattr("spintomo.cli.spin_coupling_matrix", wrong_s)
        assert main(["precess", "--out", str(tmp_path / "o")]) == 1
        rep = read_report(tmp_path / "o")
        assert not rep["gates"]["freq_rel_err"]["pass"]
        assert rep["measurements"]["freq_rel_err"] > 1e-4
        # the generator check fails both as well: S w misses dw/dt on the orbit
        assert not rep["gates"]["s_matrix_vs_oracle"]["pass"]
        assert rep["measurements"]["s_matrix_vs_oracle"] > 1e-4

    @pytest.mark.parametrize("raw", [
        {}, {"grid": {"hbar": 0.7}, "field": {"b": [0.3, -0.5, 0.8], "kappa": -1.3},
             "state": {"spin_direction": [1.0, 2.0, -0.5], "spin_m": 0.0}}],
        ids=["default", "spin-m-0"])
    def test_s_matrix_generates_the_weights(self, tmp_path, raw):
        # S w = dw/dt holds exactly on the orbit, so the check reads
        # round-off: 1.2e-15 and 1.4e-15 of omega on these configs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["precess", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert read_report(tmp_path / "o")["measurements"]["s_matrix_vs_oracle"] <= 1e-14

    @pytest.mark.parametrize("scenario, direction, run", [
        ("precess", [1e300, 0.0, 1.0], {}),
        ("wavepacket", [1e-300, 0.0, 0.0],
         {"t_final": 1.0, "n_steps": 10000, "save_every": 2500})],
        ids=["precess-huge", "wavepacket-tiny"])
    def test_spin_direction_of_any_finite_scale(self, tmp_path, scenario, direction, run):
        # the direction is scaled by its largest entry before it is
        # normalised, so its norm neither overflows nor underflows, and the
        # run matches that of the unit direction it points along to round-off
        outputs = []
        for name, d in (("scaled", direction), ("unit", [1.0, 0.0, 0.0])):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"grid": {"n": 64} if scenario == "wavepacket" else {},
                                       "state": {"spin_direction": d}, "run": run}))
            assert main([scenario, "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            outputs.append(read_report(tmp_path / name)["measurements"])
        assert outputs[0] == pytest.approx(outputs[1], rel=0, abs=1e-14)

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
        ("precess", {"field": {"b": [1e-300, 0, 0], "kappa": 1e-300}}, "field.kappa"),
        ("precess", {"field": {"b": [5e-324, 0, 0]}}, "field.b"),
        # length / n and sqrt(n) ran before n was checked: ZeroDivisionError,
        # or a RuntimeWarning (an error in this suite) for a negative n
        *[(scenario, {"grid": {"n": 0}}, "grid.n")
          for scenario in ("wavepacket", "roundtrip", "residual")],
        ("roundtrip", {"run": {"optical_n": 0}}, "run.optical_n"),
        ("wavepacket", {"grid": {"n": -32}}, "grid.n"),
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

    @pytest.mark.parametrize("scenario, raw, key", [
        ("wavepacket", {"state": {"sigma": 1e300}}, "state.sigma"),
        ("roundtrip", {"grid": {"length": 1e-300}}, "grid.length"),
        ("residual", {"state": {"q0": 1e6}}, "state.q0")],
        ids=["wavepacket-wide", "roundtrip-length", "residual-q0"])
    def test_packet_the_grid_cannot_hold_exits_2(self, tmp_path, capsys, monkeypatch,
                                                 scenario, raw, key):
        # refused by load_config, before the run allocates anything; these
        # exited 1 with a traceback
        monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("the run started"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main([scenario, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: the Gaussian packet")
        assert not (tmp_path / "o").exists()

    def test_working_grid_beyond_its_cap_exits_2(self, tmp_path, capsys):
        # a box of 0.3 needs a working grid of 2^21 points to rotate the
        # optical tomograms: refused before it is built.  The packet is made to
        # fit that box, which the default one (sigma 1) does not
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"length": 0.3},
                                   "state": {"q0": 0.0, "p0": 0.0, "sigma": 0.01},
                                   "run": {"representations": ["optical"]}}))
        assert main(["residual", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "n = 2^21" in err and "Traceback" not in err
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("scenario", ["wavepacket", "residual"])
    @pytest.mark.parametrize("raw, path", [
        ({"field": {"phi": [0.0, 0.0, 1e308]}}, "field.phi"),               # phi(q)
        ({"field": {"phi": [1e300, 0.0, 0.0], "e": 1e10}}, "field.phi"),     # e phi(q)
        # the kick, with a packet made to fit the box of 2.8e-149 that hbar 1e-300 gives
        ({"field": {"phi": [1e20, 0.0, 0.0]}, "grid": {"hbar": 1e-300},
          "state": {"q0": 0.0, "p0": 0.0, "sigma": 1e-150}}, "field.phi"),
        ({"field": {"a_long": 1e200}}, "field.a_long"),                     # kinetic phase
    ], ids=["phi", "e-phi", "kick", "a_long"])
    def test_overflowing_strang_factor_exits_2(self, tmp_path, capsys, scenario, raw, path):
        # refused before the run, which would carry NaN states: with phi it
        # failed a physics gate with exit 1 (wavepacket: FAIL (trace_drift))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        with np.errstate(all="raise"):
            code = main([scenario, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config error: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_large_finite_potential_accepted(self):
        # the largest default-grid potential stays finite, as does its kick
        for scenario in ("wavepacket", "residual"):
            load_config({"field": {"phi": [0.0, 0.0, 1e300]}}, scenario)

    @pytest.mark.parametrize("raw, path", [
        ({"field": {"phi": [0.0, 0.0, 1e308]}}, "field.phi"),
        ({"field": {"a_long": 1e200}}, "field.a_long"),
    ], ids=["phi", "a_long"])
    def test_overflow_refused_before_any_portrait(self, tmp_path, capsys, monkeypatch, raw,
                                                  path):
        # the evolution refuses the field at its first Strang factors, before
        # residual_check takes the portrait of any frame
        def refuse(*args, **kwargs):
            raise AssertionError("residuals.to_vector called")

        monkeypatch.setattr(spintomo.residuals, "to_vector", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["residual", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_fine_level_overflow_exits_2(self, tmp_path, capsys, monkeypatch):
        # dt k^2 is finite on the 64 points of the residual study's level 0
        # and overflows on the 2n points of its level 1 (twice the wavenumbers
        # at half the step): level 0 runs, and level 1 is refused before its
        # first step, with no report written
        checks = []
        check = spintomo.residuals.residual_check
        monkeypatch.setattr(spintomo.residuals, "residual_check",
                            lambda traj, *args: checks.append(traj.states[0].grid.n)
                            or check(traj, *args))
        dt = 1.3e308 / np.max(PhaseSpaceGrid.balanced(64).k_fft ** 2)   # the oracle step
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"n": 64}, "field": {"phi": [0.0, 0.0, 0.0]},
            "run": {"representations": ["wigner"], "n_frames": 3, "substeps": 2,
                    "dt_frame": 2 * dt}}))
        assert main(["residual", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error: dt: " in capsys.readouterr().err
        assert checks == [64]
        assert not (tmp_path / "o" / "report.json").exists()

    def test_time_step_overflow_names_dt(self, tmp_path, capsys):
        # a_long is 0, so the kinetic phase overflows through dt k^2 alone:
        # the refusal names the time step, not field.a_long
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"n": 64}, "field": {"phi": [0, 0, 0]},
            "run": {"representations": ["wigner"], "n_frames": 3, "substeps": 2,
                    "dt_frame": 2.586e306}}))
        assert main(["residual", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: dt: ") and "a_long" not in err
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("scenario, raw", [
        ("wavepacket", {"run": {"n_steps": 2, "save_every": 1}}),
        ("wavepacket", {"field": {"m": 1e-12}}),
        ("residual", {"field": {"e": 1e300}})],
        ids=["wavepacket-two-steps", "wavepacket-light", "residual-strong"])
    def test_unstable_time_step_exits_2(self, tmp_path, capsys, scenario, raw):
        # omega dt >= 2: the Strang step is unstable and its composed map
        # overflowed; refused, naming dt, before any report
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        with np.errstate(all="raise"):
            code = main([scenario, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: dt: ") and "unstable" in err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_packet_the_grid_stops_holding_does_not_pass(self, tmp_path):
        # at m = 30 the packet narrows towards l^2 / sigma = 0.18, under the
        # n = 128 grid's spacing of 0.22, so the grid stops holding it mid-run
        # and the energy gate fails (at n = 512 the run passes)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"field": {"m": 30.0}}))
        assert main(["wavepacket", "--config", str(cfg), "--out", str(tmp_path / "o")]) != 0

    @pytest.mark.parametrize("raw", [
        {"field": {"phi": [0.0, 1e300, 0.5]}}, {"field": {"kappa": 1e300}},
        {"field": {"b": [1e300, 0.0, 0.5]}}, {"run": {"dt_frame": 1e-300}}],
        ids=["phi1", "kappa", "b", "dt_frame"])
    def test_extreme_residual_fails_a_named_gate(self, tmp_path, raw):
        # the L2 residual's squares overflowed on these; each frame's sum of
        # squares is taken in units of its peak, so every L2 ratio is finite
        # and the run fails its first ratio gate
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["residual", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        rep = read_report(tmp_path / "o")
        assert rep["first_failed_gate"] == "wigner_ratio"
        assert all(np.isfinite(m["ratio_l2"]) for m in rep["measurements"].values())

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
        cfg.write_text(json.dumps({"tolerances": {"freq_rel_err": 1e-14}}))
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

    def test_precess_leaves_scipy_optimize_out(self, tmp_path):
        # the frequency is read from the spectrum of S, and S is checked by
        # its generator, with numpy alone: precess imports no scipy at all
        proc = run_python("-c", "import sys; from spintomo.cli import main; "
                          f"main(['precess', '--out', {str(tmp_path / 'o')!r}]); "
                          "print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_vector_evolution_leaves_scipy_out(self):
        # the spin mixing is the frame image of spin_flow, not a scipy expm
        proc = run_python("-c", "import sys; from spintomo import *; "
                          "g = PhaseSpaceGrid.balanced(64); "
                          "rho = SpinorDensity.from_pure(spin_coherent_state(g, [1, 0, 0]), g); "
                          "v0 = to_vector(rho, build_spin1_frame(), 'wigner'); "
                          "evolve_wigner_vector(v0, EMFieldConfig(phi=(0, 0, 0.5), "
                          "b_field=[0.3, 0.2, 0.5]), PropagatorConfig(0.05, 8, 'wigner-spectral', 3)); "
                          "print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_roundtrip_leaves_scipy_out(self, tmp_path):
        # the optical inversion builds its solvers from a numpy QR, so no
        # scenario imports scipy
        proc = run_python("-c", "import sys; from spintomo.cli import main; "
                          f"main(['roundtrip', '--out', {str(tmp_path / 'o')!r}]); "
                          "print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

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


class TestSpectralRead:
    # The eigenvalues of S are i k omega exactly, so the spectral read sees
    # only eigvals' round-off: on these frames and fields at most 43 eps
    # relative to omega (s = 3/2, seed 4).  The bound is 128 eps.
    BOUND = 128 * np.finfo(float).eps

    @pytest.mark.parametrize("spin", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_frame_spectrum_is_the_harmonics(self, spin, seed):
        frame = random_frame(spin, seed)
        for b, kappa, hbar in (([1.0, 0.0, 0.0], 1.0, 1.0), ([0.3, -0.5, 0.8], -1.3, 0.7)):
            omega = abs(kappa) * np.linalg.norm(b) / (spin * hbar)
            s_mat = spin_coupling_matrix(frame, b, kappa, spin, hbar)
            dev = _spectrum_deviations(s_mat, omega, spin)
            assert len(dev) == (2 * spin + 1) ** 2
            assert np.max(np.abs(dev)) < self.BOUND

    def test_wrong_harmonic_is_not_rounded(self):
        # spin 1 has one eigenvalue at each of +-2i omega: a second one at
        # 2i omega takes the place of an eigenvalue at i omega, and is read
        # against that harmonic
        lam = 1j * np.array([-2.0, -1.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 2.0])
        dev = _spectrum_deviations(np.diag(lam), 1.0, 1.0)
        assert np.max(np.abs(dev)) == 1.0


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
