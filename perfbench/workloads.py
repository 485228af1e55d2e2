"""The three benchmark workloads: seeded input generators, the program calls
each job makes, and the checks on what the program returns.

Every job's inputs come from numpy generators keyed by (seed, stream, job
index), so the same seed gives the same jobs in every run and in both phases
of a traced run.  Program calls go through module attributes
(`vp.to_vector`, `dyn.evolve_oracle`, ...) so the traced run can wrap them.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import references as ref
from spintomo import cli
from spintomo import dynamics as dyn
from spintomo import grids
from spintomo import residuals
from spintomo import spin_frames
from spintomo import states
from spintomo import vector_portrait as vp

GRID_N = 128
N_THETA = 64

# tolerances on the program's outputs; beyond them a job's output is wrong
PORTRAIT_TOL = 1e-9          # forward portraits against closed forms (round-off level)
WIGNER_BLOCK_TOL = 1e-10     # the CLI's roundtrip gate on the Wigner route
OPTICAL_INFIDELITY_TOL = 1e-3  # the CLI's roundtrip gate on the optical route
ORBIT_TOL = 1e-5             # dynamics frames against the exact orbit (Strang error ~1e-7)
NORMALIZATION_TOL = 1e-8     # the audit's own normalisation tolerance

# Failure kinds.  "audit_verdict" is the one the program is known to get
# wrong (VectorDistribution.normalization_sum adds only the first three
# component integrals, which is right for the paper frame alone); it counts
# as a failed job but does not make the run's output incorrect.
KNOWN_DEFECT = "audit_verdict"


@dataclass
class Outcome:
    """What the checks found for one job."""

    failures: list        # failure kinds, empty when the job succeeded
    err_max: float        # largest deviation from the closed-form reference
    detail: dict


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


class Tomography:
    """Encode a Gaussian-mixture spinor state in all four representations,
    audit each portrait, and reconstruct through the Wigner and optical routes."""

    # one block: five jobs on the paper spin-1 frame, one random frame per spin
    BLOCK = ("paper", "random-0.5", "random-1.0", "random-1.5", "paper", "paper",
             "paper", "paper")
    block = len(BLOCK)
    random_share = 3 / len(BLOCK)

    def __init__(self, seed: int):
        self.seed = seed

    def describe(self) -> dict:
        return {
            "job": "mixture of 1-3 product states chi (x) Gaussian packet on "
                   f"PhaseSpaceGrid.balanced({GRID_N}); to_vector in wigner, optical "
                   f"({N_THETA} angles), symplectic-section (5x5 mu-nu mesh), husimi; "
                   "audit of each; from_vector through the wigner and optical routes",
            "block": list(self.BLOCK),
            "random_frame_share": self.random_share,
            "packet_ranges": {"q0": [-1.5, 1.5], "p0": [-1.5, 1.5], "sigma": [0.65, 0.85]},
            "sizes": {"n": GRID_N, "n_theta": N_THETA, "n_mu": 5, "n_nu": 5},
        }

    def setup(self) -> None:
        self.grid = grids.PhaseSpaceGrid.balanced(GRID_N)
        self.domains = {
            "wigner": None,
            "optical": grids.TomogramDomain.optical_default(self.grid, N_THETA),
            "symplectic-section": residuals.default_domain("symplectic-section", self.grid),
            "husimi": None,
        }
        frame_seeds = _rng(self.seed, 3).integers(0, 2**31, size=3)
        self.frames = {"paper": spin_frames.build_spin1_frame()}
        for s, fseed in zip((0.5, 1.0, 1.5), frame_seeds):
            self.frames[f"random-{s}"] = spin_frames.random_frame(s, int(fseed))

    def _job(self, rng: np.random.Generator, frame_key: str) -> dict:
        d = self.frames[frame_key].dim
        rank = int(rng.integers(1, 4))
        probs = rng.dirichlet(np.ones(rank))
        packets = [ref.Packet(float(pr), rng.normal(size=d) + 1j * rng.normal(size=d),
                              float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)),
                              float(rng.uniform(0.65, 0.85)))
                   for pr in probs]
        return {"frame": frame_key, "packets": packets}

    def warm_up_job(self) -> dict:
        return self._job(_rng(self.seed, 1), "paper")

    def job(self, index: int) -> dict:
        b, k = divmod(index, self.block)
        order = _rng(self.seed, 2, b).permutation(self.block)
        return self._job(_rng(self.seed, 0, index), self.BLOCK[order[k]])

    def run(self, job: dict, tracer) -> dict:
        g = self.grid
        frame = self.frames[job["frame"]]
        psis = [states.spinor_product_state(g, pk.chi, states.gaussian_packet(g, pk.q0, pk.p0,
                                                                                pk.sigma))
                for pk in job["packets"]]
        rho = vp.SpinorDensity.from_mixture([pk.prob for pk in job["packets"]], psis, g)
        portraits = {rep: vp.to_vector(rho, frame, rep, dom) for rep, dom in self.domains.items()}
        audits = {rep: vp.audit(v) for rep, v in portraits.items()}
        back = {route: vp.from_vector(portraits[route], frame) for route in ("wigner", "optical")}
        return {"rho": rho, "portraits": portraits, "audits": audits, "back": back}

    def check(self, job: dict, out: dict) -> Outcome:
        g = self.grid
        frame = self.frames[job["frame"]]
        packets = job["packets"]
        u = frame.dequantizer
        opt = self.domains["optical"]
        sym = self.domains["symplectic-section"]
        expected = {
            "wigner": ref.wigner(packets, u, g.q, g.p, g.hbar),
            "optical": ref.optical(packets, u, opt.thetas, opt.x, g.hbar, g.mass * g.omega),
            "symplectic-section": ref.symplectic(packets, u, sym.mu, sym.nu, sym.x, g.hbar),
            "husimi": ref.husimi(packets, u, g.q, g.p, g.hbar, g.mass * g.omega),
        }
        errs = {rep: float(np.max(np.abs(out["portraits"][rep].components - expected[rep])))
                for rep in expected}
        failures = []
        if max(errs.values()) > PORTRAIT_TOL:
            failures.append("portrait_error")

        rho = out["rho"]
        block_err = float(np.max(np.abs(rho.blocks - out["back"]["wigner"].blocks)))
        if block_err > WIGNER_BLOCK_TOL:
            failures.append("wigner_route_error")
        infidelity = _infidelity(rho, out["back"]["optical"])
        if infidelity > OPTICAL_INFIDELITY_TOL:
            failures.append("optical_route_error")

        # frame-correct normalisation: sum_j Tr(D_j) * integral of w_j = 1
        traces = np.einsum("jaa->j", frame.quantizer).real
        for rep, v in out["portraits"].items():
            norm_ok = abs(float(traces @ v.component_integrals()) - 1.0) <= NORMALIZATION_TOL
            if out["audits"][rep].passed != norm_ok:
                failures.append(KNOWN_DEFECT)
                break
        return Outcome(failures, max(errs.values()),
                       {"frame": job["frame"], "portrait_err": errs,
                        "wigner_block_err": block_err, "optical_infidelity": infidelity})


def _infidelity(rho, back) -> float:
    """1 - Tr(rho back) / (Tr(rho^2) Tr(back)); 1 - <psi|back|psi>/Tr(back) for pure rho."""
    overlap = np.einsum("abij,baji->", rho.blocks, back.blocks).real
    purity = np.einsum("abij,baji->", rho.blocks, rho.blocks).real
    return float(1.0 - overlap / (purity * back.trace()))


class Dynamics:
    """Evolve a coherent spinor packet with the vector-Wigner stepper and the
    oracle, and compare every saved frame with the exact orbit."""

    block = 1
    DT = 4e-3
    N_STEPS = 100
    SAVE_EVERY = 25

    def __init__(self, seed: int):
        self.seed = seed

    def describe(self) -> dict:
        return {
            "job": "coherent spin-1 packet on PhaseSpaceGrid.balanced"
                   f"({GRID_N}) under phi = c1 q + c2 q^2, uniform B and kappa; "
                   f"evolve_wigner_vector and evolve_oracle over t = "
                   f"{self.DT * self.N_STEPS:g} (dt = {self.DT:g}, {self.N_STEPS} steps, "
                   f"a frame every {self.SAVE_EVERY})",
            "random_frame_share": 0.0,
            "field_ranges": {"c1": [-0.3, 0.3], "c2": [0.3, 0.7], "b": [-1, 1],
                             "kappa": [0.5, 1.5]},
            "packet_ranges": {"q0": [-1.5, 1.5], "p0": [-1.5, 1.5]},
            "sizes": {"n": GRID_N, "dt": self.DT, "n_steps": self.N_STEPS,
                      "save_every": self.SAVE_EVERY},
        }

    def setup(self) -> None:
        self.grid = grids.PhaseSpaceGrid.balanced(GRID_N)
        self.frame = spin_frames.build_spin1_frame()

    def job(self, index: int, stream: int = 0) -> dict:
        rng = _rng(self.seed, stream, index)
        direction = rng.normal(size=3)
        b_field = rng.uniform(-1.0, 1.0, size=3)
        kappa = float(rng.uniform(0.5, 1.5))
        orbit = ref.Orbit(chi=ref.coherent_spin_vector(1.0, direction),
                          q0=float(rng.uniform(-1.5, 1.5)), p0=float(rng.uniform(-1.5, 1.5)),
                          c1=float(rng.uniform(-0.3, 0.3)), c2=float(rng.uniform(0.3, 0.7)),
                          h_spin=ref.zeeman_hamiltonian(1.0, b_field, kappa))
        return {"direction": direction / np.linalg.norm(direction), "b_field": b_field,
                "kappa": kappa, "orbit": orbit}

    def warm_up_job(self) -> dict:
        return self.job(0, stream=1)

    def run(self, job: dict, tracer) -> dict:
        g = self.grid
        orbit = job["orbit"]
        fld = dyn.EMFieldConfig(phi=(0.0, orbit.c1, orbit.c2), b_field=job["b_field"],
                                kappa=job["kappa"], spin=1.0)
        psi = states.spin_coherent_state(g, job["direction"], 1.0, 1.0, orbit.q0, orbit.p0,
                                         orbit.sigma)
        rho0 = vp.SpinorDensity.from_pure(psi, g)
        v0 = vp.to_vector(rho0, self.frame, "wigner")
        wig = dyn.evolve_wigner_vector(v0, fld, dyn.PropagatorConfig(
            self.DT, self.N_STEPS, dyn.WIGNER_SCHEME, self.SAVE_EVERY))
        ora = dyn.evolve_oracle(rho0, fld, dyn.PropagatorConfig(
            self.DT, self.N_STEPS, "split-step-strang", self.SAVE_EVERY))
        return {"wigner": wig, "oracle": ora}

    def check(self, job: dict, out: dict) -> Outcome:
        g = self.grid
        orbit = job["orbit"]
        wig, ora = out["wigner"], out["oracle"]
        err_w = max(float(np.max(np.abs(
            f.components - ref.wigner(orbit.packets(t), self.frame.dequantizer, g.q, g.p))))
            for t, f in zip(wig.times, wig.frames))
        err_o = max(float(np.max(np.abs(s.blocks - orbit.blocks(t, g.q))))
                    for t, s in zip(ora.times, ora.states))
        frames_ok = len(wig.frames) == len(ora.states) == self.N_STEPS // self.SAVE_EVERY + 1
        failures = [] if frames_ok and max(err_w, err_o) <= ORBIT_TOL else ["orbit_error"]
        return Outcome(failures, max(err_w, err_o),
                       {"wigner_err": err_w, "oracle_err": err_o})


class CliSuite:
    """One pass runs all five CLI scenarios with default configs and the
    workload seed, each into a fresh output directory."""

    block = 1
    SETUP_SCENARIOS = ("audit-frame", "precess")

    def __init__(self, seed: int, out_root: Path):
        self.seed = seed
        self.out_root = out_root
        self.first_reports: dict[str, bytes] = {}
        self.passes = 0

    def describe(self) -> dict:
        return {
            "job": "one pass of spintomo.cli.main over " + ", ".join(cli.SCENARIOS)
                   + " with default configs and --seed",
            "random_frame_share": 0.0,
            "warm_up": list(self.SETUP_SCENARIOS),
            "configs": {sc: cli.load_config({}, sc)["run"] for sc in cli.SCENARIOS},
        }

    def setup(self) -> None:
        pass

    def warm_up_job(self) -> tuple:
        return self.SETUP_SCENARIOS

    def job(self, index: int) -> tuple:
        return cli.SCENARIOS

    def run(self, scenarios: tuple, tracer) -> dict:
        self.passes += 1
        pass_dir = self.out_root / f"pass-{self.passes}"
        times, codes = {}, {}
        for sc in scenarios:
            argv = [sc, "--out", str(pass_dir / sc), "--seed", str(self.seed)]
            t0 = time.perf_counter()
            with tracer.span(f"cli.{sc}"), contextlib.redirect_stdout(io.StringIO()):
                codes[sc] = cli.main(argv)
            times[sc] = time.perf_counter() - t0
        return {"dir": pass_dir, "codes": codes, "times": times}

    def check(self, scenarios: tuple, out: dict) -> Outcome:
        failures = []
        written = 0
        for sc in scenarios:
            sc_dir = out["dir"] / sc
            written += sum(f.stat().st_size for f in sc_dir.rglob("*") if f.is_file())
            if not (sc_dir / "report.json").is_file():
                failures.append(f"{sc}:no-report")
                continue
            report = (sc_dir / "report.json").read_bytes()
            parsed = json.loads(report)
            if out["codes"][sc] != 0 or not parsed["pass"] or not all(
                    g["pass"] for g in parsed["gates"].values()):
                failures.append(f"{sc}:gate")
            if self.first_reports.setdefault(sc, report) != report:
                failures.append(f"{sc}:nondeterministic")
        shutil.rmtree(out["dir"])
        return Outcome(failures, 0.0, {"bytes_written": written, "scenario_s": out["times"]})


def make(name: str, seed: int, out_root: Path):
    if name == "tomography":
        return Tomography(seed)
    if name == "dynamics":
        return Dynamics(seed)
    if name == "cli-suite":
        return CliSuite(seed, out_root / "cli")
    raise ValueError(f"unknown workload {name!r}")
