"""Span recorder for the traced run, and the per-layer metrics derived from it.

Spans are opened only from the benchmark's side: `instrumented` swaps each
traced spintomo function for a timing wrapper under every name a spintomo
module looks it up by (for example `spintomo.vector_portrait.radon_slices`,
which `to_vector` calls), and restores the originals on exit.  Nothing inside
`src/` changes.  Spans stay in memory with their parent and job and are
written out once, at the end of the run.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import time
from pathlib import Path

import numpy as np

# Functions timed per layer (the spintomo module that defines them).  The
# grids and errors modules carry no measurable work.
LAYERS = {
    "phase_space": ("radon_slices", "symplectic_profiles", "wigner_from_optical",
                    "husimi_from_wigner", "ddx"),
    "vector_portrait": ("to_vector", "from_vector", "audit"),
    "dynamics": ("evolve_wigner_vector", "evolve_oracle", "fit_precession_frequency"),
    "residuals": ("residual_convergence", "residual_check"),
    "spin_frames": ("build_frame", "random_frame"),
    "states": ("normalize_field", "gaussian_packet", "oscillator_eigenstate",
               "random_band_limited_state", "spinor_product_state", "spin_coherent_state"),
}
MODULES = ("cli", "dynamics", "grids", "phase_space", "residuals", "spin_frames",
           "states", "vector_portrait")
CLI_SCENARIOS = ("audit-frame", "precess", "wavepacket", "roundtrip", "residual")
RESIDUAL_REPS = ("wigner", "optical", "symplectic-section", "husimi")

# Per-layer metrics, in the order BENCHMARK.json lists them.  Every value is
# per job of the traced loop (per pass on cli-suite), except the *.setup_s
# metrics, which cover the set-up before the loop, and trace.overhead_ratio.
PER_LAYER = (
    [("phase_space.radon_slices.busy_s", "s"),
     ("phase_space.radon_slices.rays", "count"),
     ("phase_space.radon_slices.flops_computed", "flop"),
     ("phase_space.symplectic_profiles.busy_s", "s"),
     ("phase_space.symplectic_profiles.rays", "count"),
     ("phase_space.wigner_from_optical.busy_s", "s"),
     ("phase_space.wigner_from_optical.calls", "count"),
     ("phase_space.husimi_from_wigner.busy_s", "s"),
     ("phase_space.ddx.busy_s", "s"),
     ("phase_space.ddx.calls", "count"),
     ("vector_portrait.to_vector.self_s", "s"),
     ("vector_portrait.to_vector.calls", "count"),
     ("vector_portrait.to_vector.components", "count"),
     ("vector_portrait.from_vector.self_s", "s"),
     ("vector_portrait.from_vector.calls", "count"),
     ("vector_portrait.audit.busy_s", "s"),
     ("dynamics.evolve_wigner_vector.busy_s", "s"),
     ("dynamics.evolve_wigner_vector.steps", "count"),
     ("dynamics.evolve_wigner_vector.s_per_step", "s"),
     ("dynamics.evolve_oracle.busy_s", "s"),
     ("dynamics.evolve_oracle.steps", "count"),
     ("dynamics.fit_precession_frequency.busy_s", "s")]
    + [(f"residuals.residual_convergence.{rep}.busy_s", "s") for rep in RESIDUAL_REPS]
    + [("residuals.residual_check.self_s", "s"),
       ("spin_frames.build_frame.busy_s", "s"),
       ("spin_frames.build_frame.setup_s", "s"),
       ("spin_frames.random_frame.setup_s", "s"),
       ("states.busy_s", "s")]
    + [(f"cli.{sc}.busy_s", "s") for sc in CLI_SCENARIOS]
    + [(f"cli.{sc}.self_s", "s") for sc in CLI_SCENARIOS]
    + [("cli.bytes_written", "B"),
       ("trace.overhead_ratio", "ratio")]
)


class Recorder:
    """In-memory spans: name, parent index, job, phase, start, end, counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.job: int | None = None
        self.phase = "setup"

    @contextlib.contextmanager
    def span(self, name: str, counts: dict | None = None):
        rec = {"name": name, "parent": self._open[-1] if self._open else None,
               "job": self.job, "phase": self.phase, "counts": counts or {}}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        out = [{**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in self.spans]
        path.write_text(json.dumps(out))


class NullRecorder:
    """Stands in for Recorder when tracing is off; opens no spans."""

    job = None

    @staticmethod
    def span(name: str, counts: dict | None = None):
        return contextlib.nullcontext()


def _n_components(w_stack) -> int:
    return int(np.prod(np.shape(w_stack)[:-2]))


def _ray_counts(n_components: int, n_rays: int, n: int, n_x: int) -> dict:
    # the dense characteristic-function sums in phase_space._ray_profiles
    # cost two complex matrix products per ray: 8 n_x n (n + 1) flops
    rays = n_components * n_rays
    return {"rays": rays, "flops_computed": rays * 8 * n_x * n * (n + 1)}


def _counts(qualname: str, args: tuple, kwargs: dict) -> dict:
    """Work counts computed from the call arguments."""
    if qualname == "phase_space.radon_slices":
        w_stack, grid, thetas, x = args[:4]
        return _ray_counts(_n_components(w_stack), len(thetas), grid.n, len(x))
    if qualname == "phase_space.symplectic_profiles":
        w_stack, grid, mu, nu, x = args[:5]
        return _ray_counts(_n_components(w_stack), len(mu) * len(nu), grid.n, len(x))
    if qualname == "vector_portrait.to_vector":
        return {"components": args[1].size}
    if qualname in ("dynamics.evolve_wigner_vector", "dynamics.evolve_oracle"):
        prop = args[2] if len(args) > 2 else kwargs["prop"]
        return {"steps": prop.n_steps}
    return {}


def _wrap(recorder: Recorder, qualname: str, fn):
    def traced(*args, **kwargs):
        name = qualname
        if qualname == "residuals.residual_convergence":
            name = f"{qualname}.{args[0]}"
        with recorder.span(name, _counts(qualname, args, kwargs)):
            return fn(*args, **kwargs)

    traced.__wrapped__ = fn
    return traced


@contextlib.contextmanager
def instrumented(recorder: Recorder):
    """Wrap every traced function wherever a spintomo module binds it."""
    modules = [importlib.import_module("spintomo")]
    modules += [importlib.import_module(f"spintomo.{m}") for m in MODULES]
    patches = []
    for layer, names in LAYERS.items():
        home = importlib.import_module(f"spintomo.{layer}")
        for fname in names:
            fn = getattr(home, fname)
            wrapper = _wrap(recorder, f"{layer}.{fname}", fn)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
    try:
        yield
    finally:
        for mod, attr, fn in patches:
            setattr(mod, attr, fn)


def _durations(spans: list[dict]) -> tuple[list[float], list[float]]:
    """Per span: its duration, and the part of it its direct children cover."""
    dur = [s["end"] - s["start"] for s in spans]
    covered = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            covered[s["parent"]] += d
    return dur, covered


def _outermost(spans: list[dict], match) -> list[int]:
    """Indices of matching spans that have no matching ancestor (no double count)."""
    out = []
    for i, s in enumerate(spans):
        if not match(s["name"]):
            continue
        p = s["parent"]
        while p is not None and not match(spans[p]["name"]):
            p = spans[p]["parent"]
        if p is None:
            out.append(i)
    return out


def per_layer_metrics(recorder: Recorder, n_jobs: int, overhead_ratio: float,
                      bytes_written: float) -> dict:
    """Every PER_LAYER metric; loop metrics are divided by the loop's job count."""
    spans = recorder.spans
    dur, covered = _durations(spans)

    def total(match, what: str, phase: str = "loop") -> float:
        acc = 0.0
        for i in _outermost(spans, match):
            if spans[i]["phase"] != phase:
                continue
            if what == "busy":
                acc += dur[i]
            elif what == "self":
                acc += dur[i] - covered[i]
            elif what == "calls":
                acc += 1
            else:
                acc += spans[i]["counts"].get(what, 0)
        return acc

    values = {}
    for name, _unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            values[name] = overhead_ratio
        elif name == "cli.bytes_written":
            values[name] = bytes_written
        elif name == "states.busy_s":
            values[name] = total(lambda n: n.startswith("states."), "busy") / n_jobs
        elif name.endswith(".setup_s"):
            base = name[: -len(".setup_s")]
            values[name] = total(lambda n, b=base: n == b, "busy", phase="setup")
        elif name.endswith(".s_per_step"):
            base = name[: -len(".s_per_step")]
            steps = total(lambda n, b=base: n == b, "steps")
            values[name] = total(lambda n, b=base: n == b, "busy") / steps if steps else 0.0
        else:
            base, what = name.rsplit(".", 1)
            what = {"busy_s": "busy", "self_s": "self"}.get(what, what)
            values[name] = total(lambda n, b=base: n == b, what) / n_jobs
    return values
