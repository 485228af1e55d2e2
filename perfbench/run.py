"""spintomo benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload tomography --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  With
--trace 0 the loop runs untraced and the last line of standard output holds
the end-to-end metrics.  With --trace 1 the loop runs untraced for half the
time and then traced for the other half, on the same inputs, and the last
line holds the per-layer metrics.  Both print the full report (every metric
with its unit and sample count, the environment and the job mix) on the line
before, and write it with the spans to .perfbench-out/.  The exit code is 1
when an output of the program is wrong; the audit's known normalisation
defect is counted in `failed` but does not make the output wrong.
"""
import time

_T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: on 2 cores it was faster than two (0.75 s against 0.95 s
# per tomography job) and has no cold thread-pool start.
BLAS_THREADS = 1
SRC = Path(__file__).resolve().parent.parent / "src"
OUT = Path(".perfbench-out")
SETUP_SAMPLES = 3     # fresh processes whose set-up times give setup_s
MIN_TAIL = 10         # samples a reported tail percentile must have beyond it

END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_s", "s"),
              ("peak_rss_mb", "MB"))


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("tomography", "dynamics", "cli-suite"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: set up, run the first job, print the set-up time")
    return ap.parse_args(argv)


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": openblas,
            "python": sys.version.split()[0]}


def _loop(wl, seconds: float, min_jobs: int, tracer) -> dict:
    """Closed loop: the next job starts when the previous one is checked.

    Runs whole blocks of the workload's job mix until `seconds` have passed.
    Job times cover the program calls only; generating inputs and checking
    outputs happen outside them.
    """
    times, cpu, details, kinds = [], [], [], Counter()
    failed, err_max = 0, 0.0
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < min_jobs or i % wl.block:
        job = wl.job(i)
        tracer.job = i
        i += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = wl.run(job, tracer)
        except Exception as exc:  # a failing call is a failed job, not a crashed run
            times.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - c0)
            failed += 1
            kinds[f"exception:{type(exc).__name__}"] += 1
            details.append({"exception": repr(exc)})
            continue
        times.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        outcome = wl.check(job, out)
        failed += bool(outcome.failures)
        kinds.update(set(outcome.failures))
        err_max = max(err_max, outcome.err_max)
        details.append({**outcome.detail, "failures": outcome.failures})
    return {"times": times, "cpu": cpu, "failed": failed, "failures": kinds,
            "err_max": err_max, "details": details}


def _tail(times: list) -> dict | None:
    """Highest whole percentile with at least MIN_TAIL samples beyond it."""
    import numpy as np

    n = len(times)
    if n <= MIN_TAIL:
        return None
    pct = int(100 * (n - MIN_TAIL) / n)
    return {"percentile": pct, "value": float(np.percentile(times, pct)), "unit": "s",
            "samples": n}


def _setup_probes(args) -> list:
    """Set-up times of fresh processes: import, frames and the first job."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _mean_detail(run: dict, key: str) -> float:
    vals = [d[key] for d in run["details"] if key in d]
    return sum(vals) / len(vals) if vals else 0.0


def _workload_figures(name: str, run: dict) -> dict:
    """Figures beyond the end-to-end set, including those defined on one workload only."""
    times = run["times"]
    fig = {"job_tail_s": _tail(times),
           "job_mean_s": {"value": sum(times) / len(times), "unit": "s",
                          "samples": len(times)},
           "job_cpu_p50_s": {"value": statistics.median(run["cpu"]), "unit": "s",
                             "samples": len(times)},
           "job_times_s": times}
    if name == "cli-suite":
        fig["suite_s"] = {"value": statistics.median(times), "unit": "s",
                          "samples": len(times)}
        for sc in ("residual", "roundtrip", "wavepacket"):
            vals = [d["scenario_s"][sc] for d in run["details"] if "scenario_s" in d]
            fig[f"scenario.{sc}_s"] = {"value": statistics.median(vals), "unit": "s",
                                       "samples": len(vals)}
        fig["cli.bytes_written"] = {"value": _mean_detail(run, "bytes_written"), "unit": "B"}
    return fig


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "spintomo" / "__init__.py").is_file():
        print(f"spintomo sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, OUT)
    recorder = spans.Recorder() if args.trace else spans.NullRecorder()
    with spans.instrumented(recorder) if args.trace else contextlib.nullcontext():
        wl.setup()
        warm = wl.warm_up_job()
        warm_outcome = wl.check(warm, wl.run(warm, recorder))
    setup_own = time.perf_counter() - _T_PROCESS
    warm_ok = set(warm_outcome.failures) <= {workloads.KNOWN_DEFECT}
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_own}))
        return 0 if warm_ok else 1

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loop": "closed, 1 client",
              "environment": _environment(), "job_mix": wl.describe()}
    min_jobs = 2 if args.workload == "cli-suite" and not args.trace else 1
    if args.trace:
        untraced = _loop(wl, args.seconds / 2, min_jobs, spans.NullRecorder())
        recorder.phase = "loop"
        with spans.instrumented(recorder):
            traced = _loop(wl, args.seconds / 2, min_jobs, recorder)
        runs = [untraced, traced]
        n_traced = len(traced["times"])
        overhead = (sum(traced["times"]) / n_traced) / (
            sum(untraced["times"]) / len(untraced["times"]))
        metrics = spans.per_layer_metrics(recorder, n_traced, overhead,
                                          _mean_detail(traced, "bytes_written"))
        units = dict(spans.PER_LAYER)
        report["per_layer"] = {k: {"value": v, "unit": units[k], "jobs": n_traced}
                               for k, v in metrics.items()}
        recorder.write(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    else:
        setup = [setup_own] + _setup_probes(args)
        run = _loop(wl, args.seconds, min_jobs, recorder)
        runs = [run]
        times = run["times"]
        metrics = {
            "setup_s": statistics.median(setup),
            "jobs_per_s": len(times) / sum(times),
            "job_p50_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        samples = {"setup_s": len(setup), "jobs_per_s": len(times),
                   "job_p50_s": len(times), "peak_rss_mb": 1}
        report["end_to_end"] = {k: {"value": v, "unit": units[k], "samples": samples[k]}
                                for k, v in metrics.items()}
        report["setup_samples_s"] = setup
        report.update(_workload_figures(args.workload, run))

    attempted = sum(len(r["times"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    kinds = sum((r["failures"] for r in runs), Counter())
    correct = warm_ok and set(kinds) <= {workloads.KNOWN_DEFECT}
    report.update({
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "failures": dict(kinds),
        "err_max": max([r["err_max"] for r in runs] + [warm_outcome.err_max]),
        "jobs": [d for r in runs for d in r["details"]],
    })
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=float))
    del report["jobs"]
    print(json.dumps({"report": report}, default=float))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
