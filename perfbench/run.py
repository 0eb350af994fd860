#!/usr/bin/env python3
"""gpcquad benchmark: closed-loop jobs, one caller, single-threaded.

Usage (from the repository root):

    python3 perfbench/run.py --workload synthetic-1e6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each job starts when the previous one finishes. The job list is fixed by
the seed and by --seconds (a job count calibrated to take about that long),
so the accuracy figures and failure counts are deterministic per seed and do
not depend on how fast the code runs. Human-readable lines go first; the
last line of stdout is the JSON result. See perfbench/README.md.
"""

import os

# Single-threaded BLAS/OpenMP: must be set before numpy is first imported.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("synthetic-1e6", "mixture-fine", "resample-cli")

# Seconds per job measured on a 2-vCPU x86-64 virtual machine at the commit
# that introduced the benchmark; used only to turn --seconds into a job count.
NOMINAL_JOB_S = {"synthetic-1e6": 0.27, "mixture-fine": 0.42, "resample-cli": 0.36}
MIN_JOBS = 21  # the tail percentile needs ten jobs beyond it
SETUP_ROUNDS = 3
WARMUP_SEED = 0
DEADLINE_S = 120.0  # start no job after this, so a very slow commit still ends within 3 minutes
ACCURACY_PERCENTILE = 90  # ortho_err_* statistic over the rules of a run
# Median time of `reference_kernel` on the host the bounds were set on. Every
# time metric is scaled by REFERENCE_S / (median kernel time in this run);
# see "Host speed" in perfbench/README.md.
REFERENCE_S = 0.0023

# Per-layer metrics: name -> span names whose per-job busy time is summed.
SPAN_TIMES = {
    "surrogate.sample_s": ["surrogate.sample"],
    "surrogate.load_samples_s": ["surrogate.load_samples"],
    "surrogate.save_samples_s": ["surrogate.save_samples"],
    "ecdf.fit_transform_s": ["ecdf.fit_transform"],
    "ecdf.select_points_s": ["ecdf.select_points"],
    "interp.fit_s": ["interp.fit_cubic", "interp.fit_rational"],
    "interp.validate_s": ["interp.validate_model"],
    "interp.draw_s": ["interp.draw_samples"],
    "interp.eval_s": ["interp.cdf_eval", "interp.pdf_eval"],
    "interp.model_io_s": ["interp.save_model", "interp.load_model"],
    "moments.s": ["moments.moments"],
    "moments.cubic_s": ["moments.moments_cubic"],
    "moments.rational_s": ["moments.moments_rational"],
    "orthopoly.recurrence_s": ["orthopoly.compute_recurrence"],
    "quadrature.gauss_rule_s": ["quadrature.gauss_rule"],
    "quadrature.ortho_error_s": ["quadrature.orthonormality_error"],
}
# CLI subcommands are reported as self time: span minus its library calls.
SPAN_SELF_TIMES = {"cli.sample_s": "cli.sample", "cli.fit_s": "cli.fit", "cli.quad_s": "cli.quad"}
# Per-layer counts: name -> counter key summed over all traced jobs.
SPAN_COUNTS = {
    "surrogate.values": "values",
    "ecdf.points_n": "points",
    "interp.pieces": "pieces",
    "interp.draws": "draws",
    "interp.eval_points": "eval_points",
    "moments.piece_orders": "piece_orders",
    "quadrature.rules": "rules",
    "cli.exit_nonzero": "exit_nonzero",
}


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


IMPORT_SNIPPET = (
    "import time; t0 = time.perf_counter(); import gpcquad, gpcquad.cli; "
    "print(time.perf_counter() - t0)"
)


def import_gpcquad() -> list[float]:
    """Import the package from this checkout's src/; return the import time
    measured in SETUP_ROUNDS fresh interpreters (one import per process
    cannot be repeated in place)."""
    src = ROOT / "src"
    if not (src / "gpcquad" / "__init__.py").is_file():
        fail(f"no gpcquad sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import gpcquad
    import gpcquad.cli  # noqa: F401

    if Path(gpcquad.__file__).resolve().parent != (src / "gpcquad").resolve():
        fail(f"imported gpcquad from {gpcquad.__file__}, not from {src}")
    env = dict(os.environ, PYTHONPATH=str(src))
    return [
        float(subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True, timeout=60).stdout)
        for _ in range(SETUP_ROUNDS)
    ]


def machine_record() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_ENV},
    }


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it,
    and that percentile (linear-rank definition)."""
    ordered = sorted(values)
    i = len(ordered) - 11
    return ordered[i], 100.0 * i / (len(ordered) - 1)


def digits_lost(err: float) -> float:
    """log10(1 + err/eps): decades of error above double-precision epsilon.

    Positive even for an exact result, so it can be compared as a ratio."""
    return math.log10(1.0 + err / sys.float_info.epsilon)


REFERENCE_VECTOR = np.linspace(0.0, 1.0, 22)


def reference_kernel() -> float:
    """Seconds for a fixed piece of interpreter work with small numpy calls,
    sharing no code with gpcquad: a probe of the host's current speed.

    Best of three back-to-back runs, so the caches a job leaves behind do not
    count. It allocates no large arrays: where such an array lands in memory
    made kernel timings bimodal between processes."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(400):
            acc += float(np.dot(REFERENCE_VECTOR, REFERENCE_VECTOR)) * (i % 3)
        for i in range(30_000):
            acc += (i % 7) * 0.5
        best = min(best, time.perf_counter() - t0)
    return best


def run_job(workload, j: int) -> tuple[object, float, int]:
    """Run job j, timing only the library work; count leaked RuntimeWarnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        out = workload.run(j)
        elapsed = time.perf_counter() - t0
    leaked = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return out, elapsed, leaked


class Tally:
    """Operation outcomes, failures by class, check residuals and accuracy."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_class: dict = {}
        self.nondeterministic: list = []
        self.residuals: dict = {}
        self.eps: dict = {}
        self.leaked_warnings = 0

    def add(self, out, checks) -> None:
        for op in out.ops:
            self.attempted += 1
            reasons = [op.error] if op.error else [f"check:{c}" for c in checks.failed.get(op.key, [])]
            if reasons:
                self.failed += 1
                for reason in reasons:
                    self.by_class[reason] = self.by_class.get(reason, 0) + 1
            # every rule produced counts toward accuracy, failed checks included
            if op.eps is not None and math.isfinite(op.eps):
                self.eps.setdefault(op.degree, []).append(op.eps)
        for degree, eps in checks.probe_eps.items():
            self.eps.setdefault(degree, []).extend(e for e in eps if math.isfinite(e))
        for name, value in checks.residuals.items():
            self.residuals[name] = max(self.residuals.get(name, 0.0), value)


def measure(workload, args, n_jobs: int, import_times: list[float]) -> tuple[dict, Tally, dict]:
    import workloads as wl

    workdir = OUT_DIR / f"work-{workload.name}-{os.getpid()}"
    reference_times = []
    setup_times = []
    for _ in range(SETUP_ROUNDS):
        # warm-up on inputs of a fixed seed, so set-up time does not vary
        # with the size of one seed-dependent job
        t0 = time.perf_counter()
        warm = type(workload)()
        warm.setup(WARMUP_SEED, 1, workdir / "warm-up")
        warm.run(0)
        workload.setup(args.seed, n_jobs, workdir)
        setup_times.append(time.perf_counter() - t0)

    tally = Tally()
    times: list[float] = []
    traced_times: list[float] = []
    first = None
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    start = time.perf_counter()
    for j in range(n_jobs):
        if time.perf_counter() - start > DEADLINE_S:
            break
        reference_times.append(reference_kernel())
        if tracer is None:
            out, elapsed, leaked = run_job(workload, j)
        else:
            # each job twice, untraced and traced, in alternating order
            runs = {}
            for traced in ((False, True) if j % 2 == 0 else (True, False)):
                if not traced:
                    runs[traced] = run_job(workload, j)
                    continue
                tracer.install()
                tracer.begin_job(j)
                try:
                    runs[traced] = run_job(workload, j)
                finally:
                    tracer.end_job()
                    tracer.uninstall()
            out, elapsed, leaked = runs[False]
            traced_times.append(runs[True][1])
        times.append(elapsed)
        tally.leaked_warnings += leaked
        checks = workload.check(j, out)
        if tracer is not None:
            tally.nondeterministic += [f"job{j}:{k}" for k in wl.same_rules(out.ops, runs[True][0].ops)]
        if j == 0:
            first = out
        tally.add(out, checks)
    if tracer is None:
        tally.nondeterministic += [f"job0:{k}" for k in wl.same_rules(first.ops, workload.run(0).ops)]
    shutil.rmtree(workdir, ignore_errors=True)

    resid = wl.moment_residual(first.models, workload.oracle_kmax()) if not args.trace else None
    info = {
        "setup_s": statistics.median(i + s for i, s in zip(import_times, setup_times)),
        "import_times": import_times,
        "setup_rounds_s": setup_times,
        "times": times,
        "traced_times": traced_times,
        "moment_resid": resid,
        "tracer": tracer,
        "speed": REFERENCE_S / statistics.median(reference_times),
        "reference_runs": len(reference_times),
    }
    return info, tally, workload.describe()


def end_to_end(info: dict, tally: Tally) -> tuple[dict, list[str]]:
    """name -> (value, unit, sample note) for every end-to-end metric."""
    times = info["times"]
    value, pct = tail(times)
    metrics = {
        "setup_s": (info["setup_s"], "s", f"median of {SETUP_ROUNDS} rounds of import + set-up"),
        "job_s_p50": (statistics.median(times), "s", f"n={len(times)} jobs"),
        "job_s_tail": (value, "s", f"p{pct:.1f}, n={len(times)} jobs, 10 beyond"),
    }
    for degree in (4, 10):
        eps = tally.eps.get(degree, [math.nan])
        high = float(np.percentile(eps, ACCURACY_PERCENTILE))
        metrics[f"ortho_err_log10_deg{degree}"] = (
            digits_lost(high), "log10_eps",
            f"p{ACCURACY_PERCENTILE} {high:.3e}, worst {max(eps):.3e}, n={len(eps)} rules")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "n=1 process")
    rate = tally.failed / tally.attempted
    resid, unresolved = info["moment_resid"]
    lines = [
        f"report error_rate = {tally.failed}/{tally.attempted} = {rate!r} "
        f"(operations; by class {json.dumps(tally.by_class, sort_keys=True)})",
        f"report moment_resid_log10_max = {math.log10(resid) if resid else -math.inf!r} "
        f"log10 (worst {resid:.3e}, first job, both variants, k = 0..kmax, n=1 job; "
        f"{unresolved} moments where the oracle did not converge)",
        f"report leaked_warnings = {tally.leaked_warnings} count (numpy RuntimeWarnings)",
    ]
    return metrics, lines


def per_layer(info: dict, tally: Tally) -> dict:
    """name -> (value, unit, sample note) for every per-layer metric."""
    from spans import LAYERS, job_profiles

    tracer = info["tracer"]
    profiles = list(job_profiles(tracer.spans).values())
    timed = f"median over n={len(profiles)} traced jobs"
    total = f"total over n={len(profiles)} traced jobs"

    def med(get) -> float:
        return statistics.median(get(p) for p in profiles)

    def count(get) -> int:
        return sum(get(p) for p in profiles)

    m = {}
    for name, spans in SPAN_TIMES.items():
        m[name] = (med(lambda p: sum(p["name_s"].get(s, 0.0) for s in spans)), "s", timed)
    for name, span in SPAN_SELF_TIMES.items():
        m[name] = (med(lambda p: p["name_self_s"].get(span, 0.0)), "s", timed)
    for name, key in SPAN_COUNTS.items():
        m[name] = (count(lambda p: p["counts"].get(key, 0)), "count", total)
    draw_s = count(lambda p: p["name_s"].get("interp.draw_samples", 0.0))
    draws = m["interp.draws"][0]
    m["interp.draw_us_per_draw"] = (1e6 * draw_s / draws if draws else 0.0, "us", total)
    m["orthopoly.kappa_failures"] = (
        count(lambda p: p["errors"].get("orthopoly.compute_recurrence:KappaNotPositiveError", 0)),
        "count", total)
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = (med(lambda p: p["busy_s"].get(layer, 0.0)), "s", timed)
        m[f"{layer}.self_s"] = (med(lambda p: p["self_s"].get(layer, 0.0)), "s", timed)
        m[f"{layer}.calls"] = (count(lambda p: p["calls"].get(layer, 0)), "count", total)
    traced = statistics.median(info["traced_times"])
    untraced = statistics.median(info["times"])
    pairs = f"n={len(info['times'])} jobs, each run untraced and traced"
    m["trace.job_s_p50"] = (traced, "s", pairs)
    m["trace.untraced_job_s_p50"] = (untraced, "s", pairs)
    paired = [t - u for t, u in zip(info["traced_times"], info["times"])]
    m["trace.overhead_s"] = (statistics.median(paired), "s", pairs + ", median of differences")
    m["trace.spans"] = (len(tracer.spans), "count", total)
    m["leaked_warnings"] = (tally.leaked_warnings, "count", "total over untraced jobs")
    return m


def run_one(args) -> int:
    import_times = import_gpcquad()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads as wl

    OUT_DIR.mkdir(exist_ok=True)
    workload = wl.WORKLOADS[args.workload]()
    n_jobs = max(MIN_JOBS, round(args.seconds / NOMINAL_JOB_S[args.workload]))
    if args.trace:
        n_jobs = max(MIN_JOBS, n_jobs // 2)  # each job runs twice: untraced and traced
    info, tally, described = measure(workload, args, n_jobs, import_times)

    print("machine " + json.dumps(machine_record(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          + json.dumps(described, sort_keys=True))
    print("loop closed, 1 caller, jobs " + str(len(info["times"]))
          + f", ops {tally.attempted}, set-up rounds "
          + " ".join(f"{t:.4f}" for t in info["setup_rounds_s"]) + " s, imports "
          + " ".join(f"{t:.4f}" for t in info["import_times"]) + " s")
    if args.trace:
        metrics = per_layer(info, tally)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        info["tracer"].write(trace_file)
        lines = [f"report spans written to {trace_file.relative_to(ROOT)}"]
    else:
        metrics, lines = end_to_end(info, tally)
    # express job and layer times at the reference host speed, keeping the raw
    # value in the note; setup_s stays raw, as its imports run in other processes
    speed = info["speed"]
    for name, (value, unit, note) in metrics.items():
        if unit in ("s", "us") and name != "setup_s":
            metrics[name] = (value * speed, unit, f"{note}; raw {value!r}")
    print(f"host speed factor {speed!r} = {REFERENCE_S} s / median of "
          f"{info['reference_runs']} reference-kernel runs")
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} = {value!r} {unit} ({note})")
    for line in lines:
        print(line)
    print("checks residuals " + json.dumps(dict(sorted(tally.residuals.items()))))
    print("checks not reproducible " + json.dumps(tally.nondeterministic))
    print(json.dumps({
        "correct": not tally.nondeterministic,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process (so peak RSS is per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
