"""frontlab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload kdvb_decay --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; frontlab is imported from its `src/`.
The run builds the workload's inputs from the seed, runs one tiny warm-up
pass, then runs full passes until `--seconds` have gone by and reports
medians over the passes.  Every pass checks its outputs (see
workloads.py).

--trace 0 prints the end-to-end metrics, measured with nothing rebound.
--trace 1 runs one untraced reference pass and then traced passes, and
prints the per-layer metrics, including the traced pass time and its
overhead over the reference pass.  The spans go to
.bench_out/trace_<workload>_<seed>.json.

The second-to-last stdout line is a JSON record of the run (environment,
inputs, every pass with its host-drift probe, failures); the last line is
the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "certs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# <module>.<function>.{calls,self_s,errors}, from the traced passes
PER_LAYER = {
    "evolution.nonlin.calls": "count",
    "evolution.nonlin.self_s": "s",
    "evolution.advance.calls": "count",
    "evolution.advance.self_s": "s",
    "evolution.evolve.self_s": "s",
    "evolution.make_stepper.self_s": "s",
    "spectral.lp_norm.calls": "count",
    "spectral.lp_norm.self_s": "s",
    "spectral.weighted_l2.self_s": "s",
    "diagnostics.append.calls": "count",
    "fronts.phi_prime_at.self_s": "s",
    "spectral.trig_interpolate.calls": "count",
    "spectral.trig_interpolate.self_s": "s",
    "certify.certify_front.calls": "count",
    "certify.certify_front.self_s": "s",
    "certify.certify_front.errors": "count",
    "certify.count_below.calls": "count",
    "certify.count_below.self_s": "s",
    "fronts.shoot_local_front.self_s": "s",
    "fronts.solve_ivp.calls": "count",
    "fronts.newton_front.self_s": "s",
    "fronts.lgmres.calls": "count",
    "fronts.operator_on_reference.self_s": "s",
    "fronts.profile_residual.calls": "count",
    "fronts.front_for_operator.errors": "count",
    "symbols.values.calls": "count",
    "symbols.values.self_s": "s",
    "evolution.cole_hopf_exact.self_s": "s",
    "runio.write_field_csv.calls": "count",
    "runio.write_field_csv.self_s": "s",
    "runio.write_series_csv.self_s": "s",
    "runio.read_series_csv.self_s": "s",
    "runio.bytes_written": "bytes",
    "config.from_ini.self_s": "s",
    "cli.cmd_simulate.self_s": "s",
    "cli.cmd_rates.self_s": "s",
    "diagnostics.compare_to_theorem.self_s": "s",
    "diagnostics.check_energy_inequality.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_pct": "%",
}


def prepare_environment():
    """Pin BLAS threads to the usable cores before numpy loads, and put the
    checkout's `src/` first on the import path."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = nproc
    if not (SRC / "frontlab" / "__init__.py").is_file():
        raise SystemExit(f"frontlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def drift_probe() -> float:
    """Seconds for a fixed numpy FFT loop; recorded, never used to rescale."""
    import numpy as np

    x = np.cos(0.01 * np.arange(4096))
    start = time.perf_counter()
    for _ in range(1000):
        np.fft.ifft(np.fft.fft(x))
    return time.perf_counter() - start


def setup_times(workload: str, seed: int) -> list[float]:
    """Process start until inputs are built, in fresh interpreters."""
    out = []
    for _ in range(SETUP_REPEATS):
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "setup_probe.py"), workload,
                 str(seed), workdir], stdout=subprocess.PIPE, text=True)
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=120)
            if proc.returncode != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
            out.append(elapsed)
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "frontlab").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def timed_pass(workload) -> tuple[dict, object]:
    before = drift_probe()
    start = time.perf_counter()
    res = workload.run_pass()
    wall = time.perf_counter() - start
    record = {"wall_s": wall, "steps": res.steps, "certs": res.certs,
              "attempted": res.attempted, "failed": res.failed,
              "failures": res.failures, "figures": res.figures,
              "drift_before_s": before, "drift_after_s": drift_probe()}
    return record, res


def layer_metrics(per_run, passes, reference_wall) -> tuple[dict, list]:
    """Per-layer values per traced pass, then medians over the passes."""
    rows = []
    for run_id, record in enumerate(passes):
        stats = per_run.get(run_id, {})
        row = {}
        for name in PER_LAYER:
            key, _, field = name.rpartition(".")
            row[name] = stats.get(key, {}).get(field, 0)
        row["runio.bytes_written"] = record["figures"].get("run_dir_bytes", 0)
        row["trace.wall_s"] = record["wall_s"]
        row["trace.overhead_pct"] = 100.0 * (record["wall_s"] / reference_wall - 1.0)
        rows.append(row)
    return {name: statistics.median(row[name] for row in rows)
            for name in PER_LAYER}, rows


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> tuple[dict, dict]:
    """One benchmark run; returns (record, result)."""
    OUT.mkdir(exist_ok=True)
    setup = [] if trace else setup_times(workload_name, seed)

    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    cls = workloads.WORKLOADS[workload_name]
    passes, attempted, failed, failures = [], 0, 0, []
    unpatched = True

    def untraced_pass(wl):
        nonlocal unpatched
        unpatched = unpatched and tracer.pristine()
        record, res = timed_pass(wl)
        unpatched = unpatched and tracer.pristine()
        return record, res

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        warm_dir = Path(workdir) / "warmup"
        warm_dir.mkdir()
        warm = cls(seed, warm_dir, size="tiny").run_pass()
        attempted, failed = warm.attempted, warm.failed
        failures += [f"warm-up {f}" for f in warm.failures]

        wl = cls(seed, workdir, size=size)
        start = time.perf_counter()
        reference = None
        if trace:
            reference, res = untraced_pass(wl)
            attempted, failed = attempted + res.attempted, failed + res.failed
            failures += res.failures
            tracer.install()
        try:
            while True:
                tracer.run_id = len(passes)
                if trace:
                    record, res = timed_pass(wl)
                else:
                    record, res = untraced_pass(wl)
                passes.append(record)
                attempted, failed = attempted + res.attempted, failed + res.failed
                failures += res.failures
                if time.perf_counter() - start >= seconds:
                    break
        finally:
            tracer.restore()
        unpatched = unpatched and tracer.pristine()

    walls = [p["wall_s"] for p in passes]
    record = {
        "benchmark": "frontlab",
        "workload": workload_name,
        "trace": int(trace),
        "size": size,
        "env": environment(seed),
        "inputs": wl.inputs,
        "setup_samples_s": setup,
        "passes": passes,
        "pass_count": len(passes),
        "steps_per_s": statistics.median(p["steps"] / p["wall_s"] for p in passes),
        "fail_frac": failed / attempted,
        "unpatched_untraced_passes": unpatched,
        "failures": failures,
    }
    figures = [p["figures"] for p in passes]
    if any("oracle_err" in f for f in figures):
        record["oracle_err"] = max(f["oracle_err"] for f in figures
                                   if "oracle_err" in f)
    if trace:
        summary = tracer.per_run()
        values, rows = layer_metrics(summary, passes, reference["wall_s"])
        record["reference_pass"] = reference
        record["layer_rows"] = rows
        record["trace_invariants"] = {
            "count_below_per_certificate":
                [r["certify.count_below.calls"] / r["certify.certify_front.calls"]
                 if r["certify.certify_front.calls"] else None for r in rows],
            "nonlin_per_advance":
                [r["evolution.nonlin.calls"] / r["evolution.advance.calls"]
                 if r["evolution.advance.calls"] else None for r in rows],
        }
        trace_path = OUT / f"trace_{workload_name}_{seed}.json"
        tracer.write(trace_path, summary)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "certs_per_s": statistics.median(p["certs"] / p["wall_s"]
                                             for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0 and unpatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["kdvb_decay", "nu_sweep", "operator_matrix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    prepare_environment()
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
