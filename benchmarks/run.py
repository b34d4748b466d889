"""nematicflow benchmark: one workload per process, one caller, closed loop.

    python3 benchmarks/run.py --workload decay-64 --seed 1 --seconds 55 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 55 --trace 1

A run repeats whole rounds (cold set-up, a fixed number of planned steps,
property checks, writing ``records.csv``, snapshots and a manifest) until
``--seconds`` have passed.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` every round is traced and it reports the
per-layer metrics, then measures the tracing overhead on alternating
untraced and traced stretches of one trajectory.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Outputs go to ``.bench_build/nematicflow/`` under the repository root.
``--workload all`` runs every workload in its own process, one after the
other, and ends with one JSON object for all of them.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: a run measures one single-threaded
# caller, and thread counts must not vary between machines or runs.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT_ROOT = ROOT / ".bench_build" / "nematicflow"
WORKLOAD_NAMES = ("energy-law-64", "decay-64", "decay-128")


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics listed in
    ``BENCHMARK.json``, the one place where the metrics are named."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p99(xs):
    return statistics.quantiles(xs, n=100, method="inclusive")[98] if len(xs) > 1 else median(xs)


# ---------------------------------------------------------------------------
# provenance and determinism


def tree_digest(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        h.update(str(path.relative_to(top)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip()


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(),
        "source_sha256": tree_digest(SRC),
        "benchmark_sha256": tree_digest(BENCH),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def record_digest(workload: str, prov: dict, digest: str) -> str | None:
    """Compare with the digest stored for the same workload, seed, program,
    benchmark and libraries; return the stored digest when they differ."""
    store = OUT_ROOT / "digests.json"
    key = "|".join([workload, f"seed={prov['seed']}", prov["source_sha256"], prov["benchmark_sha256"],
                    prov["numpy"], prov["scipy"], prov["blas"]])
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        return None if known[key] == digest else known[key]
    known[key] = digest
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return None


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(rounds) -> dict:
    return {
        "setup_s": median([r.setup_s for r in rounds]),
        "steps_per_s": median([r.steps_per_s for r in rounds]),
        "verdict_s": median([r.verdict_s for r in rounds]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(tracer, traced) -> dict:
    """Per-layer numbers from the spans of the traced rounds."""
    dur: dict = {}
    self_t: dict = {}
    notes: dict = {}
    for name, start, end, _parent, child, ph, note in tracer.spans:
        key = (name, ph)
        dur.setdefault(key, []).append(end - start)
        self_t.setdefault(key, []).append(end - start - child)
        if note is not None:
            notes.setdefault(key, []).append(note)

    def d(name, ph="stepping"):
        return dur.get((name, ph), [])

    def d_all(name):
        return [x for (n, _), xs in dur.items() if n == name for x in xs]

    steps = sum(r.steps for r in traced) or 1
    heat = d("linsolve.heat")
    ms = 1e3
    return {
        "linsolve.projection_ms": median(d("linsolve.projection")) * ms,
        "linsolve.projection_p99_ms": p99(d("linsolve.projection")) * ms,
        "linsolve.projection_first_ms": median(d("linsolve.projection", "setup")) * ms,
        "linsolve.heat_ms": median(heat) * ms,
        "linsolve.heat_gflops": (sum(notes.get(("linsolve.heat", "stepping"), [])) / sum(heat) / 1e9
                                 if heat else 0.0),
        "linsolve.poisson_ms": median(d_all("linsolve.poisson")) * ms,
        "linsolve.poisson_calls_per_step": len(d("linsolve.poisson")) / steps,
        "lifting.update_ms": median(d("lifting.update")) * ms,
        "dynamics.step_ms": median(d("dynamics.step")) * ms,
        "dynamics.step_p99_ms": p99(d("dynamics.step")) * ms,
        "dynamics.rhs_self_ms": median(self_t.get(("dynamics.step", "stepping"), [])) * ms,
        "dynamics.loop_self_ms_per_step": sum(self_t.get(("dynamics.run", "stepping"), [])) / steps * ms,
        "diagnostics.energy_record_ms": median(d("diagnostics.energy_record")) * ms,
        "diagnostics.checks_s": median(d("checks", "checks")),
        "steady.reference_s": median(d("steady.reference", "setup")),
        "steady.gradient_flow_iters": median(notes.get(("steady.gradient_flow", "setup"), [])),
        "steady.newton_s": median(d("steady.newton", "setup")),
        "harness.write_s": median(d("write", "write")),
        "harness.records_bytes": median([r.records_bytes for r in traced]),
        "grid.field_inits_per_step": len(d("grid.field_init")) / steps,
        "grid.field_init_us": median(d("grid.field_init")) * 1e6,
    }


# ---------------------------------------------------------------------------
# one workload in this process


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import selftest
    from tracing import Tracer
    from workloads import WORKLOADS, run_round, tracing_overhead

    wl = WORKLOADS[args.workload]
    out_dir = OUT_ROOT / wl.name / f"seed-{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    prov = provenance(args.seed)

    selftest_failures = [name for name, ok, _ in selftest.run_selftests() if not ok]

    tracer = Tracer() if args.trace else None
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        if tracer is None:
            rounds.append(run_round(wl, args.seed, out_dir))
        else:
            with tracer.installed():
                rounds.append(run_round(wl, args.seed, out_dir, tracer))

    attempted = len(rounds) * wl.steps
    failed = sum(r.failed for r in rounds)
    ok_rounds = [r for r in rounds if r.error is None]
    failing_checks = sorted({c.name for r in ok_rounds for c in r.checks if not c.passed})
    errors = sorted({f"{r.error} (residual {r.residual:.6g})" if r.residual is not None else r.error
                     for r in rounds if r.error})
    # A set-up that fails on the workload's named fault is an expected,
    # counted failure; any other error makes the run incorrect.
    unexpected = [e for e in errors if wl.expected_error is None or wl.expected_error not in e]

    digests = sorted({r.records_sha256 for r in rounds if r.records_sha256})
    digest_problem = None
    if len(digests) > 1:
        digest_problem = f"records.csv differs between rounds of one run: {digests}"
    elif digests:
        stored = record_digest(wl.name, prov, digests[0])
        if stored is not None:
            digest_problem = f"records.csv digest {digests[0]} differs from earlier run's {stored}"
    prov["records_sha256"] = digests[0] if digests else None

    problems = [*failing_checks, *unexpected, *(f"self-test failed: {n}" for n in selftest_failures)]
    if digest_problem:
        problems.append(digest_problem)

    if tracer is None:
        values = end_to_end_metrics(rounds)
    else:
        values = layer_metrics(tracer, rounds)
        values["trace.overhead_pct"] = tracing_overhead(wl, args.seed) if any(r.steps for r in rounds) else 0.0
        tracer.write_csv(out_dir / "spans.csv")
    units = metric_units("per_layer" if tracer else "end_to_end")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    print(f"workload {wl.name}: {len(rounds)} {'traced ' if tracer else ''}rounds of "
          f"{wl.steps} planned steps, seed {args.seed}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for k, m in metrics.items():
        print(f"  {k:<34} {m['value']:14.6g} {m['unit']}")
    if ok_rounds:
        for c in ok_rounds[-1].checks:
            print("  " + c.line())
    for e in errors:
        print(f"  error: {e}; failed steps {failed} of {attempted}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")

    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(
        {**result, "provenance": prov, "errors": errors, "rounds": len(rounds)}, indent=1))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# every workload, each in its own process


def run_all(args) -> int:
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}\n")
        totals["correct"] &= res["correct"]
        totals["attempted"] += res["attempted"]
        totals["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            totals["metrics"][f"{name}.{k}"] = m
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nematicflow" / "__init__.py").is_file():
        sys.stderr.write(f"nematicflow sources not found under {SRC}; run from a full checkout\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("--seconds must be positive\n")
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
