"""densem benchmark: one closed-loop client per workload, every answer checked.

Run from the root of a source checkout (densem is imported from ./src):

    python3 perfbench/run.py --workload word-entail --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
ops twice, untraced then traced, and reports per-layer metrics from spans
taken around the calls into densem. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
perfbench/README.md lists the workloads, metrics and the layer-to-metric
mapping.
"""

import os

# BLAS threads must be pinned before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("save_ms.p50", "ms"),
    ("file_bytes", "B"),
]


def import_densem():
    """Import densem from ./src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "densem" / "__init__.py").is_file():
        raise SystemExit(f"error: no densem sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import densem

    if Path(densem.__file__).resolve().parent != (src / "densem").resolve():
        raise SystemExit(f"error: densem imported from {densem.__file__}, not {src}")
    return densem


def context() -> dict:
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(wl, seconds: float, tracer=None, setup_s=None):
    """Run whole blocks of ops until ``seconds`` pass; at least one block.

    With a tracer, each block runs twice, untraced and then traced, so both
    see the same ops under the same machine load. With a ``setup_s`` list,
    set-up runs again between blocks at evenly spaced times, so its median
    spans the run like the ops do. Returns the untraced and traced per-op
    durations in ns and the set of failed op ids. An op fails when it
    raises, or when its check or a post-loop check rejects it.
    """
    plain, traced, failed = [], [], set()
    attempted = 0

    def run_block(specs, durations):
        nonlocal attempted
        for spec in specs:
            op, attempted = attempted, attempted + 1
            span = None
            if wl.tracer is not None:
                wl.tracer.op = op
                span = wl.tracer.begin("op")
            t0 = time.perf_counter_ns()
            try:
                out = wl.run(spec)
                error = None
            except Exception:
                error = traceback.format_exc()
            durations.append(time.perf_counter_ns() - t0)
            if span is not None:
                wl.tracer.end(span)
                wl.tracer.op = None
            try:
                ok = error is None and wl.check(op, spec, out)
            except Exception:
                ok, error = False, traceback.format_exc()
            if not ok:
                failed.add(op)
                if len(failed) <= 3:
                    print(f"op {op} failed: {spec!r}\n{error or 'check rejected the output'}",
                          file=sys.stderr)

    start = time.perf_counter()
    setups_due = [seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)] if setup_s else []
    block = 0
    while block == 0 or time.perf_counter() - start < seconds:
        if setups_due and time.perf_counter() - start >= setups_due[0]:
            setups_due.pop(0)
            setup_s.append(timed(wl.setup))
        specs = wl.specs(block)
        run_block(specs, plain)
        if tracer is not None:
            undo = spans.instrument(tracer)
            wl.tracer = tracer
            try:
                run_block(specs, traced)
            finally:
                wl.tracer = None
                undo()
        block += 1
    failed |= wl.finish()
    return plain, traced, failed


def end_to_end(wl, setup_s, durations) -> dict:
    ms = [d / 1e6 for d in durations]
    q = statistics.quantiles(ms, n=100, method="inclusive")
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    values = {
        "setup_s": statistics.median(setup_s),
        "op_ms.p50": q[49],
        "op_ms.p90": q[89],
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "peak_rss_mb": rss_kb / 1024,
        "save_ms.p50": statistics.median(wl.save_s) * 1e3,
        "file_bytes": float(wl.file_bytes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run_one(args) -> dict:
    from workloads import WORKLOADS

    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        setup_s = [timed(wl.setup)]
        if wl.warmup:
            measure(wl, 0.0)
        if not args.trace:
            plain, _, failed = measure(wl, args.seconds, setup_s=setup_s)
            metrics = end_to_end(wl, setup_s, plain)
            attempted = len(plain)
        else:
            tracer = spans.Tracer()
            plain, traced, failed = measure(wl, args.seconds, tracer)
            processes = [tracer.spans, *wl.child_spans]
            metrics = spans.layer_metrics(processes, len(traced), sum(traced), sum(plain))
            attempted = len(plain) + len(traced)
            trace_dir = OUT / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            with open(trace_dir / f"{args.workload}-seed{args.seed}.jsonl", "w") as handle:
                for process, records in enumerate(processes):
                    for span in records:
                        handle.write(json.dumps([process, *span]) + "\n")
    finally:
        wl.cleanup()
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }


def report(workload: str, seed: int, trace: int, result: dict, ctx: dict):
    """Print a readable table and keep the full record under .perfbench/results."""
    failed_frac = result["failed"] / result["attempted"]
    print(f"# densem benchmark: workload={workload} seed={seed} trace={trace}")
    print(f"#   ops attempted={result['attempted']} failed={result['failed']}"
          f" failed_frac={failed_frac:.6g} (ratio)")
    for name, metric in result["metrics"].items():
        print(f"#   {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"#   context: {json.dumps(ctx)}")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": trace, "context": ctx,
              "failed_frac": failed_frac, **result}
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=2))


def run_all(args) -> dict:
    """Each workload in its own process, so set-up and peak memory stay separate."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["word-entail", "sentence-entail", "lexicon-cli", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    import_densem()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args)
        report(args.workload, args.seed, args.trace, result, context())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
