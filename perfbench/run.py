"""Benchmark of monoscheme, end to end and per layer.

    python3 perfbench/run.py --workload {flow3d,line1d,fields3d} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root; it imports monoscheme from `src/` of the
same checkout and writes only under `.perfbench_work/` (removed on exit) and
`.perfbench_out/` (span files of traced runs).

--trace 0 repeats the workload back to back for S seconds with tracing off
and reports wall_s (median over the repetitions), setup_s (median over
fresh interpreters started between the repetitions) and peak_rss_mb.

--trace 1 gives the per-layer metrics. It runs untraced and traced passes
of the named workload in pairs for S seconds (their difference is
trace.overhead_s), one such pair of each other workload (every layer metric
has a home workload), then the micro-probes and, last, the tracemalloc pass.

Every pass checks its outputs against reference.json. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; lines before it start with '#' and explain the run.
"""

from __future__ import annotations

import os
import sys

# Pin the BLAS/OpenMP pools before numpy loads. The dense 1D solves give
# different bits, and timestep different step counts, with two threads than
# with one; one thread is also the steadiest on a shared machine.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_RUNS = 7

WORKLOAD_NAMES = ("flow3d", "line1d", "fields3d")


def load_program() -> None:
    """Put this checkout's monoscheme first on the path, or stop."""
    if not (SRC / "monoscheme" / "__init__.py").is_file():
        sys.exit(f"error: no monoscheme package under {SRC}")
    sys.path.insert(0, str(SRC))
    import monoscheme

    if Path(monoscheme.__file__).resolve().parent != SRC / "monoscheme":
        sys.exit(f"error: monoscheme was imported from {monoscheme.__file__}, not {SRC}")


def _parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="problem sizes; small serves the self-test")
    ap.add_argument("--reference", type=Path, default=REFERENCE,
                    help="recorded outputs to check against")
    ap.add_argument("--setup-only", action="store_true",
                    help="import the program, build the inputs and exit (times setup_s)")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Passes and checks
# ---------------------------------------------------------------------------


def run_pass(ops) -> tuple[float, list[tuple[object, str | None]]]:
    """Run every operation once, in order; return the summed call time and
    (result, error) per operation. CLI chatter on stdout is discarded."""
    results = []
    wall = 0.0
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for op in ops:
            if op.out is not None:
                shutil.rmtree(op.out, ignore_errors=True)
            t0 = perf_counter()
            try:
                value, error = op.run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                value, error = None, f"{type(exc).__name__}: {exc}"
            wall += perf_counter() - t0
            results.append((value, error))
    return wall, results


def check_pass(ops, results, ref: dict) -> list[dict]:
    """One record per operation: problems, answer drift and whether the
    outputs are bitwise identical to the reference."""
    from workloads import Outcome, compare

    records = []
    for op, (value, error) in zip(ops, results):
        if error is None:
            try:
                outcome = op.check(value)
            except Exception as exc:  # unreadable outputs fail the operation
                outcome = Outcome(problems=[f"output check raised {type(exc).__name__}: {exc}"])
        else:
            outcome = Outcome(problems=[error])
        record = compare(outcome, ref[op.name])
        record.update(op=op.name, counts=outcome.counts)
        records.append(record)
    return records


def summarize(records: list[dict], extra_checks: list[str] = ()) -> dict:
    attempted = len(records) + len(extra_checks)
    failed = sum(1 for r in records if r["problems"]) + sum(1 for c in extra_checks if c)
    return {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "answer_drift": max(r["drift"] for r in records),
        "bitwise": all(r["bitwise"] for r in records),
        "counts_match": all(r["counts_match"] for r in records),
        "problems": sorted({f"{r['op']}: {p}" for r in records for p in r["problems"]}
                           | {c for c in extra_checks if c}),
    }


def percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"n={n}, too few runs for a tail percentile"
    q = math.floor(100 * (1 - 10 / n))
    value = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return f"p{q}={value:.6g} n={n}"


def environment(args, index: int) -> dict:
    import numpy
    import scipy
    from workloads import SCALES, largest_array_bytes

    def cache_bytes(level: int) -> int | None:
        try:
            proc = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                                  text=True, check=False, timeout=10)
        except OSError:
            return None
        return int(proc.stdout) if proc.stdout.strip().isdigit() and int(proc.stdout) > 0 else None

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False, timeout=10)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "monoscheme").rglob("*")):
        if path.suffix in (".py", ".cfg"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "seed": args.seed,
        "input_set": index,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "largest_array_bytes": largest_array_bytes(args.workload, SCALES[args.size]),
        "l2_cache_bytes": cache_bytes(2),
        "l3_cache_bytes": cache_bytes(3),
    }


def assemble(values: dict[str, float]) -> tuple[dict, list[str]]:
    """Per-layer metrics in catalog order with their units, and the names
    of any that were not measured or are not finite."""
    from catalog import PER_LAYER

    metrics, missing = {}, []
    for name, unit, _, _ in PER_LAYER:
        value = values.get(name)
        if value is None or not math.isfinite(value):
            missing.append(name)
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics, missing


def load_reference(path: Path, size: str, workload: str, index: int) -> dict:
    with open(path) as fh:
        return json.load(fh)[size][workload][str(index)]


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def setup_only(args, workdir: Path) -> None:
    from workloads import SCALES, build, pool_index

    build(args.workload, pool_index(args.workload, args.seed), SCALES[args.size], workdir)


def setup_once(args) -> float:
    """Wall time of one fresh interpreter that imports the program and
    builds the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--trace", "0", "--size", args.size]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=False, timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup run failed: {proc.stderr.strip()}")
    return elapsed


def warm_up(workload: str, index: int, workdir: Path) -> None:
    """One small pass, so imports, caches and lazy set-up finish before timing."""
    from workloads import SCALES, build

    run_pass(build(workload, index, SCALES["small"], workdir / f"warm-{workload}"))


def plain_run(args, workdir: Path) -> tuple[dict, list[str]]:
    from workloads import SCALES, build, pool_index

    setup_once(args)  # warms the file cache; not counted
    index = pool_index(args.workload, args.seed)
    ref = load_reference(args.reference, args.size, args.workload, index)
    ops = build(args.workload, index, SCALES[args.size], workdir / "run")
    warm_up(args.workload, index, workdir)

    # Set-up runs are spread over the measuring time, between repetitions,
    # so that their median does not hang on one moment of the machine's load.
    walls, records, setup_times = [], [], []
    start = perf_counter()
    deadline = start + args.seconds
    while True:
        wall, results = run_pass(ops)
        walls.append(wall)
        records += check_pass(ops, results, ref)
        due = len(setup_times) * args.seconds / SETUP_RUNS
        if len(setup_times) < SETUP_RUNS and perf_counter() - start >= due:
            setup_times.append(setup_once(args))
        if perf_counter() >= deadline:
            break
    while len(setup_times) < SETUP_RUNS:
        setup_times.append(setup_once(args))
    setup_s = statistics.median(setup_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    s = summarize(records)
    notes = [
        f"env {json.dumps(environment(args, index), sort_keys=True)}",
        f"wall_s median={statistics.median(walls):.6g} s, {percentile_note(walls)}; "
        f"runs {json.dumps([round(w, 6) for w in walls])}",
        f"setup_s median={setup_s:.6g} s over {len(setup_times)} fresh interpreters",
        f"peak_rss_mb={rss_mb:.6g} MB",
        f"fail_ratio={s['fail_ratio']:.6g} ({s['failed']}/{s['attempted']} operations)",
        f"answer_drift={s['answer_drift']:.6g} (bitwise identical to reference: {s['bitwise']}; "
        f"counts match reference: {s['counts_match']})",
        "counts " + json.dumps({r["op"]: r["counts"] for r in records[-len(ops):]}, sort_keys=True),
    ] + [f"problem: {p}" for p in s["problems"]]
    result = {
        "correct": s["failed"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
    }
    return result, notes


def traced_run(args, workdir: Path) -> tuple[dict, list[str]]:
    import probes
    import tracing
    from workloads import SCALES, build, pool_index

    order = [args.workload] + [w for w in WORKLOAD_NAMES if w != args.workload]
    for w in order:
        warm_up(w, pool_index(w, args.seed), workdir)

    records, checks, passes = [], [], []
    layer_values: dict[str, list[float]] = {}
    notes = []
    for w in order:
        index = pool_index(w, args.seed)
        ref = load_reference(args.reference, args.size, w, index)
        ops = build(w, index, SCALES[args.size], workdir / w)
        deadline = perf_counter() + args.seconds
        while True:
            untraced, results = run_pass(ops)
            records += check_pass(ops, results, ref)
            with tracing.Tracer(f"{w}#{len(passes)}") as tracer:
                traced, results = run_pass(ops)
            records += check_pass(ops, results, ref)
            overhead = traced - untraced
            checks += tracing.trace_checks(w, tracer.spans, ops, traced, overhead)
            found = tracing.span_metrics(w, tracer.spans)
            if w == args.workload:
                found["trace.overhead_s"] = overhead
            else:
                found = {k: v for k, v in found.items() if not k.startswith("cli.")}
            for key, value in found.items():
                layer_values.setdefault(key, []).append(value)
            passes.append({"run": tracer.run_id, "workload": w, "untraced_wall_s": untraced,
                           "traced_wall_s": traced, "spans": tracer.spans})
            if w != args.workload or perf_counter() >= deadline:
                break
        if w == "flow3d":
            notes.append(tracing.solve_share_note(passes[-1]))

    values = {k: statistics.median(v) for k, v in layer_values.items()}
    probe_values, samples = probes.run_probes(pool_index("fields3d", args.seed))
    values.update(probe_values)
    values["ns3d.iterate_peak_kb.N20"] = probes.iterate_peak_kb(20)

    metrics, missing = assemble(values)
    s = summarize(records, checks + [f"layer metric not measured: {m}" for m in missing])
    env = environment(args, pool_index(args.workload, args.seed))
    TRACE_OUT.mkdir(exist_ok=True)
    trace_file = TRACE_OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_file, "w") as fh:
        json.dump({"env": env, "passes": passes, "probe_samples": samples,
                   "problems": s["problems"]}, fh)
    notes = [
        f"env {json.dumps(env, sort_keys=True)}",
        f"traced passes: {sum(p['workload'] == args.workload for p in passes)} of "
        f"{args.workload}, one of each other workload; spans written to "
        f"{trace_file.relative_to(ROOT)}",
        f"probe samples {json.dumps(samples, sort_keys=True)}",
        *notes,
        f"fail_ratio={s['fail_ratio']:.6g} ({s['failed']}/{s['attempted']} operations and checks)",
        f"answer_drift={s['answer_drift']:.6g} (bitwise identical to reference: {s['bitwise']})",
    ] + [f"problem: {p}" for p in s["problems"]]
    result = {"correct": s["failed"] == 0, "attempted": s["attempted"],
              "failed": s["failed"], "metrics": metrics}
    return result, notes


def main(argv=None) -> int:
    args = _parse_args(argv)
    load_program()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            setup_only(args, workdir)
            return 0
        result, notes = (traced_run if args.trace else plain_run)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    for line in notes:
        print(f"# {line}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
