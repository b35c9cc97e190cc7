#!/usr/bin/env python3
"""smarts-bench: end-to-end and per-layer cost of SMARTS sampling.

Run from the repository root (the package is imported from ``src/``)::

    python3 smarts_bench/run.py --workload dense --seed 0 --seconds 12 --trace 0
    python3 smarts_bench/run.py --workload sweep --trace 1   # per-layer
    python3 smarts_bench/run.py report        # rebuild the table from outputs
    python3 smarts_bench/run.py golden        # regenerate golden.json
    python3 smarts_bench/run.py selftest      # fast self-test

A run sets up (program construction plus the fill of an empty artifact
store, repeated into fresh stores), then runs the workload's batch in a
fresh interpreter until ``--seconds`` have passed, checks every estimate
against ``golden.json`` and prints every metric by name and unit.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  A
traced run first measures the untraced wall, then sets up and runs once
more with every layer entry point wrapped (see ``spans.py``).

Outputs go to ``.smarts_bench/runs/<run id>/`` (``--runs-dir``
overrides the parent directory): ``summary.json``,
``specs.jsonl`` (one line per spec execution) and, when traced, one
``spans-<pid>.jsonl`` per process.  The run's artifact stores live there
too and are deleted when it ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".smarts_bench"
GOLDEN = BENCH_DIR / "golden.json"

#: Variables that would inject faults, pick another backend or worker
#: count, or silently redirect the store; every run starts without them.
CLEARED_ENV = (
    "REPRO_FAULT_PLAN", "REPRO_BACKEND", "REPRO_WORKERS",
    "REPRO_MAX_ATTEMPTS", "REPRO_QUEUE_DIR", "REPRO_RUN_CACHE_DIR",
    "REPRO_CHECKPOINT_DIR", "REPRO_REF_CACHE_DIR", "REPRO_CACHE_DIR",
    "REPRO_ARTIFACT_DIR",
)
#: Set-up is repeated, each time into a fresh store, for SETUP_REPEAT_S
#: (at least once) both before and after the timed phase, and the
#: fastest repetition is reported.  Host speed drifts over seconds, and
#: the fastest of repetitions spread over the run depends least on it.
SETUP_REPEAT_S = 0.5
#: Seconds a timed child may take before the run fails.
CHILD_TIMEOUT_S = 170


def clean_env() -> dict:
    """The environment of every run and child.

    The variables in CLEARED_ENV are removed, the package source goes on
    ``PYTHONPATH`` and the string-hash seed is fixed.
    """
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    # Estimates do not depend on the hash seed; fixing it keeps dict
    # layouts, and so host time, equal between identical children.
    env["PYTHONHASHSEED"] = "0"
    return env


if not (SRC / "repro").is_dir():
    sys.exit(f"smarts-bench: no package source at {SRC}")
os.environ.clear()
os.environ.update(clean_env())
sys.path.insert(0, str(SRC))

from repro.api import (  # noqa: E402
    CheckpointStore,
    RunResult,
    Session,
    resolve_benchmark,
    resolve_machine,
)
from repro.functional.engine import engine_name  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, install  # noqa: E402


# ----------------------------------------------------------------------
# Outputs and their correctness
# ----------------------------------------------------------------------
def digest(result: RunResult) -> str:
    """Digest of the estimate and the per-unit records.

    Confidence intervals and ``target_met`` are left out on purpose: a
    redefinition of the interval must not read as a wrong estimate.
    """
    payload = [result.estimate_mean.hex(),
               [[u.index, u.instructions, u.cycles, float(u.energy).hex()]
                for u in result.units]]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def spec_row(payload: dict, spec, phase: str, rep: int, traced: bool,
             golden: dict, workload: str) -> dict:
    """One spec execution as a JSON-able row, checked against golden.

    ``payload`` is a ``RunResult.to_dict()`` or ``{"failure": row}``.
    """
    row = {"phase": phase, "rep": rep, "traced": traced,
           "label": workloads.label(spec), "cell": workloads.cell(spec)}
    if "failure" in payload:
        failure = payload["failure"]
        row.update(ok=False, match=False,
                   error=f"{failure['error_type']}: {failure['error']}")
        return row
    result = RunResult.from_dict(payload)
    row.update(
        ok=True,
        digest=digest(result),
        estimate=result.estimate_mean,
        true_cpi=golden.get("true_cpi", {}).get(row["cell"]),
        wall=result.wall_seconds,
        measured=result.instructions_measured,
        dwarm=result.instructions_detailed_warming,
        ff=result.instructions_fastforwarded,
        restored=result.instructions_restored,
        restores=result.checkpoint_restores,
    )
    row["match"] = row["digest"] == golden.get("digests", {}).get(
        workload, {}).get(row["label"])
    return row


def mismatches(rows: list[dict]) -> list[str]:
    """Why the rows are not correct; empty when every check passed."""
    problems = []
    for row in rows:
        if not row["ok"]:
            problems.append(f"{row['label']}: failed ({row['error']})")
        elif not row["match"]:
            problems.append(f"{row['label']}: digest {row['digest']} "
                            f"differs from golden")
        elif row["true_cpi"] is None:
            problems.append(f"{row['label']}: no true CPI for {row['cell']}")
    return problems


# ----------------------------------------------------------------------
# Set-up and the timed child
# ----------------------------------------------------------------------
def set_up(workload, store: Path) -> float:
    """Build every program and fill an empty store; host seconds."""
    os.environ["REPRO_ARTIFACT_DIR"] = str(store)
    start = time.perf_counter()
    programs = {}
    for spec in workload.specs:
        key = (spec.benchmark, spec.scale)
        if key not in programs:
            programs[key] = resolve_benchmark(spec.benchmark, spec.scale)
        if spec.checkpoints == "auto":
            CheckpointStore().get_or_build(programs[key],
                                           resolve_machine(spec.machine),
                                           spec.strategy.unit_size)
    return time.perf_counter() - start


def fresh_store(run_dir: Path) -> Path:
    return Path(tempfile.mkdtemp(dir=run_dir, prefix="store-"))


def repeat_set_up(workload, run_dir: Path, walls: list[float]) -> Path:
    """Fill fresh stores for SETUP_REPEAT_S, at least once.

    Every repetition fills an empty store, so each one times the same
    work.  Returns the store of the last repetition; the others are
    deleted.
    """
    start = time.perf_counter()
    store = None
    while store is None or time.perf_counter() - start < SETUP_REPEAT_S:
        if store is not None:
            shutil.rmtree(store)
        store = fresh_store(run_dir)
        walls.append(set_up(workload, store))
    return store


def run_child(job: dict, run_dir: Path) -> dict:
    """Run the batch in a fresh interpreter; return what it reported.

    The child leads its own process group, so a timeout also stops the
    pool workers it forked.
    """
    job_path = run_dir / f"job-{time.monotonic_ns()}.json"
    job["out"] = str(job_path.with_suffix(".out"))
    job_path.write_text(json.dumps(job))
    child = subprocess.Popen([sys.executable, str(Path(__file__)), "child",
                              str(job_path)], env=clean_env(),
                             stdout=subprocess.DEVNULL,
                             start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if code != 0:
        raise RuntimeError(f"timed child exited with code {code}")
    return json.loads(Path(job["out"]).read_text())


def child_main(job_path: str) -> None:
    """The timed phase, in its own interpreter."""
    job = json.loads(Path(job_path).read_text())
    os.environ["REPRO_ARTIFACT_DIR"] = job["store"]
    workload = workloads.build(job["workload"], job["seed"], job["tiny"])
    tracer = None
    if job["trace"]:
        tracer = Tracer(job["trace_dir"], job["run_id"],
                        root_parent=job["parent_span"])
        install(tracer)
    session = Session(backend=workload.backend, max_workers=workload.workers,
                      use_cache=workload.cached)

    def batch(phase):
        with tracer.span(f"bench.{phase}") if tracer else nullcontext():
            start = time.perf_counter()
            report = session.run_batch_report(workload.specs)
            return report, time.perf_counter() - start

    def entries(report):
        return [e.to_dict() if isinstance(e, RunResult)
                else {"failure": e.row()} for e in report.entries]

    cold, wall = batch("cold")
    out = {"wall": wall, "cold": entries(cold)}
    if workload.cached:
        warm, _ = batch("warm")
        out["warm"] = entries(warm)
    if tracer is not None:
        tracer.flush()
    Path(job["out"]).write_text(json.dumps(out))
    # Skip interpreter teardown: freeing decoded checkpoint sets takes
    # seconds and produces nothing.
    os._exit(0)


def timed_rep(workload, args, store: Path, run_dir: Path, rep: int,
              golden: dict, tracer: Tracer | None = None) -> tuple:
    """One execution of the batch: (wall seconds, rows, problems)."""
    job = {"workload": workload.name, "seed": args.seed, "tiny": args.tiny,
           "store": str(store), "trace": tracer is not None,
           "trace_dir": str(run_dir), "run_id": run_dir.name,
           "parent_span": None}
    if tracer is None:
        out = run_child(job, run_dir)
    else:
        with tracer.span("bench.child") as span_id:
            job["parent_span"] = span_id
            out = run_child(job, run_dir)
    traced = tracer is not None
    rows = [spec_row(p, s, "cold", rep, traced, golden, workload.name)
            for p, s in zip(out["cold"], workload.specs)]
    problems = mismatches(rows)
    if "warm" in out:
        # A cache hit returns the stored payload, wall time included; a
        # recomputation would not reproduce the cold pass's wall time.
        for payload, first, spec in zip(out["warm"], out["cold"],
                                        workload.specs):
            rows.append(spec_row(payload, spec, "warm", rep, traced,
                                 golden, workload.name))
            if payload != first:
                problems.append(f"{workloads.label(spec)}: warm pass is "
                                f"not the stored cold result")
    return out["wall"], rows, problems


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def environment() -> dict:
    return {"engine": engine_name(), "python": platform.python_version(),
            "nproc": os.cpu_count()}


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # Linux reports KiB


def run_main(args) -> int:
    golden = json.loads(Path(args.golden).read_text())
    workload = workloads.build(args.workload, args.seed, args.tiny)
    run_id = (f"{time.strftime('%Y%m%d-%H%M%S')}-{args.workload}"
              f"-s{args.seed}-t{args.trace}-{os.getpid()}")
    run_dir = Path(args.runs_dir) / run_id
    run_dir.mkdir(parents=True)
    summary = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": bool(args.trace),
               "tiny": args.tiny, "env": environment(),
               "setup_walls": [], "timed_walls": []}
    rows, problems = [], []
    try:
        store = repeat_set_up(workload, run_dir, summary["setup_walls"])
        start = time.perf_counter()
        rep = 0
        while rep == 0 or time.perf_counter() - start < args.seconds:
            if workload.cached:  # every cold pass writes a fresh store
                store = fresh_store(run_dir)
            wall, rep_rows, rep_problems = timed_rep(
                workload, args, store, run_dir, rep, golden)
            summary["timed_walls"].append(wall)
            rows += rep_rows
            problems += rep_problems
            rep += 1
        repeat_set_up(workload, run_dir, summary["setup_walls"])
        if args.trace:
            tracer = Tracer(run_dir, run_id)
            install(tracer)
            store = fresh_store(run_dir)
            with tracer.span("bench.setup"):
                set_up(workload, store)
            wall, rep_rows, rep_problems = timed_rep(
                workload, args, store, run_dir, rep, golden, tracer)
            summary["traced_wall"] = wall
            rows += rep_rows
            problems += rep_problems
            tracer.flush()
        summary["rss_mb"] = peak_rss_mb()
    finally:
        for path in run_dir.glob("store-*"):
            shutil.rmtree(path, ignore_errors=True)
        for path in run_dir.glob("job-*"):
            path.unlink()
    with open(run_dir / "specs.jsonl", "w") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    summary["problems"] = problems
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1))

    summary, rows, spans = metrics.load_run(run_dir)
    values = metrics.run_metrics(summary, rows, spans)
    names = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    print(f"smarts-bench {args.workload} seed={args.seed} "
          f"trace={args.trace} engine={summary['env']['engine']} "
          f"python={summary['env']['python']} "
          f"nproc={summary['env']['nproc']} run={run_id}")
    for name, value in values.items():
        print(f"  {name:<24} {value:>14.6g} {metrics.unit_of(name)}")
    for problem in problems:
        print(f"  INCORRECT {problem}")
    attempted = len(rows)
    failed = sum(1 for row in rows if not row["ok"])
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names.items()},
    }))
    return 0


def golden_main(args) -> int:
    """Run every workload once and record digests and true CPIs."""
    from repro.harness.reference import run_reference

    out = {"digests": {}, "true_cpi": {}}
    OUT_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT_ROOT, prefix="golden-"))
    try:
        for name in workloads.NAMES:
            workload = workloads.build(name, 0, args.tiny)
            store = scratch / name
            store.mkdir()
            set_up(workload, store)
            job = {"workload": name, "seed": 0, "tiny": args.tiny,
                   "store": str(store), "trace": False, "out": None}
            result = run_child(job, scratch)
            for payload, spec in zip(result["cold"], workload.specs):
                if "failure" in payload:
                    print(f"{workloads.label(spec)} failed: {payload}",
                          file=sys.stderr)
                    return 1
                out["digests"].setdefault(name, {})[
                    workloads.label(spec)] = digest(
                        RunResult.from_dict(payload))
                cell = workloads.cell(spec)
                if cell not in out["true_cpi"]:
                    ref = run_reference(
                        resolve_benchmark(spec.benchmark, spec.scale),
                        resolve_machine(spec.machine), use_cache=False)
                    out["true_cpi"][cell] = ref.cycles / ref.instructions
                    print(f"true CPI {cell} = {out['true_cpi'][cell]:.6f}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True)
                              + "\n")
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", nargs="?", default="run",
                        choices=("run", "report", "golden", "selftest",
                                 "child"))
    parser.add_argument("job", nargs="?", help=argparse.SUPPRESS)
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes")
    parser.add_argument("--golden", default=str(GOLDEN))
    parser.add_argument("--out", default=str(GOLDEN))
    parser.add_argument("--runs-dir", default=str(OUT_ROOT / "runs"))
    args = parser.parse_args(argv)

    if args.mode == "child":
        child_main(args.job)
        return 0
    if args.mode == "report":
        print(metrics.report(Path(args.runs_dir)))
        return 0
    if args.mode == "golden":
        return golden_main(args)
    if args.mode == "selftest":
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    return run_main(args)


if __name__ == "__main__":
    sys.exit(main())
