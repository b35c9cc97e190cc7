"""Fast self-test of the benchmark: ``python3 smarts_bench/run.py selftest``.

Checks the span arithmetic on synthetic spans, the tracer's nesting and
flush round trip, runs every workload once, traced and untraced, at its
tiny size, checks that ``report`` rebuilds what those runs printed, and
that a perturbed golden digest fails a run.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import metrics
import workloads
from spans import Tracer, _wrap, attribute, load_spans

RUN = Path(__file__).resolve().parent / "run.py"


def _span(sid, parent, name, start, end, pid=1, **attrs):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "pid": pid, "run": "t", **attrs}


def check_attribution() -> None:
    # Serial nesting: self time is duration minus covered children.
    serial = [_span("r", None, "bench.setup", 0, 10),
              _span("a", "r", "functional.run", 1, 6),
              _span("b", "a", "detailed.run", 2, 4)]
    layers = attribute(serial)
    assert layers == {"other": 5, "functional": 3, "detailed": 2,
                      "wall": 10}, layers

    # Two workers under one batch span: overlapping instants are split.
    parallel = [_span("r", None, "bench.child", 0, 10),
                _span("p", "r", "backends.run_specs", 1, 9),
                _span("w1", "p", "api.execute_spec", 1, 5, pid=2),
                _span("w2", "p", "detailed.run", 3, 9, pid=3)]
    layers = attribute(parallel)
    assert layers == {"other": 2, "api": 3, "detailed": 5, "backends": 0,
                      "wall": 10}, layers

    # Busy times: a get_or_build that builds is build time, one that
    # does not is load time; the plain functional rate excludes work
    # handed to run_warmed.  Self times cover the timed phase only.
    spans = [_span("s", None, "bench.setup", 0, 8),
             _span("g", "s", "checkpoint.get_or_build", 0, 8),
             _span("b", "g", "checkpoint.build", 1, 7),
             _span("r", None, "bench.child", 8, 28),
             _span("l", "r", "checkpoint.get_or_build", 8, 10),
             _span("f", "r", "functional.run", 10, 14, n=400),
             _span("w", "f", "functional.run_warmed", 11, 13, n=300),
             _span("e", "r", "api.execute_spec", 14, 18, key="k"),
             _span("e2", "r", "api.execute_spec", 18, 20, key="k")]
    values = metrics.per_layer({"traced_wall": 4, "timed_walls": [2]}, [],
                               spans)
    assert values["checkpoint.load_s"] == 2, values
    assert values["checkpoint.build_s"] == 8, values
    assert values["checkpoint.self_s"] == 2, values
    assert values["functional.run_s"] == 2, values
    assert values["functional.run_mips"] == 100 / 2 / 1e6, values
    assert values["functional.warm_s"] == 2, values
    assert values["backends.retries"] == 1, values
    assert values["trace.overhead_frac"] == 2, values
    total = sum(values[f"{layer}.self_s"] for layer in metrics.LAYERS)
    assert total + values["trace.other_s"] == values["trace.wall_s"] == 20
    assert values["trace.other_s"] == 8, values


def check_tracer(tmp: Path) -> None:
    tracer = Tracer(tmp, "t", root_parent="root")

    def inner(x):
        return x + 1

    inner = _wrap(tracer, "detailed.run", inner, None, False)

    def outer(x):
        return inner(x) * 2

    outer = _wrap(tracer, "core.extend", outer, "int", False)
    assert outer(1) == 4
    tracer.flush()
    spans = {s["name"]: s for s in load_spans(tmp)}
    assert spans["core.extend"]["parent"] == "root", spans
    assert spans["detailed.run"]["parent"] == spans["core.extend"]["id"]
    assert spans["core.extend"]["n"] == 4
    assert tracer.stack == ["root"]


def bench(*args) -> tuple[int, dict | None, str]:
    """Run run.py; (exit code, final JSON object or None, stdout)."""
    done = subprocess.run([sys.executable, str(RUN), *args],
                          capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if done.returncode == 0 and lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return done.returncode, result, done.stdout


def check_workloads(tmp: Path) -> None:
    golden = tmp / "golden.json"
    runs = tmp / "runs"
    code, _, _ = bench("golden", "--tiny", "--out", str(golden))
    assert code == 0, "tiny golden generation failed"
    printed = {}
    for workload in workloads.NAMES:
        for trace, names in ((0, metrics.END_TO_END),
                             (1, metrics.PER_LAYER)):
            code, result, out = bench(
                "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny", "--golden", str(golden),
                "--runs-dir", str(runs))
            assert code == 0 and result["correct"], (workload, trace, out)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            printed.update({(f"{workload}-tiny", trace, k): v
                            for k, v in values.items()})
            assert set(values) == set(names), (workload, sorted(values))
            assert all(math.isfinite(v) for v in values.values()), values
            if trace:
                total = sum(values[f"{layer}.self_s"]
                            for layer in metrics.LAYERS)
                assert math.isclose(total + values["trace.other_s"],
                                    values["trace.wall_s"],
                                    rel_tol=1e-9), (workload, values)
            print(f"ok  {workload} trace={trace}")

    # The report rebuilds every printed value from the run outputs.
    code, _, out = bench("report", "--runs-dir", str(runs))
    assert code == 0, out
    rebuilt = {}
    for line in out.splitlines()[1:]:
        workload, trace, name, _, median = line.split()[:5]
        rebuilt[(workload, int(trace), name)] = float(median)
    for key, value in printed.items():
        assert math.isclose(rebuilt[key], value, rel_tol=1e-5,
                            abs_tol=1e-9), (key, rebuilt[key], value)
    print("ok  report rebuilds the printed metrics from outputs")

    data = json.loads(golden.read_text())
    label = next(iter(data["digests"]["sparse"]))
    data["digests"]["sparse"][label] = "0" * 16
    perturbed = tmp / "perturbed.json"
    perturbed.write_text(json.dumps(data))
    code, result, out = bench("--workload", "sparse", "--seconds", "0",
                              "--tiny", "--golden", str(perturbed),
                              "--runs-dir", str(runs))
    assert code == 0 and result["correct"] is False, out
    assert "differs from golden" in out, out
    print("ok  perturbed golden digest is detected")


def main() -> int:
    root = Path(__file__).resolve().parent.parent / ".smarts_bench"
    root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=root, prefix="selftest-"))
    try:
        check_attribution()
        print("ok  span attribution and busy-time arithmetic")
        check_tracer(tmp)
        print("ok  tracer nesting and flush")
        check_workloads(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")
    return 0
