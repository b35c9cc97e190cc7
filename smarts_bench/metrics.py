"""Metrics from a run's raw outputs, and the cross-run report.

Every metric is a pure function of what a run writes to its directory
(``summary.json``, ``specs.jsonl`` and, for traced runs, the span
files), so ``run.py report`` rebuilds the table from outputs alone.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from spans import attribute, load_spans

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "rss_mb": "MB",
    "detailed_minstr": "Minstr",
    "cpi_err_pct": "%",
}

#: Printed beside the end-to-end metrics but not part of the result
#: object: it is 0 on every healthy run, and the result object's
#: ``attempted`` / ``failed`` already carry it.
EXTRA = {"failed_frac": "1"}

#: The layers whose self time the traced run reports.
LAYERS = ("detailed", "functional", "core", "checkpoint", "simpoint",
          "store", "backends", "api")

#: Per-layer metrics (traced runs): name -> unit.
PER_LAYER = {
    "detailed.run_s": "s", "detailed.minstr": "Minstr",
    "detailed.kips": "kinstr/s", "detailed.calls": "count",
    "functional.warm_s": "s", "functional.warm_mips": "Minstr/s",
    "functional.run_s": "s", "functional.run_mips": "Minstr/s",
    "functional.cores": "count",
    "core.extend_calls": "count", "core.measured_minstr": "Minstr",
    "core.dwarm_minstr": "Minstr", "core.ff_minstr": "Minstr",
    "core.restored_minstr": "Minstr", "core.useful_frac": "1",
    "checkpoint.load_s": "s", "checkpoint.build_s": "s",
    "checkpoint.restore_s": "s", "checkpoint.restores": "count",
    "checkpoint.mb": "MB",
    "simpoint.profile_s": "s", "simpoint.cluster_s": "s",
    "store.read_s": "s", "store.write_s": "s", "store.reads": "count",
    "store.writes": "count", "store.write_mb": "MB", "store.hit_frac": "1",
    "backends.run_specs_s": "s", "backends.busy_frac": "1",
    "backends.retries": "count",
    "api.spec_s_p50": "s", "api.spec_s_max": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "rates.s_fw": "1", "rates.s_d": "1",
    "trace.overhead_frac": "1", "trace.other_s": "s", "trace.wall_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(summary: dict, rows: list[dict]) -> dict:
    """The end-to-end metrics of one run (plus ``failed_frac``)."""
    cold = [r for r in rows if r["phase"] == "cold" and r["rep"] == 0]
    done = [r for r in cold if r["ok"]]
    errors = [abs(r["estimate"] - r["true_cpi"]) / r["true_cpi"] * 100
              for r in done if r.get("true_cpi")]
    attempted = sum(1 for r in rows if r["phase"] == "cold")
    failed = sum(1 for r in rows if r["phase"] == "cold" and not r["ok"])
    return {
        "wall_s": statistics.median(summary["timed_walls"]),
        # The fastest fill of an empty store: host speed drifts between
        # modes, and the minimum depends least on which a run saw.
        "setup_s": min(summary["setup_walls"]),
        "rss_mb": summary["rss_mb"],
        "detailed_minstr": sum(r["measured"] + r["dwarm"]
                               for r in done) / 1e6,
        "cpi_err_pct": statistics.fmean(errors) if errors else float("nan"),
        "failed_frac": _ratio(failed, attempted),
    }


def timed_phase(spans: list[dict], by_id: dict) -> list[dict]:
    """The spans of the timed phase: every ``bench.child`` subtree."""
    inside: dict[str, bool] = {}

    def within(span) -> bool:
        chain = []
        while span is not None and span["id"] not in inside:
            if span["name"] == "bench.child":
                inside[span["id"]] = True
                break
            chain.append(span["id"])
            span = by_id.get(span["parent"])
        answer = span is not None and inside[span["id"]]
        for span_id in chain:
            inside[span_id] = answer
        return answer

    return [s for s in spans if within(s)]


def per_layer(summary: dict, rows: list[dict], spans: list[dict]) -> dict:
    """The per-layer metrics of one traced run.

    Busy times, counts and rates cover the traced set-up and the traced
    timed phase; self times, ``trace.other_s`` and ``trace.wall_s``
    cover the timed phase, whose untraced twin is ``wall_s``.
    """
    by_id = {s["id"]: s for s in spans}
    named = defaultdict(list)
    for span in spans:
        span["dur"] = span["end"] - span["start"]
        named[span["name"]].append(span)

    def nested_in(span, name):
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = by_id.get(parent["parent"])
        return False

    def outer(name):
        return [s for s in named[name] if not nested_in(s, name)]

    def busy(name):
        return sum(s["dur"] for s in outer(name))

    def count(name):
        return sum(s.get("n", 0) for s in outer(name))

    # FastCore.run hands warmer callbacks to run_warmed: charge that
    # work to warming, not to the plain functional rate.
    delegated = [s for s in named["functional.run_warmed"]
                 if s["parent"] in by_id
                 and by_id[s["parent"]]["name"] == "functional.run"]
    run_s = busy("functional.run") - sum(s["dur"] for s in delegated)
    run_n = count("functional.run") - sum(s.get("n", 0) for s in delegated)
    warm_s, warm_n = busy("functional.run_warmed"), \
        count("functional.run_warmed")
    detailed_s, detailed_n = busy("detailed.run"), count("detailed.run")

    # get_or_build either loads a stored set or builds, packs and
    # writes one: split its calls by whether a build ran inside.
    builders = {s["parent"] for s in named["checkpoint.build"]}
    loads = [s for s in outer("checkpoint.get_or_build")
             if s["id"] not in builders]
    reads, writes = outer("store.read_path"), outer("store.write_path")
    lookups = [s["hit"] for s in named["store.result_get"] if "hit" in s]
    specs = named["api.execute_spec"]
    spec_walls = sorted(s["dur"] for s in specs)
    batches = outer("backends.run_specs")
    capacity = sum(s["dur"] * s.get("workers", 1) for s in batches)

    traced = [r for r in rows if r["phase"] == "cold" and r["traced"]]
    measured = sum(r["measured"] for r in traced)
    dwarm = sum(r["dwarm"] for r in traced)

    s_f = _ratio(run_n, run_s)
    layers = attribute(timed_phase(spans, by_id))
    metrics = {
        "detailed.run_s": detailed_s,
        "detailed.minstr": detailed_n / 1e6,
        "detailed.kips": _ratio(detailed_n, detailed_s) / 1e3,
        "detailed.calls": len(named["detailed.run"]),
        "functional.warm_s": warm_s,
        "functional.warm_mips": _ratio(warm_n, warm_s) / 1e6,
        "functional.run_s": run_s,
        "functional.run_mips": s_f / 1e6,
        "functional.cores": len(named["functional.create_core"]),
        "core.extend_calls": len(named["core.extend"]),
        "core.measured_minstr": measured / 1e6,
        "core.dwarm_minstr": dwarm / 1e6,
        "core.ff_minstr": sum(r["ff"] for r in traced) / 1e6,
        "core.restored_minstr": sum(r["restored"] for r in traced) / 1e6,
        "core.useful_frac": _ratio(measured, measured + dwarm),
        "checkpoint.load_s": sum(s["dur"] for s in loads),
        "checkpoint.build_s": busy("checkpoint.get_or_build")
        - sum(s["dur"] for s in loads),
        "checkpoint.restore_s": busy("checkpoint.restore"),
        "checkpoint.restores": len(named["checkpoint.restore"]),
        "checkpoint.mb": sum(s["bytes"] for s in reads
                             if s["ns"] == "checkpoint") / 1e6,
        "simpoint.profile_s": busy("simpoint.get_or_profile"),
        "simpoint.cluster_s": busy("simpoint.choose_clustering"),
        "store.read_s": sum(s["dur"] for s in reads),
        "store.write_s": sum(s["dur"] for s in writes),
        "store.reads": len(reads),
        "store.writes": len(writes),
        "store.write_mb": sum(s["bytes"] for s in writes) / 1e6,
        "store.hit_frac": _ratio(sum(lookups), len(lookups)),
        "backends.run_specs_s": busy("backends.run_specs"),
        "backends.busy_frac": _ratio(sum(spec_walls), capacity),
        "backends.retries": len(specs) - len({s["key"] for s in specs}),
        "api.spec_s_p50": statistics.median(spec_walls) if spec_walls
        else 0.0,
        "api.spec_s_max": spec_walls[-1] if spec_walls else 0.0,
        **{f"{layer}.self_s": layers.get(layer, 0.0) for layer in LAYERS},
        "rates.s_fw": _ratio(_ratio(warm_n, warm_s), s_f),
        "rates.s_d": _ratio(_ratio(detailed_n, detailed_s), s_f),
        "trace.overhead_frac": _ratio(
            summary["traced_wall"], statistics.median(summary["timed_walls"])),
        "trace.other_s": layers["other"],
        "trace.wall_s": layers["wall"],
    }
    return metrics


def load_run(run_dir: Path) -> tuple[dict, list[dict], list[dict]]:
    """A run's summary, spec rows and spans, as written by ``run.py``."""
    run_dir = Path(run_dir)
    summary = json.loads((run_dir / "summary.json").read_text())
    with open(run_dir / "specs.jsonl") as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    spans = load_spans(run_dir) if summary["trace"] else []
    return summary, rows, spans


def run_metrics(summary: dict, rows: list[dict], spans: list[dict]) -> dict:
    """The metrics a run reports: per-layer when traced, else end to end."""
    if summary["trace"]:
        return per_layer(summary, rows, spans)
    return end_to_end(summary, rows)


def unit_of(name: str) -> str:
    return {**END_TO_END, **EXTRA, **PER_LAYER}[name]


def report(runs_dir: Path) -> str:
    """Median and quartiles of every metric over the runs in ``runs_dir``.

    One row per (workload, traced, metric); ``spread`` is the
    interquartile range over the median.
    """
    table: dict[tuple, list[float]] = defaultdict(list)
    for summary_path in sorted(Path(runs_dir).glob("*/summary.json")):
        summary, rows, spans = load_run(summary_path.parent)
        workload = summary["workload"] + ("-tiny" if summary["tiny"] else "")
        for name, value in run_metrics(summary, rows, spans).items():
            table[(workload, summary["trace"], name)].append(value)
    lines = [f"{'workload':<13} {'tr':>2} {'metric':<24} {'n':>3} "
             f"{'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} unit"]
    for (workload, traced, name), values in sorted(table.items()):
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (median, median, median))
        spread = (q3 - q1) / median if median else 0.0
        lines.append(f"{workload:<13} {int(traced):>2} {name:<24} "
                     f"{len(values):>3} {median:>12.6g} {q1:>12.6g} "
                     f"{q3:>12.6g} {spread:>7.3f} {unit_of(name)}")
    return "\n".join(lines)
