#!/usr/bin/env python3
"""Simulation-as-a-service: drive a repro server over HTTP.

The ``repro.server`` subsystem turns the Session library into a
long-lived job service: clients submit :class:`repro.api.RunSpec` and
registered-study jobs as JSON over REST, poll them, and fetch results —
while the spec-hash result cache acts as a *cross-client memo*, so the
second client to ask for an identical run is answered without
simulating anything.

This example stands up a real HTTP server on an ephemeral localhost
port (exactly what ``repro-smarts serve`` runs, minus the fixed port),
then walks the full client workflow with
:class:`repro.server.client.ReproClient`:

1. submit a RunSpec → poll → fetch its estimates,
2. resubmit the identical spec and observe the cache hit,
3. submit a registered study (``fig6``) and fetch tidy rows + report,
4. restart: close the app, start a second one on the same jobs
   directory, and check that both jobs are still served ``done`` from
   their records — the run's estimates byte-identical, the study's
   rows fetched again without re-running it.

Run:  python examples/remote_study.py
"""

import json
import tempfile
import threading

from repro.api import StudyContext
from repro.server import ServerConfig, create_app, make_http_server
from repro.server.client import ReproClient

#: Miniature study context so the fig6 grid stays example-sized.
CTX = StudyContext(scale=0.1, fast=True,
                   suite_names=["gzip.syn", "mcf.syn"],
                   n_init=100, epsilon=0.2)

RUN_PAYLOAD = {
    "benchmark": "gcc.syn",
    "machine": "8-way",
    "scale": 0.1,
    "epsilon": 0.2,
    "strategy": {"name": "systematic",
                 "params": {"unit_size": 50, "n_init": 100,
                            "max_rounds": 1}},
}


def serve_in_background(app):
    """Mount ``app`` on an ephemeral localhost port; returns (server, url)."""
    server = make_http_server(app, port=0, quiet=True)
    host, port = server.server_address[:2]
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, f"http://{host}:{port}"


def stop(server, app) -> None:
    server.shutdown()
    server.server_close()
    app.close()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-jobs-") as jobs_dir:
        return walkthrough(jobs_dir)


def walkthrough(jobs_dir: str) -> int:
    config = dict(workers=2, study_context=CTX, jobs_dir=jobs_dir)
    app = create_app(ServerConfig(**config))
    server, url = serve_in_background(app)
    print(f"server    : {url} (2 workers, jobs in {jobs_dir})")

    client = ReproClient(url)
    print(f"health    : {client.health()['status']}, "
          f"{len(client.studies())} registered studies")

    # 1. Submit a run, poll until done, fetch the estimate.
    job = client.submit_run(RUN_PAYLOAD)
    print(f"run job   : {job['id']} ({job['status']})")
    client.wait(job["id"])
    result = client.run_result(job["id"])
    print(f"estimate  : CPI {result['result']['estimate_mean']:.4f} "
          f"±{result['result']['confidence_interval']:.2%} "
          f"(cached={result['cached']})")

    # 2. The identical submission is answered from the shared memo.
    again = client.submit_run(RUN_PAYLOAD)
    print(f"resubmit  : {again['id']} ({again['status']}, "
          f"created={again['created']})")
    stats = client.cache_stats()
    print(f"cache     : {stats['entries']} entries, "
          f"{stats['hits']} hits / {stats['misses']} misses")

    # 3. A registered paper study over REST: tidy rows + rendered report.
    study_job = client.submit_study("fig6", {"machine_names": ["8-way"]})
    print(f"study job : {study_job['id']} ({study_job['status']})")
    study_done = client.wait(study_job["id"], timeout=1200)
    rows = client.study_rows(study_job["id"])
    print(f"fig6 rows : {len(rows)} "
          f"(columns: {', '.join(rows[0]) if rows else '-'})")
    print()
    print(client.study_report(study_job["id"]))
    stop(server, app)

    # 4. Restart on the same jobs directory: finished jobs are served
    # from their records, not recomputed.
    app2 = create_app(ServerConfig(**config))
    server2, url2 = serve_in_background(app2)
    client2 = ReproClient(url2)
    run_again = client2.job(job["id"])
    study_again = client2.job(study_job["id"])
    assert run_again["status"] == study_again["status"] == "done"
    assert json.dumps(client2.run_result(job["id"])["result"],
                      sort_keys=True) \
        == json.dumps(result["result"], sort_keys=True)
    assert study_again["finished_at"] == study_done["finished_at"]
    assert study_again["restarts"] == 0
    assert client2.study_rows(study_job["id"]) == rows
    print(f"restart   : {url2} serves {job['id']} and {study_job['id']} "
          f"done from {jobs_dir} (estimates byte-identical, "
          f"{len(rows)} fig6 rows, not re-run)")
    stop(server2, app2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
