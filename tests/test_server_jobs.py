"""Queue semantics, job persistence, and cache-write hardening.

Worker-blocking tests monkeypatch ``repro.server.jobs.execute_run`` with
event-gated stand-ins so queue-full (429), per-job timeout, and graceful
shutdown are exercised deterministically, without racing on real
simulation timing.
"""

import json
import os
import threading
import time

import pytest

from repro.api import ResultCache, RunSpec, SystematicStrategy, execute_spec
from repro.backends import FileWorkQueue
from repro.cli import main
from repro.server import (
    ServerConfig,
    ServerError,
    create_app,
    default_jobs_dir,
)
from repro.server import jobs as server_jobs
from repro.server.client import ReproClient


@pytest.fixture(autouse=True)
def isolated_dirs(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_CACHE_DIR", str(tmp_path / "run"))
    monkeypatch.setenv("REPRO_JOBS_DIR", str(tmp_path / "jobs"))
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ref"))
    yield tmp_path


MICRO_SPEC = RunSpec(
    benchmark="micro.syn", epsilon=0.5,
    strategy=SystematicStrategy(unit_size=25, n_init=40, max_rounds=1,
                                detailed_warming=64))


def job_files() -> FileWorkQueue:
    """The server's job directory (``REPRO_JOBS_DIR``) as a file queue."""
    return FileWorkQueue(default_jobs_dir())


def seed_done(job_id: str, result=None, age_days: float = 0.0, **fields):
    """Write a finished job record straight into the server's directory."""
    files = job_files()
    files.complete(job_id, result, **{"kind": "run", "payload": {},
                                      "submitted_at": time.time(), **fields})
    if age_days:
        old = time.time() - age_days * 86400
        os.utime(files._path("done", job_id), (old, old))


@pytest.fixture(scope="module")
def micro_result():
    """One real RunResult the gated stand-ins can hand back."""
    return execute_spec(MICRO_SPEC)


class TestQueueBackpressure:
    def test_queue_full_is_429(self, monkeypatch, micro_result):
        started = threading.Event()
        release = threading.Event()

        def gated(session, spec):
            started.set()
            assert release.wait(30)
            return micro_result

        monkeypatch.setattr(server_jobs, "execute_run", gated)
        app = create_app(ServerConfig(workers=1, queue_depth=1))
        try:
            client = ReproClient(app=app)
            client.submit_run(MICRO_SPEC.with_(seed=1))
            assert started.wait(10)  # worker holds job 1
            client.submit_run(MICRO_SPEC.with_(seed=2))  # fills the queue
            with pytest.raises(ServerError) as exc:
                client.submit_run(MICRO_SPEC.with_(seed=3))
            assert exc.value.status == 429
            assert exc.value.payload["queue_depth"] == 1
            # The rejected submission left no job record behind.
            assert len(client.jobs()) == 2
        finally:
            release.set()
            app.close()

    def test_graceful_shutdown_finishes_in_flight(self, monkeypatch,
                                                  micro_result):
        started = threading.Event()
        release = threading.Event()

        def gated(session, spec):
            started.set()
            assert release.wait(30)
            return micro_result

        monkeypatch.setattr(server_jobs, "execute_run", gated)
        app = create_app(ServerConfig(workers=1))
        client = ReproClient(app=app)
        job = client.submit_run(MICRO_SPEC.with_(seed=7))
        assert started.wait(10)
        closer = threading.Thread(target=app.close)
        closer.start()
        # Intake closes while the in-flight job still runs; fresh specs
        # (dedupe never applies) must start bouncing with 503.
        rejected = None
        for attempt in range(200):
            try:
                client.submit_run(MICRO_SPEC.with_(seed=100 + attempt))
            except ServerError as exc:
                rejected = exc
                break
            time.sleep(0.01)
        assert rejected is not None, "shutdown never closed intake"
        assert rejected.status == 503
        release.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert client.job(job["id"])["status"] == "done"
        assert client.health()["status"] == "shutting-down"

    def test_job_timeout_marks_failed(self, monkeypatch, micro_result):
        release = threading.Event()

        def slow(session, spec):
            assert release.wait(30)
            return micro_result

        monkeypatch.setattr(server_jobs, "execute_run", slow)
        app = create_app(ServerConfig(workers=1, job_timeout=0.05))
        try:
            client = ReproClient(app=app)
            job = client.submit_run(MICRO_SPEC.with_(seed=9))
            with pytest.raises(ServerError) as exc:
                client.wait(job["id"], timeout=30)
            record = exc.value.payload["job"]
            assert record["status"] == "failed"
            assert "timeout" in record["error"]
            # A failed job's result route reports the failure as 409.
            with pytest.raises(ServerError) as exc:
                client.run_result(job["id"])
            assert exc.value.status == 409
            # Failed jobs may be resubmitted (fresh attempt, same id).
            release.set()
            app.queue.job_timeout = None
            retried = client.submit_run(MICRO_SPEC.with_(seed=9))
            assert retried["id"] == job["id"]
            assert retried["created"] is True
            client.wait(job["id"], timeout=30)
        finally:
            release.set()
            app.close()


class TestRestartRecovery:
    def test_queued_jobs_survive_restart(self, monkeypatch, micro_result):
        # workers=0: submissions persist but nothing drains them.
        app = create_app(ServerConfig(workers=0))
        client = ReproClient(app=app)
        a = client.submit_run(MICRO_SPEC.with_(seed=11))
        b = client.submit_run(MICRO_SPEC.with_(seed=12))
        assert {a["status"], b["status"]} == {"queued"}
        app.close()

        monkeypatch.setattr(server_jobs, "execute_run",
                            lambda session, spec: micro_result)
        app2 = create_app(ServerConfig(workers=1))
        try:
            client2 = ReproClient(app=app2)
            for job in (a, b):
                record = client2.wait(job["id"], timeout=30)
                assert record["restarts"] == 1
                assert record["has_result"] is True
        finally:
            app2.close()

    def test_interrupted_running_job_requeues(self, tmp_path):
        # A claimed record is what a server killed mid-job leaves behind.
        job_id = f"run-{MICRO_SPEC.key()}"
        files = job_files()
        files.submit_payload(job_id, {"kind": "run",
                                      "payload": MICRO_SPEC.to_dict(),
                                      "submitted_at": time.time(),
                                      "restarts": 0})
        assert files.claim_next()[0] == job_id
        app = create_app(ServerConfig(workers=1))
        try:
            client = ReproClient(app=app)
            finished = client.wait(job_id, timeout=120)
            assert finished["restarts"] == 1
        finally:
            app.close()


class TestJobStore:
    """Job records live in the server's file work queue directory."""

    def test_record_roundtrip(self):
        seed_done("run-abc", {"y": 2}, payload={"x": 1}, submitted_at=5.0,
                  started_at=6.0, finished_at=7.0, cached=True, restarts=2)
        app = create_app(ServerConfig(workers=0))
        try:
            job = app.queue.job("run-abc")
            assert job.result == {"y": 2}
            assert job.describe() == {
                "id": "run-abc", "kind": "run", "status": "done",
                "payload": {"x": 1}, "submitted_at": 5.0,
                "started_at": 6.0, "finished_at": 7.0, "error": None,
                "cached": True, "restarts": 2, "has_result": True,
                "failures": None}
            assert app.queue.job("run-missing") is None
            # And what the server writes is a plain queue record.
            queued, _ = app.queue.submit_run(MICRO_SPEC)
            state, record = job_files().lookup(queued.id)
            assert state == "pending"
            assert record["kind"] == "run"
            assert record["payload"] == MICRO_SPEC.to_dict()
            assert record["submitted_at"] == queued.describe()["submitted_at"]
        finally:
            app.close()

    def test_corrupt_record_ignored(self, capsys):
        seed_done("run-ok")
        bad = job_files()._path("done", "run-bad")
        bad.write_text("{truncated")
        app = create_app(ServerConfig(workers=0))
        try:
            client = ReproClient(app=app)
            assert [r["id"] for r in client.jobs()] == ["run-ok"]
            with pytest.raises(ServerError) as exc:
                client.job("run-bad")
            assert exc.value.status == 404
        finally:
            app.close()
        assert main(["jobs", "ls", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [job["id"] for job in payload["jobs"]] == ["run-ok"]

    def test_gc(self):
        files = job_files()
        seed_done("run-old", age_days=60)
        seed_done("run-new")
        files.submit_payload("run-live", {"kind": "run", "payload": {}})
        files.claim_next()
        live = files._path("claimed", "run-live")
        os.utime(live, (time.time() - 60 * 86400,) * 2)
        (files._dir("done") / "run-stray.123.tmp").write_text("junk")

        removed = {p.name for p in files.gc(max_age_days=30)}
        # Old finished record and the stray tmp go; the fresh record and
        # the (stale but still 'running') record stay.
        assert removed == {"run-old.json", "run-stray.123.tmp"}
        assert {job.id for job in server_jobs.list_jobs(files)} \
            == {"run-new", "run-live"}

        files.gc(remove_all=True)
        assert server_jobs.list_jobs(files) == []


class TestResultCacheHardening:
    """Regression tests for atomic, degradable cache writes."""

    def test_concurrent_puts_never_corrupt(self, tmp_path, micro_result):
        cache = ResultCache(tmp_path / "cc")
        threads = [threading.Thread(target=cache.put, args=(micro_result,))
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Exactly one entry, valid JSON, loadable.
        entries = list((tmp_path / "cc").glob("*.json"))
        assert len(entries) == 1
        json.loads(entries[0].read_text())
        assert cache.get(micro_result.spec).estimates_dict() \
            == micro_result.estimates_dict()
        assert cache.stats()["entries"] == 1
        assert cache.stats()["stale_files"] == 0

    def test_leftover_tmp_is_invisible_to_get(self, tmp_path, micro_result):
        cache = ResultCache(tmp_path / "cc")
        cache.put(micro_result)
        # A writer killed mid-write leaves a tmp file, never a truncated
        # entry.
        path = cache.path(micro_result.spec)
        stray = path.with_suffix(".9999-1.tmp")
        stray.write_text('{"spec": {"benchmark": "micr')
        assert cache.get(micro_result.spec) is not None
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["stale_files"] == 1

    def test_unwritable_directory_degrades_with_warning(self, tmp_path,
                                                        micro_result):
        # A *file* at the cache path makes mkdir raise (works even when
        # the suite runs as root, where chmod 0o555 would not block).
        blocker = tmp_path / "not-a-dir"
        blocker.write_bytes(b"")
        cache = ResultCache(blocker)
        with pytest.warns(RuntimeWarning, match="cache write"):
            cache.put(micro_result)  # must not raise
        assert cache.get(micro_result.spec) is None

    def test_corrupt_entry_is_a_miss_and_overwritable(self, tmp_path,
                                                      micro_result):
        cache = ResultCache(tmp_path / "cc")
        path = cache.path(micro_result.spec)
        path.parent.mkdir(parents=True)
        path.write_text('{"spec": {"benchmark"')  # simulated torn write
        assert cache.get(micro_result.spec) is None
        cache.put(micro_result)
        assert cache.get(micro_result.spec) is not None


class TestServerCLI:
    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.workers == 2
        assert args.queue_depth == 16
        assert args.job_timeout is None

    def test_jobs_ls_and_gc(self, capsys, tmp_path, monkeypatch):
        # `store gc` sweeps the whole artifact root: keep it in tmp_path.
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))
        monkeypatch.setenv("REPRO_QUEUE_DIR", str(tmp_path / "queue"))
        seed_done("run-x", age_days=30, payload={"benchmark": "micro.syn"})
        assert main(["jobs", "ls"]) == 0
        out = capsys.readouterr().out
        assert "run-x" in out and "micro.syn" in out

        assert main(["jobs", "ls", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"][0]["id"] == "run-x"

        assert main(["store", "gc", "--max-age-days", "7"]) == 0
        out = capsys.readouterr().out
        assert "run-x.json" in out
        assert server_jobs.list_jobs(job_files()) == []
        with pytest.raises(SystemExit):
            main(["jobs", "gc"])  # one gc: `store gc`
