"""The server's job queue: a thin in-process front on a file work queue.

Every job is one JSON record in the server's own
:class:`~repro.backends.queue.FileWorkQueue` directory (``jobs_dir``;
default ``<artifact root>/jobs``, ``REPRO_JOBS_DIR``) and moves through
the same state folders as batch work: ``pending/`` (reported as
``queued``), ``claimed/`` (``running``), ``done/`` and ``failed/``.  The
record carries the submission (``kind``, ``payload``) and everything
``GET /jobs`` reports about it (``submitted_at``, ``started_at``,
``finished_at``, ``cached``, ``restarts``, ``error``, ``failures``, and
the ``result``), so the directory is the only job state there is:
atomic writes, gc (``repro-smarts store gc``) and the ``queue.*`` fault
seams are the file queue's own.  The directory is kept apart from the
batch queue's, whose submissions clear terminal records of their name.

Jobs execute through the shared :class:`~repro.api.session.Session`, so
every run goes through the :class:`~repro.api.executor.ResultCache`,
turning the spec-hash cache into a cross-client memo: the second client
to submit an identical spec is answered without simulating.

What this module adds in front of the files:

* **Idempotent submission.**  Job ids are content hashes
  (``run-<RunSpec.key()>``, ``study-<payload hash>``); resubmitting work
  that is queued, running, or done returns the existing record.  A
  *failed* job resubmits as a fresh attempt under the same id.
* **Bounded intake.**  With ``queue_depth`` jobs queued, a submission
  raises :class:`QueueFull`, which the route layer renders as HTTP 429.
* **Per-job timeout.**  Jobs execute on an inner daemon thread when a
  timeout is configured; a job that exceeds it is marked failed and the
  drain thread moves on (the abandoned computation finishes in the
  background and may still populate the result cache — Python threads
  cannot be killed, so this protects throughput, not CPU).  Only the
  drain thread writes a job's terminal record, so the abandoned
  computation can never overwrite the ``failed`` one.
* **Graceful shutdown.**  :meth:`JobQueue.shutdown` stops intake
  (submissions raise :class:`QueueClosed` → HTTP 503), lets the drain
  threads finish the queued and in-flight jobs, and joins them.
* **Restart recovery.**  On construction, records a previous process
  left queued or running go back to ``pending/`` with ``restarts``
  bumped; finished records keep being served.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.api.resultset import to_jsonable
from repro.api.session import Session
from repro.api.spec import RunResult, RunSpec
from repro.api.study import Study, default_context, get_study
from repro.backends.queue import FileWorkQueue, default_queue_dir

#: Queue state folder → the job status the API reports.
STATUS = {"pending": "queued", "claimed": "running",
          "done": "done", "failed": "failed"}

#: Seconds an idle drain thread sleeps between looks at ``pending/``.
#: Submissions wake it at once; the bound is for retrying after a claim
#: that raised (an injected ``queue.claim`` fault, a transient OSError).
_IDLE_WAIT = 1.0


class QueueFull(Exception):
    """The bounded job queue is at capacity (HTTP 429)."""


class QueueClosed(Exception):
    """The service is shutting down; no new submissions (HTTP 503)."""


class JobTimeout(Exception):
    """A job exceeded the configured per-job timeout."""


def default_jobs_dir() -> Path:
    """The server's job-queue directory (``REPRO_JOBS_DIR``)."""
    return default_queue_dir("REPRO_JOBS_DIR", "jobs")


def study_job_hash(study: str, params: dict) -> str:
    """Stable content hash for a study submission (id + dedupe key)."""
    payload = json.dumps({"study": study, "params": params}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Job:
    """One job as read from the queue directory: id, status, record."""

    id: str
    status: str
    record: dict

    @property
    def kind(self) -> str | None:  # "run" | "study"
        return self.record.get("kind")

    @property
    def result(self) -> dict | None:
        return self.record.get("result")

    @property
    def error(self) -> str | None:
        return self.record.get("error")

    @property
    def cached(self) -> bool:
        return bool(self.record.get("cached", False))

    def describe(self) -> dict:
        """The job as ``GET /jobs/<id>`` reports it (no result body)."""
        record = self.record
        return {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "payload": record.get("payload"),
            "submitted_at": record.get("submitted_at"),
            "started_at": record.get("started_at"),
            "finished_at": record.get("finished_at"),
            "error": self.error,
            "cached": self.cached,
            "restarts": int(record.get("restarts", 0)),
            "has_result": self.result is not None,
            "failures": record.get("failures"),
        }


def list_jobs(files: FileWorkQueue, status: str | None = None) -> list[Job]:
    """Every readable job record, oldest submission first."""
    jobs = [Job(name, STATUS[state], record)
            for state, name, record in files.records()]
    jobs.sort(key=lambda job: job.record.get("submitted_at") or 0.0)
    return [job for job in jobs if status is None or job.status == status]


def execute_run(session: Session, spec: RunSpec) -> RunResult:
    """Run one spec through the session (module-level for testability)."""
    return session.run(spec)


def execute_study(session: Session, study: Study, params: dict, ctx=None):
    """Run one registered study through the session."""
    return session.run_study(study, ctx=ctx, params=params)


class JobQueue:
    """Bounded intake + drain threads between HTTP and the job files."""

    def __init__(self, session: Session, jobs_dir: Path | str | None = None,
                 workers: int = 2, queue_depth: int = 16,
                 job_timeout: float | None = None,
                 study_context=None):
        self.session = session
        self.files = FileWorkQueue(jobs_dir or default_jobs_dir())
        self.queue_depth = queue_depth
        self.job_timeout = job_timeout
        self.study_context = study_context
        #: Guards every read-modify-write of the job files and wakes idle
        #: drain threads on submission and shutdown.
        self._lock = threading.Condition()
        self._closed = False
        self.hits = 0
        self.misses = 0
        #: Timed-out job threads we walked away from (still burning CPU
        #: until their computation ends — Python threads cannot be
        #: killed).  Tracked so /healthz can expose the leak instead of
        #: hiding it; dead threads are pruned on read.
        self._abandoned: list[threading.Thread] = []
        self.abandoned_total = 0
        self._recover()
        self._workers = [
            threading.Thread(target=self._drain, daemon=True,
                             name=f"repro-job-worker-{i}")
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_run(self, spec: RunSpec) -> tuple[Job, bool]:
        """Submit a run job; returns ``(job, created)``.

        Dedupes on the spec hash, and answers straight from the result
        cache — job born ``done`` with ``cached=True`` — when the spec
        has already been simulated by any client.
        """
        job_id = f"run-{spec.key()}"
        with self._lock:
            existing = self._reusable(job_id)
            if existing is not None:
                return existing, False
            record = self._new_record("run", spec.to_dict())
            cached = self.session.executor.cache.get(spec)
            if cached is None:
                return self._enqueue(job_id, record), True
            self.hits += 1
            now = time.time()
            record.update(started_at=now, finished_at=now, cached=True)
            result = cached.to_dict()
            self.files.complete(job_id, result, **record)
            return Job(job_id, "done", {**record, "result": result}), True

    def submit_study(self, study: Study | str,
                     params: dict | None = None) -> tuple[Job, bool]:
        """Submit a study job; returns ``(job, created)``."""
        if isinstance(study, str):
            study = get_study(study)
        params = dict(params or {})
        job_id = f"study-{study_job_hash(study.name, params)}"
        with self._lock:
            existing = self._reusable(job_id)
            if existing is not None:
                return existing, False
            record = self._new_record(
                "study", {"study": study.name, "params": params})
            return self._enqueue(job_id, record), True

    @staticmethod
    def _new_record(kind: str, payload: dict) -> dict:
        return {"kind": kind, "payload": payload,
                "submitted_at": time.time(), "restarts": 0}

    def _reusable(self, job_id: str) -> Job | None:
        """The existing job a resubmission maps to, if not failed."""
        job = self.job(job_id)
        return job if job is not None and job.status != "failed" else None

    def _enqueue(self, job_id: str, record: dict) -> Job:
        if self._closed:
            raise QueueClosed("server is shutting down")
        if self.files.counts()["pending"] >= max(self.queue_depth, 1):
            raise QueueFull(
                f"job queue is full ({self.queue_depth} queued)")
        self.files.submit_payload(job_id, record)
        self._lock.notify()
        return Job(job_id, "queued", record)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Job | None:
        with self._lock:
            found = self.files.lookup(job_id)
        if found is None:
            return None
        state, record = found
        return Job(job_id, STATUS[state], record)

    def jobs(self, status: str | None = None) -> list[Job]:
        with self._lock:
            return list_jobs(self.files, status)

    def counts(self) -> dict:
        with self._lock:
            counts = self.files.counts()
        return {STATUS[state]: count for state, count in counts.items()}

    def abandoned_jobs(self) -> int:
        """Timed-out job threads still alive right now (a gauge).

        ``abandoned_total`` is the matching lifetime counter; the gauge
        prunes threads whose computation has since finished.
        """
        with self._lock:
            self._abandoned = [t for t in self._abandoned if t.is_alive()]
            return len(self._abandoned)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Claim and run pending jobs until shut down and drained."""
        while True:
            with self._lock:
                claim = self._claim()
                while claim is None and not self._closed:
                    self._lock.wait(_IDLE_WAIT)
                    claim = self._claim()
            if claim is None:
                return
            self._run(*claim)

    def _claim(self) -> tuple[str, dict] | None:
        try:
            return self.files.claim_next()
        except Exception:  # noqa: BLE001 — the job stays pending and the
            return None  # drain thread lives to retry it (_IDLE_WAIT)

    def _run(self, job_id: str, record: dict) -> None:
        """Execute one claimed job and write its terminal record."""
        try:
            result, cached = self._call_with_timeout(
                lambda: self._execute(job_id, record))
        except Exception as exc:  # noqa: BLE001 — job errors become records
            from repro.reliability.report import BatchExecutionError

            # Partial failure: keep the per-spec envelopes on the record
            # (the completed siblings' results already reached the cache).
            failures = ([f.to_dict() for f in exc.report.failures]
                        if isinstance(exc, BatchExecutionError) else None)
            with self._lock:
                self.files.fail(job_id, f"{type(exc).__name__}: {exc}",
                                error_type=type(exc).__name__,
                                **{**record, "failures": failures,
                                   "finished_at": time.time()})
            return
        with self._lock:
            self.files.complete(job_id, result,
                                **{**record, "cached": cached,
                                   "finished_at": time.time()})

    def _execute(self, job_id: str, record: dict) -> tuple[dict, bool]:
        """The job's JSON-ready result and whether the cache answered."""
        from repro.reliability.faults import inject

        inject("server.job", job_id)
        payload = record["payload"]
        if record["kind"] == "run":
            spec = RunSpec.from_dict(payload)
            cached = self.session.executor.cache.get(spec)
            if cached is not None:  # populated since submission
                self.hits += 1
                return cached.to_dict(), True
            self.misses += 1
            return execute_run(self.session, spec).to_dict(), False
        study = get_study(payload["study"])
        ctx = self.study_context or default_context()
        report = execute_study(self.session, study,
                               payload.get("params", {}), ctx=ctx)
        data = {k: to_jsonable(v) for k, v in report.data.items()
                if k != "report"}
        return {"study": report.study, "title": report.title,
                "rows": to_jsonable(report.rows), "data": data,
                "report": report.report}, False

    def _call_with_timeout(self, fn):
        if not self.job_timeout:
            return fn()
        box: dict = {}
        done = threading.Event()

        def target() -> None:
            try:
                box["result"] = fn()
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                box["error"] = exc
            finally:
                done.set()

        thread = threading.Thread(target=target, daemon=True,
                                  name="repro-job-timeout")
        thread.start()
        if not done.wait(self.job_timeout):
            with self._lock:
                self._abandoned = [t for t in self._abandoned
                                   if t.is_alive()]
                self._abandoned.append(thread)
                self.abandoned_total += 1
            raise JobTimeout(
                f"job exceeded the {self.job_timeout:g}s timeout "
                f"(abandoned; the worker moved on)")
        if "error" in box:
            raise box["error"]
        return box["result"]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Requeue the jobs a previous process left queued or running."""
        for state, job_id, record in self.files.records():
            if state in ("pending", "claimed"):
                record["restarts"] = int(record.get("restarts", 0)) + 1
                record.pop("started_at", None)
                self.files.requeue(job_id, record)

    def shutdown(self, wait: bool = True) -> None:
        """Stop intake, let queued and in-flight jobs finish, join."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._lock.notify_all()
        if wait:
            for worker in self._workers:
                worker.join()

    @property
    def closed(self) -> bool:
        return self._closed
