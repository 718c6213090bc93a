"""Verification worker slots for the HTTP server.

``--workers N`` runs N worker slots in one of two models.  The **thread**
model runs each search in the server process: always available, but the
slots share one GIL, so N slots buy concurrency only for I/O.  The
**process** model gives each slot a long-lived OS process, so N CPU-bound
Karp–Miller searches run truly in parallel (Spin's multi-core swarm shape).

Architecture
============

Each slot is a :class:`WorkerSlot` -- a parent-side daemon thread that owns
the claim loop and the whole job lifecycle, identically for both models:

* it claims jobs from the SQLite :class:`~repro.server.store.JobStore`
  (``claim_next(worker_id=...)``, which stamps ``claimed_by`` and an initial
  heartbeat), records the ``queue.wait`` span and opens ``worker.execute``,
  and serves cache hits from the read-through result cache;
* for a cache miss it registers the slot's cancel flag with the server --
  which also enters the job in the server's in-flight table -- folds in a
  cancel that reached the store before the registration, fires
  ``VerificationStarted`` and hands a plain task dict (the canonical spec
  dicts plus ``deadline_ms``, the progress interval and the trace context)
  to :meth:`WorkerSlot._execute`;
* it lands the verdict (``done`` or ``cancelled``, with ``deadline_ms``
  truncation kept out of the fingerprint-keyed cache) or the error, and
  keeps the per-worker gauges (busy/idle, ``current_job``,
  ``jobs_completed``).  Every job event carries the job's ``tenant_id``.

:meth:`WorkerSlot._execute` is the only model-specific step: where
:func:`run_task` -- the one function that builds the token, the deadline
and the traced :class:`~repro.core.control.SearchControl` and calls
:meth:`~repro.core.verifier.Verifier.verify` -- runs.  A thread slot calls
it in-process.  A :class:`ProcessWorkerAgent` sends the task dict to its
child over a duplex ``multiprocessing`` pipe; the child
(:func:`process_worker_main`) runs :func:`run_task` and streams
``ProgressEvent`` tuples and finished spans followed by one terminal
``("done", result_dict)`` / ``("error", message)`` message back up the
pipe, which the agent relays onto the server's event bus -- so
``GET /v1/jobs/<id>/events`` cannot tell the models apart.

Each slot polls its cancel flag through
``CancellationToken(external=flag.is_set)`` once per search-loop iteration:
a ``threading.Event`` on a thread slot, a ``multiprocessing.Event`` shared
with the child on a process slot.  ``DELETE /v1/jobs/<id>`` sets it at
once.  The server's heartbeat thread refreshes every in-flight job's
heartbeat once per ``heartbeat_interval``
(:meth:`~repro.server.store.JobStore.touch_claim`) and sets the flag when
the store reports a cancel -- so a ``DELETE`` accepted by **any server
sharing the store** stops the search within one heartbeat interval -- or
when the claim was rescued by a stale sweep, so a zombie run unwinds
instead of being kept alive.

Process slots are spawn-safe (the ``spawn`` start method is used everywhere
--- no fork-inherited locks), spawn their child on the first claimed job,
and **recycle** it after ``max_jobs_per_worker`` jobs, bounding any leak a
long worker life could accumulate.  A crashed child (segfault, OOM-kill,
``SIGKILL``) is detected by the agent, its job is released back to the
queue through the same recovery semantics a server restart uses (requeue
-- unless the job's cancellation was already requested, in which case it
is finalised ``cancelled``), and a fresh child is spawned for the next job.
"""

from __future__ import annotations

import multiprocessing
import sqlite3
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.core.control import CancellationToken, PhaseTimer, SearchControl
from repro.core.verifier import VerificationResult, Verifier
from repro.events import (
    CacheServed,
    JobCancelled,
    JobCompleted,
    JobFailed,
    SearchEvent,
    SpanRecorded,
    VerificationStarted,
    WorkerCrashed,
    WorkerRecycled,
)
from repro.obs import Span, TraceContext, TraceScope, Tracer
from repro.service.jobs import VerificationJob

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (app imports us)
    from repro.server.app import VerificationServer
    from repro.server.store import StoredJob

#: The multiprocessing start method.  ``spawn`` is the only start method that
#: is safe under threads on every platform (``fork`` duplicates a
#: mid-transaction SQLite lock or a held logging lock into the child).
START_METHOD = "spawn"


def deadline_ms_binding(stored: "StoredJob") -> bool:
    """Whether a timeout should be blamed on the job-level ``deadline_ms``.

    ``deadline_ms`` is a job-level limit *outside* the content fingerprint,
    so a verdict it truncates must never enter the fingerprint-keyed result
    cache; ``options.timeout_seconds`` is fingerprinted and hence safe to
    cache.  ``deadline_ms`` is the binding limit when it is the sooner of
    the two.
    """
    options_timeout = stored.options_dict.get("timeout_seconds")
    return stored.deadline_ms is not None and (
        options_timeout is None or stored.deadline_ms / 1000.0 <= options_timeout
    )


def run_task(
    task: Dict[str, Any],
    event_sink: Callable[[Any], None],
    cancelled: Callable[[], bool],
    span_exporter: Callable[[Span], None],
) -> VerificationResult:
    """Verify one task dict: the search both worker models run.

    ``cancelled`` is polled once per search-loop iteration (the token's
    external backend); ``deadline_ms`` bounds the run's wall-clock time.
    A traced task carries its parent span context as plain dict data and
    gets a short-lived tracer whose finished ``verify.*`` spans go to
    ``span_exporter``.
    """
    job = VerificationJob(
        system_dict=task["system"],
        property_dict=task["property"],
        options_dict=task["options"],
    )
    token = CancellationToken(external=cancelled)
    deadline_ms = task.get("deadline_ms")
    if deadline_ms is not None:
        token.tighten_deadline(deadline_ms / 1000.0)
    traced: Dict[str, Any] = {}
    trace = task.get("trace")
    if trace:
        tracer = Tracer(enabled=True, exporter=span_exporter)
        parent = TraceContext(trace["trace_id"], trace["parent_span"])
        traced = {
            "phase_timer": PhaseTimer(),
            "trace": TraceScope(tracer, parent=parent, job_id=trace["job_id"]),
        }
    control = SearchControl(
        token=token,
        event_sink=event_sink,
        progress_interval=task.get("progress_interval", 500),
        **traced,
    )
    return Verifier(job.system(), job.options()).verify(job.ltl_property(), control)


# --------------------------------------------------------------------- child


def process_worker_main(conn, cancel_event) -> None:
    """Child-process entry point: verify tasks from the pipe until told to stop.

    Must stay a module-level function (picklable by reference under
    ``spawn``) and exchange only JSON-compatible payloads.  One message in
    (``None`` to exit, else a task dict), a stream of messages out::

        ("event", kind, data)     # progress events, relayed to the store
        ("span", span_dict)       # finished trace spans (traced tasks only)
        ("done", result_dict)     # the serialized VerificationResult
        ("error", message)        # the search raised

    ``cancel_event`` is the cross-process cancellation backend: the token
    polls it cooperatively once per search-loop iteration, so a cancel set
    by the parent stops the search within one iteration.
    """

    # SearchControl.emit and Tracer.finish swallow sink exceptions, so a
    # dead pipe can never kill the search; the parent notices the crash.
    def relay(event) -> None:
        conn.send(("event", event.kind, dict(event.data)))

    def export(span: Span) -> None:
        conn.send(("span", span.as_dict()))

    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):  # parent died or closed the pipe
            return
        if task is None:
            return
        try:
            result = run_task(task, relay, cancel_event.is_set, export)
            conn.send(("done", result.as_dict()))
        except Exception as error:  # noqa: BLE001 - report, don't die
            try:
                conn.send(("error", f"{type(error).__name__}: {error}"))
            except (BrokenPipeError, OSError):  # pragma: no cover
                return


def probe_process_support() -> Optional[str]:
    """Spawn-and-join one trivial child; the error string if that fails.

    Mirrors :mod:`repro.service.engine`'s ``BrokenProcessPool`` degradation:
    sandboxes without a working ``spawn`` (no ``/dev/shm`` semaphores, no
    ``fork``/``exec``) make the server fall back to thread workers instead
    of failing to start.
    """
    try:
        context = multiprocessing.get_context(START_METHOD)
        probe = context.Process(target=_probe_main, daemon=True)
        probe.start()
        probe.join(timeout=60)
        if probe.exitcode != 0:
            if probe.is_alive():  # pragma: no cover - wedged spawn
                probe.terminate()
                probe.join(timeout=5)
            return f"probe child exited with {probe.exitcode}"
        return None
    except Exception as error:  # noqa: BLE001 - any failure means "no processes"
        return f"{type(error).__name__}: {error}"


def _probe_main() -> None:  # pragma: no cover - runs in a child process
    """A no-op child proving process creation works in this environment."""


# -------------------------------------------------------------------- parent


class TaskFailed(Exception):
    """A child's search raised; ``str()`` is its ``"<Type>: <message>"``."""


class WorkerSlot(threading.Thread):
    """One worker slot: the claim loop and job lifecycle of both models.

    This class is the thread model: :meth:`_execute` runs the search in
    this thread.  :class:`ProcessWorkerAgent` overrides only where the
    search runs and the handling of its child process.
    """

    model = "thread"
    _id_tag = "thread"

    def __init__(self, server: "VerificationServer", index: int):
        # The server-id prefix makes the claim attributable in shared-store
        # deployments: startup recovery requeues only own-prefix claims, and
        # operators can read `claimed_by` to see which server runs a job.
        self.worker_id = f"{server.worker_id_prefix}{self._id_tag}-{index}"
        super().__init__(name=f"repro-worker-{index}", daemon=True)
        self.server = server
        #: The flag the running search polls; `DELETE` and the heartbeat
        #: thread set it through the canceller the slot registers per job.
        self.cancel_flag: Any = threading.Event()
        self._gauges = server.metrics.worker_gauges
        self._gauges.update(self.worker_id, state="idle", model=self.model)

    # ------------------------------------------------------------ claim loop

    def run(self) -> None:
        server = self.server
        failures = 0
        while not server._stop_event.is_set():
            try:
                stored = server.store.claim_next(worker_id=self.worker_id)
            except sqlite3.ProgrammingError:  # store closed mid-shutdown
                return
            except Exception:
                # Transient store trouble (e.g. an exhausted busy timeout
                # under multi-process contention): the slot must outlive it,
                # or worker capacity silently shrinks to zero.
                server._stop_event.wait(timeout=0.5)
                continue
            if stored is None:
                server._wakeup.wait(timeout=0.1)
                server._wakeup.clear()
                continue
            try:
                self._run_job(stored)
                failures = 0
            except sqlite3.ProgrammingError:  # store closed mid-shutdown
                return
            except Exception:  # noqa: BLE001 - the slot must survive anything
                # A failed (re)spawn, or a final write that hit transient
                # store trouble: hand the job back (a no-op if it already
                # landed or was rescued) and back off exponentially.
                failures += 1
                try:
                    server.store.release(stored.id, self.worker_id)
                except sqlite3.ProgrammingError:
                    return
                except Exception:  # noqa: BLE001 - the stale sweep rescues it
                    pass
                server._stop_event.wait(
                    timeout=min(5.0, 0.25 * (2 ** min(failures, 5)))
                )

    # ------------------------------------------------------------- lifecycle

    def _run_job(self, stored: "StoredJob") -> None:
        server = self.server
        started = time.monotonic()
        self._gauges.update(self.worker_id, state="busy", current_job=stored.id)
        # The slot owns the job's worker.execute span: a process child may
        # be SIGKILL'd mid-search, and a dead process cannot close its own
        # spans -- the slot closes this one with an error status instead.
        execute_span = self._start_job_spans(stored)
        try:
            job = stored.to_job()
            cached = server.cache.get(job.fingerprint)
            if cached is not None:
                server.events.fire(
                    CacheServed(
                        job_id=stored.id,
                        data={"outcome": cached.outcome.value, "cache_hit": True},
                        tenant_id=stored.tenant_id,
                    )
                )
                if execute_span is not None:
                    execute_span.set_attr("cache_hit", True)
                self._finalize(stored, cached, True, False, started)
                return
            task: Dict[str, Any] = {
                "system": job.system_dict,
                "property": job.property_dict,
                "options": job.options_dict,
                "deadline_ms": stored.deadline_ms,
                "progress_interval": server.progress_interval,
            }
            if execute_span is not None:
                # The verify.* spans parent under this execute span, with
                # the context carried as plain dict data (it may cross a pipe).
                task["trace"] = {
                    "trace_id": execute_span.trace_id,
                    "parent_span": execute_span.span_id,
                    "job_id": stored.id,
                }
            self._prepare()
            self.cancel_flag.clear()  # a late cancel of the previous job
            server._register_canceller(stored.id, self.worker_id, self.cancel_flag.set)
            try:
                # A cancel accepted between the claim and the registration
                # above only reached the store; fold it into the flag now.
                if server.store.is_cancel_requested(stored.id):
                    self.cancel_flag.set()
                server.events.fire(
                    VerificationStarted(job_id=stored.id, tenant_id=stored.tenant_id)
                )
                try:
                    result = self._execute(stored, task)
                except Exception as error:  # noqa: BLE001 - lands as `error`
                    message = (
                        str(error)
                        if isinstance(error, TaskFailed)
                        else f"{type(error).__name__}: {error}"
                    )
                    if execute_span is not None:
                        execute_span.set_error(message)
                    if server.store.mark_error(
                        stored.id, message, worker_id=self.worker_id
                    ):
                        server.events.fire(
                            JobFailed(
                                job_id=stored.id,
                                data={"error": message},
                                tenant_id=stored.tenant_id,
                            )
                        )
                    return
            finally:
                server._unregister_canceller(stored.id)
            if result is None:  # the child died; its job went back to the queue
                if execute_span is not None:
                    execute_span.set_error(
                        "worker process died mid-job", reason="worker-crashed"
                    )
                return
            # A verdict cut short by the job-level deadline_ms (outside the
            # fingerprint) stays on the job row, off the result cache.
            truncated = deadline_ms_binding(stored) and result.stats.timed_out
            if execute_span is not None:
                execute_span.set_attr("cache_hit", False)
                if result.stats.cancelled:
                    execute_span.set_error("search cancelled", reason="cancelled")
            self._finalize(stored, result, False, truncated, started)
        finally:
            if execute_span is not None:
                server.tracer.finish(execute_span)
            self._gauges.update(self.worker_id, state="idle", current_job=None)

    def _start_job_spans(self, stored: "StoredJob") -> Optional[Span]:
        """Record the job's ``queue.wait`` span and open ``worker.execute``.

        Returns the open execute span (``None`` when tracing is off or the
        job carries no trace).  The queue wait happened before any traced
        code ran, so it is recorded retroactively from the store's
        ``submitted_at``/``started_at`` stamps.
        """
        tracer = self.server.tracer
        if not tracer.enabled or stored.trace_id is None:
            return None
        claimed_at = stored.started_at if stored.started_at is not None else time.time()
        tracer.record_span(
            "queue.wait",
            trace_id=stored.trace_id,
            parent_id=stored.parent_span,
            start_time=stored.submitted_at,
            duration=claimed_at - stored.submitted_at,
            job_id=stored.id,
        )
        parent = (
            TraceContext(stored.trace_id, stored.parent_span)
            if stored.parent_span
            else None
        )
        return tracer.start_span(
            "worker.execute",
            parent=parent,
            trace_id=stored.trace_id,
            job_id=stored.id,
            worker_id=self.worker_id,
        )

    def _finalize(
        self,
        stored: "StoredJob",
        result: VerificationResult,
        cache_hit: bool,
        deadline_truncated: bool,
        started: float,
    ) -> None:
        """Land a finished job in the store.

        A cancelled run lands as terminal ``cancelled`` with its partial
        statistics (never cached); a ``deadline_ms``-truncated verdict stays
        on the job row only (``persist_result=False``).  The marks carry this
        slot's worker id: they land only while the slot still owns the
        claim, so a zombie whose job was rescued by a stale sweep (here or
        on a peer server) can never overwrite the live run's state.  A mark
        that does not land bumps no metrics.
        """
        server = self.server
        self._gauges.increment(self.worker_id, "jobs_completed")
        if result.stats.cancelled:
            if server.store.mark_cancelled(
                stored.id, result.as_dict(), worker_id=self.worker_id
            ):
                server.events.fire(
                    JobCancelled(job_id=stored.id, tenant_id=stored.tenant_id)
                )
            return
        if server.store.mark_done(
            stored.id,
            result.as_dict(),
            cache_hit=cache_hit,
            persist_result=not deadline_truncated,
            worker_id=self.worker_id,
        ):
            server.events.fire(
                JobCompleted(
                    job_id=stored.id,
                    data={
                        "seconds": time.monotonic() - started,
                        "cache_hit": cache_hit,
                    },
                    tenant_id=stored.tenant_id,
                )
            )

    # --------------------------------------------------- model-specific steps

    def _prepare(self) -> None:
        """Make the slot ready to run a search (a process slot spawns here)."""

    def _execute(
        self, stored: "StoredJob", task: Dict[str, Any]
    ) -> Optional[VerificationResult]:
        """Run the search for *task*; ``None`` means the job was released.

        An exception lands the job as ``error``.
        """
        return run_task(
            task,
            self.server.events.progress_sink(stored.id, trace_id=stored.trace_id),
            self.cancel_flag.is_set,
            self.server._export_span,
        )

    def close(self) -> None:
        """Mark the slot stopped (called by the server after it joined)."""
        self._gauges.update(self.worker_id, state="stopped", current_job=None)


class ProcessWorkerAgent(WorkerSlot):
    """A worker slot that runs its searches on one child process.

    The agent is the only toucher of its child's pipe, so no cross-thread
    pipe locking is needed.  Each child gets a fresh
    ``multiprocessing.Event`` as its cancel flag: a child SIGKILL'd while
    polling it could leave the event's internal lock held.
    """

    model = "process"
    _id_tag = "proc"

    def __init__(self, server: "VerificationServer", index: int):
        super().__init__(server, index)
        self.context = multiprocessing.get_context(START_METHOD)
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self._conn = None  # parent end of the duplex pipe
        self._jobs_on_child = 0  # jobs dispatched to the current child

    # ------------------------------------------------------------- the child

    def _prepare(self) -> None:
        """(Re)spawn the child if missing, dead, or due for recycling."""
        if self.process is not None and self.process.is_alive():
            if self._jobs_on_child < self.server.max_jobs_per_worker:
                return
            self._shutdown_child()  # recycle: bounded worker lifetime
            self.server.events.fire(WorkerRecycled(data={"worker": self.worker_id}))
            self._gauges.increment(self.worker_id, "recycles")
        if self.process is not None and not self.process.is_alive():
            self._close_pipes()
        parent_conn, child_conn = self.context.Pipe(duplex=True)
        cancel_event = self.context.Event()
        process = self.context.Process(
            target=process_worker_main,
            args=(child_conn, cancel_event),
            name=f"repro-worker-{self.worker_id}",
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            # A failed spawn must not leak the fresh pipe fds: the claim
            # loop retries indefinitely on EAGAIN-style failures.
            parent_conn.close()
            child_conn.close()
            raise
        child_conn.close()  # the child holds its own copy
        self.process = process
        self._conn = parent_conn
        self.cancel_flag = cancel_event
        self._jobs_on_child = 0
        self._gauges.update(self.worker_id, pid=process.pid)

    def _close_pipes(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover
                pass
        self._conn = None
        self.process = None

    def _shutdown_child(self) -> None:
        """Stop the current child: sentinel first, terminate if it lingers."""
        if self.process is None:
            return
        if self.process.is_alive() and self._conn is not None:
            try:
                self._conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        if self.process.is_alive():
            self.process.join(timeout=2)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)
        self._close_pipes()

    def close(self) -> None:
        """Tear the child down (called by the server after the agent joined)."""
        self._shutdown_child()
        self._gauges.update(self.worker_id, pid=None)
        super().close()

    # ------------------------------------------------------------- execution

    def _execute(
        self, stored: "StoredJob", task: Dict[str, Any]
    ) -> Optional[VerificationResult]:
        """Send *task* to the child and relay its messages until the end."""
        server = self.server
        self._jobs_on_child += 1
        try:
            self._conn.send(task)
        except (BrokenPipeError, OSError):
            return self._handle_crash(stored)
        while True:
            try:
                if not self._conn.poll(timeout=0.1):
                    # One final poll after the liveness check: the child may
                    # have flushed its terminal message between the two.
                    if self.process.is_alive() or self._conn.poll(timeout=0):
                        continue
                    return self._handle_crash(stored)
                message = self._conn.recv()
            except (EOFError, OSError):
                return self._handle_crash(stored)
            kind = message[0]
            if kind == "event":
                # Onto the bus as a lossy SearchEvent: the StoreSink appends
                # it under the short fail-fast busy timeout and drops it on
                # contention -- dropping a progress event beats blocking
                # this relay.
                server.events.fire(
                    SearchEvent(
                        job_id=stored.id,
                        data=message[2],
                        kind=message[1],
                        trace_id=stored.trace_id,
                    )
                )
            elif kind == "span":
                server.events.fire(
                    SpanRecorded(
                        job_id=stored.id,
                        data=message[1],
                        trace_id=message[1].get("trace_id"),
                    )
                )
            elif kind == "done":
                return VerificationResult.from_dict(message[1])
            else:
                raise TaskFailed(message[1])

    def _handle_crash(self, stored: "StoredJob") -> None:
        """The child died mid-job: requeue through the recovery semantics."""
        server = self.server
        exitcode = self.process.exitcode if self.process is not None else None
        self._close_pipes()
        self._gauges.increment(self.worker_id, "crashes")
        # Same rule as restart recovery: an accepted cancel is honoured
        # (finalise `cancelled`), otherwise the job re-queues -- verification
        # is deterministic and idempotent, so a re-run is always safe.  The
        # ownership predicate makes this a no-op if a peer server's sweeper
        # already rescued (and possibly re-claimed) the job.
        released = server.store.release(stored.id, self.worker_id)
        # WorkerCrashed is durable-when-job-scoped: the job id is attached
        # only when the release landed (the rescued job's event log belongs
        # to its new owner); the crash counter bumps either way.
        server.events.fire(
            WorkerCrashed(
                job_id=stored.id if released else None,
                data={
                    "worker": self.worker_id,
                    "exitcode": exitcode,
                    "disposition": (
                        "cancelled"
                        if server.store.is_cancel_requested(stored.id)
                        else "requeued"
                    ),
                },
            )
        )
        server._wakeup.set()  # a requeued job is claimable again -- by anyone
