"""Unit and thread-model tests of the shared worker-slot code
(repro.server.workers.run_task and WorkerSlot).

``run_task`` is the one search entry point both worker models call, so its
token, deadline and tracing wiring is tested directly here; the thread-slot
tests cover lifecycle behaviour the process suite (test_workers.py) cannot
reach on a thread server: gauges and the release of a job whose final write
failed.
"""

from __future__ import annotations

import time

from repro.client import VerifasClient
from repro.has.conditions import Const, Eq, Neq, Var
from repro.ltl import LTLFOProperty, parse_ltl
from repro.server import VerificationServer
from repro.server.workers import run_task
from repro.spec import dump_property, dump_system


def _never_shipped():
    return LTLFOProperty(
        "Main", parse_ltl("G ns"),
        {"ns": Neq(Var("status"), Const("shipped"))}, name="never-shipped",
    )


def _consistent():
    """Satisfied on the exploding system: the search must exhaust the space."""
    return LTLFOProperty(
        "Main", parse_ltl("G !(p & q)"),
        {"p": Eq(Var("v0"), Const("c0")), "q": Eq(Var("v0"), Const("c1"))},
        name="consistent",
    )


def _task(system, prop, **extra):
    task = {
        "system": dump_system(system),
        "property": dump_property(prop),
        "options": {"timeout_seconds": 60},
        "deadline_ms": None,
        "progress_interval": 25,
    }
    task.update(extra)
    return task


def _thread_server(tmp_path, **kwargs) -> VerificationServer:
    server = VerificationServer(
        store_path=tmp_path / "jobs.db", port=0, workers=1,
        sweep_interval=0.1, worker_model="thread", **kwargs,
    )
    server.start()
    return server


class TestRunTask:
    def test_plain_task_verifies_and_streams_progress(self, tiny_system):
        events = []
        result = run_task(
            _task(tiny_system, _never_shipped()),
            events.append, lambda: False, lambda span: None,
        )
        assert result.outcome.value == "violated"
        assert not result.stats.cancelled and not result.stats.timed_out
        assert events and events[0].kind == "phase"

    def test_external_flag_cancels_the_search(self, exploding_system):
        polls = []

        def cancelled():
            polls.append(1)
            return len(polls) > 3  # fires a few search-loop iterations in

        result = run_task(
            _task(exploding_system, _consistent()),
            lambda event: None, cancelled, lambda span: None,
        )
        assert result.stats.cancelled
        assert result.outcome.value == "unknown"

    def test_deadline_ms_bounds_the_search(self, exploding_system):
        started = time.monotonic()
        result = run_task(
            _task(exploding_system, _consistent(), deadline_ms=200),
            lambda event: None, lambda: False, lambda span: None,
        )
        assert result.stats.timed_out and not result.stats.cancelled
        assert time.monotonic() - started < 30

    def test_traced_task_exports_verify_spans_under_the_parent(self, tiny_system):
        spans = []
        trace = {"trace_id": "t" * 32, "parent_span": "p" * 16, "job_id": "job-1"}
        run_task(
            _task(tiny_system, _never_shipped(), trace=trace),
            lambda event: None, lambda: False, spans.append,
        )
        assert spans, "a traced task must export its verify.* spans"
        assert all(span.trace_id == trace["trace_id"] for span in spans)
        assert all(span.name.startswith("verify") for span in spans)
        span_ids = {span.span_id for span in spans}
        roots = [span for span in spans if span.parent_id not in span_ids]
        # No span is orphaned: each one hangs, directly or through other
        # verify spans, under the parent carried in the task dict.
        assert roots
        assert {span.parent_id for span in roots} == {trace["parent_span"]}


class TestThreadSlots:
    def test_thread_slots_register_gauges_and_count_jobs(self, tmp_path, tiny_system):
        server = _thread_server(tmp_path)
        try:
            pool = server.metrics_view()["workers"]["pool"]
            assert [gauge["state"] for gauge in pool] == ["idle"]
            assert pool[0]["model"] == "thread"

            client = VerifasClient(server.url, poll_initial=0.02)
            handle = client.submit(
                dump_system(tiny_system), [dump_property(_never_shipped())],
                options={"timeout_seconds": 60},
            )[0]
            client.wait(handle.id, deadline_seconds=60)
            # The slot goes idle right after landing the verdict.
            deadline = time.monotonic() + 10
            while server.metrics_view()["workers"]["pool"][0]["state"] != "idle":
                assert time.monotonic() < deadline, "slot never went idle"
                time.sleep(0.02)
            gauge = server.metrics_view()["workers"]["pool"][0]
            assert gauge["jobs_completed"] == 1 and gauge["current_job"] is None
        finally:
            server.stop()
        assert server.metrics.worker_gauges.snapshot()[0]["state"] == "stopped"

    def test_job_whose_final_write_raised_is_released_and_rerun(
        self, tmp_path, tiny_system
    ):
        """A slot that could not land its verdict hands the job back to the
        queue at once (no stale sweep needed) and survives to re-run it."""
        server = _thread_server(tmp_path)
        mark_done = server.store.mark_done
        failed = []

        def flaky_mark_done(*args, **kwargs):
            if not failed:
                failed.append(1)
                raise RuntimeError("transient store trouble")
            return mark_done(*args, **kwargs)

        server.store.mark_done = flaky_mark_done
        try:
            client = VerifasClient(server.url, poll_initial=0.02)
            handle = client.submit(
                dump_system(tiny_system), [dump_property(_never_shipped())],
                options={"timeout_seconds": 60},
            )[0]
            # Well inside the 15 s stale-heartbeat window: the slot released
            # the job itself, not the stale sweep.
            view = client.wait(handle.id, deadline_seconds=10)
            assert failed == [1]
            assert view["status"] == "done"
            assert view["result"]["outcome"] == "violated"
            assert server.metrics_view()["workers"]["pool"][0]["jobs_completed"] == 2
        finally:
            server.stop()
