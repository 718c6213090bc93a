"""The ``service`` workload: closed-loop clients against an in-process
``VerificationServer`` with the process worker model (the ``serve``
default) and its default two workers.

Each of ``CLIENTS`` threads submits one job at a time through
``VerifasClient``, learns that it finished from the events long-poll, then
reads the job view for the verdict and the store's timestamps.  A job is
one corpus property at a small budget.  Every client works through a fixed
list of jobs (see ``job_plans``): every corpus row once per pass, with one
repeat of an already answered fingerprint after every three fresh jobs, so
repeats take the cache and store-read path while fresh jobs take the
store-write, IPC and search path.
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from common import References, median, out_path, peak_rss_mb, quantile, use_source_tree

#: Client threads (= the machine's two cores) and server workers.
CLIENTS = 2
WORKERS = 2
#: Each client verifies every corpus row once per pass, at its own budget
#: (``BUDGET`` + pass x ``CLIENTS`` + client), so no two fresh jobs share a
#: fingerprint.  Budgets stay small: the search is short and per-request
#: overhead shows.
BUDGET = 60
TIMEOUT_S = 20.0
#: After every ``REPEAT_EVERY`` fresh jobs a client resubmits one it has
#: already had answered, so a quarter of submissions take the cache path.
#: This share is an assumed traffic mix, not a measured one.
REPEAT_EVERY = 3
#: Seconds one pass takes (2-CPU x86-64 VM, Python 3.11).  A run makes as
#: many whole passes as fill ``--seconds`` at this pace, and at least one,
#: so the work of a run never depends on how fast it happens to go.
NOMINAL_PASS_S = 25.0
#: Server starts measured for setup_s; the last one serves the run.
SETUP_SAMPLES = 3
JOB_DEADLINE_S = 60.0

#: One submission: row key, dumped system and property, options, repeat?
Job = Tuple[str, Dict[str, Any], Dict[str, Any], Dict[str, Any], bool]


def job_plans(rows, seed: int, passes: int) -> List[List[Job]]:
    """The fixed job list of every client thread.

    A client's fresh jobs are every row at the client's budget for each
    pass; its repeats are drawn from its own earlier fresh jobs, which it
    has already seen answered.  The seed only shuffles the fresh jobs and
    picks which of them repeat, each client from its own stream, so neither
    the seed nor completion timing changes the mix of work.
    """
    from repro.spec.codec import dump_property, dump_system

    systems: Dict[str, Dict[str, Any]] = {}
    dumped = []
    for row in rows:
        if row.group not in systems:
            systems[row.group] = dump_system(row.system)
        dumped.append((row.key, systems[row.group], dump_property(row.property)))
    plans = []
    for client in range(CLIENTS):
        rng = random.Random(f"{seed}/{client}")
        plan: List[Job] = []
        answered: List[Job] = []
        for pass_index in range(passes):
            budget = BUDGET + pass_index * CLIENTS + client
            options = {"max_states": budget, "max_repeated_states": budget,
                       "timeout_seconds": TIMEOUT_S}
            fresh = [(key, system, prop, options, False) for key, system, prop in dumped]
            rng.shuffle(fresh)
            for count, job in enumerate(fresh, start=1):
                plan.append(job)
                answered.append(job)
                if count % REPEAT_EVERY == 0:
                    plan.append(rng.choice(answered)[:4] + (True,))
        plans.append(plan)
    return plans


def _start_server(store_path: str):
    """Start a server and run warm-up jobs until every worker has spawned
    its child process; returns the server and its client."""
    from repro.client import VerifasClient
    from repro.server import VerificationServer

    server = VerificationServer(store_path=store_path, port=0, workers=WORKERS,
                                worker_model="process")
    server.start()
    client = VerifasClient(server.url, push_events=True)
    return server, client


def _warm_up(client, job: Job) -> None:
    """Warm-up jobs, two per worker at once so that every idle worker claims
    one, until every worker's child process is up: spawning is then not in
    the latency samples.  Their budgets lie below the measured jobs', so no
    measured job finds a warm-up result in the cache."""
    key, system, prop = job[:3]
    for attempt in range(10):
        handles = []
        for slot in range(2 * WORKERS):
            budget = 2 + attempt * 2 * WORKERS + slot
            options = {"max_states": budget, "max_repeated_states": budget,
                       "timeout_seconds": TIMEOUT_S}
            handles += client.submit(system, [prop], options=options)
        for handle in handles:
            client.wait(handle.id, deadline_seconds=JOB_DEADLINE_S)
        pool = client.metrics()["workers"].get("pool", [])
        if len(pool) >= WORKERS and all(entry.get("pid") for entry in pool):
            return
    raise RuntimeError("worker processes did not all start during warm-up")


def _client_loop(client, plan: List[Job], samples: List[Dict[str, Any]],
                 references: References, errors: List[str]) -> None:
    for key, system, prop, options, repeat in plan:
        began = time.perf_counter()
        submitted_wall = time.time()
        try:
            (handle,) = client.submit(system, [prop], options=options)
            submitted = time.perf_counter()
            for _ in client.iter_events(handle.id, deadline_seconds=JOB_DEADLINE_S, push=True):
                pass
            seen = time.perf_counter()
            seen_wall = time.time()
            view = client.job(handle.id)
        except Exception as error:  # an HTTP or client error is a failed attempt
            errors.append(f"{key}: {type(error).__name__}: {error}")
            samples.append({"key": key, "status": "client-error"})
            continue
        sample = {"key": key, "repeat": repeat, "status": view.get("status"),
                  "latency": seen - began, "submit": submitted - began,
                  "view": view, "submitted_wall": submitted_wall, "seen_wall": seen_wall}
        samples.append(sample)
        if view.get("status") != "done":
            errors.append(f"{key}: job ended {view.get('status')}: {view.get('error')}")
            continue
        verdict = view["result"]["outcome"]
        message = references.check(key, verdict)
        if message is not None:
            sample["mismatch"] = message


def _measure(client, plans: List[List[Job]], references: References):
    """Run every client's plan to its end, one thread per client."""
    samples: List[Dict[str, Any]] = []
    errors: List[str] = []
    threads = [
        threading.Thread(target=_client_loop, args=(client, plan, samples, references, errors))
        for plan in plans
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples, errors, time.perf_counter() - started


def _end_to_end(samples, wall: float) -> Dict[str, float]:
    done = [s for s in samples if s["status"] == "done"]
    latencies = [s["latency"] for s in done]
    fresh = [s["view"]["result"] for s in done if not s["view"].get("cache_hit")]
    verify = [r["stats"]["total_seconds"] for r in fresh]
    rate = len(done) / wall
    return {
        "job_latency_s.p50": quantile(latencies, 0.5),
        "job_latency_s.p90": quantile(latencies, 0.9),
        "jobs_per_s": rate,
        # Through the service, one job verifies one property; the worker
        # reports the verify time of the fresh (not cached) ones.
        "properties_per_s": rate,
        "verify_s.p50": quantile(verify, 0.5),
        "verify_s.p90": quantile(verify, 0.9),
        "capped_ratio": (sum(r["stats"]["state_limit_reached"] for r in fresh) / len(fresh)
                         if fresh else 0.0),
        "unknown_ratio": (sum(r["outcome"] == "unknown" for r in fresh) / len(fresh)
                          if fresh else 0.0),
        "peak_rss_mb": peak_rss_mb(),
    }


def _layer_metrics(samples, metrics_view: Dict[str, Any], summary) -> Dict[str, float]:
    done = [s for s in samples if s["status"] == "done"]
    views = [s["view"] for s in done]
    queue = [v["started_at"] - v["submitted_at"] for v in views if v.get("started_at")]
    execute = [v["finished_at"] - v["started_at"] for v in views if v.get("started_at")]
    notify = [s["seen_wall"] - s["view"]["finished_at"] for s in done]
    overhead = [
        v["finished_at"] - v["started_at"] - v["result"]["stats"]["total_seconds"]
        for v in views if v.get("started_at") and not v.get("cache_hit")
    ]
    pool = metrics_view.get("workers", {}).get("pool", [])

    def span(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0.0)

    return {
        "client.submit_s.p50": quantile([s["submit"] for s in done], 0.5),
        "client.submit_s.p90": quantile([s["submit"] for s in done], 0.9),
        "server.queue_wait_s.p50": quantile(queue, 0.5),
        "server.queue_wait_s.p90": quantile(queue, 0.9),
        "server.execute_s.p50": quantile(execute, 0.5),
        "server.notify_s.p50": quantile(notify, 0.5),
        "store.submit.calls": span("store.submit", "calls"),
        "store.submit.s": span("store.submit", "s"),
        "store.claim_next.calls": span("store.claim_next", "calls"),
        "store.claim_next.s": span("store.claim_next", "s"),
        "store.mark_done.s": span("store.mark_done", "s"),
        "store.get_result.s": span("store.get_result", "s"),
        "store.append_event.calls": span("store.append_event", "calls"),
        "workers.overhead_s.p50": quantile(overhead, 0.5),
        "workers.recycles": sum(entry.get("recycles", 0) for entry in pool),
        "workers.crashes": sum(entry.get("crashes", 0) for entry in pool),
        "cache.hit_ratio": metrics_view.get("cache", {}).get("hit_rate") or 0.0,
    }


def run(seed: int, seconds: float, trace: bool):
    use_source_tree()
    import search

    references = References.load()
    passes = max(1, round(seconds / NOMINAL_PASS_S))
    plans = job_plans(search.corpus_rows(), seed, passes)
    stores = [out_path(f"service-{os.getpid()}-{i}.db") for i in range(SETUP_SAMPLES)]
    setups: List[float] = []
    server: Optional[Any] = None
    tracer = None
    try:
        for store in stores:
            if server is not None:
                server.stop()
            began = time.perf_counter()
            server, client = _start_server(store)
            _warm_up(client, plans[0][0])
            setups.append(time.perf_counter() - began)
        problems = []
        workers = client.metrics()["workers"]
        if workers.get("fallback_error") or workers.get("model") != "process":
            problems.append(f"process workers fell back to threads: {workers.get('fallback_error')}")

        if not trace:
            samples, errors, wall = _measure(client, plans, references)
            metrics = _end_to_end(samples, wall)
        else:
            import layers
            from tracer import Tracer

            # Overhead: the first half of every plan untraced, the rest traced.
            halves = [len(plan) // 2 for plan in plans]
            plain, errors, plain_wall = _measure(
                client, [plan[:half] for plan, half in zip(plans, halves)], references)
            tracer = Tracer()
            layers.install(tracer, layers.STORE_TARGETS)
            samples, more_errors, wall = _measure(
                client, [plan[half:] for plan, half in zip(plans, halves)], references)
            tracer.unpatch()
            errors += more_errors
            metrics = _layer_metrics(samples, client.metrics(), tracer.summary())
            traced_p50 = _end_to_end(samples, wall)["job_latency_s.p50"]
            plain_p50 = _end_to_end(plain, plain_wall)["job_latency_s.p50"]
            metrics["trace.overhead_s"] = traced_p50 - plain_p50
            metrics["trace.overhead_ratio"] = traced_p50 / plain_p50
            metrics["trace.spans"] = len(tracer)
            tracer.write(out_path("service-spans.bin"))
            samples = plain + samples
        metrics["setup_s"] = median(setups)
    finally:
        if tracer is not None:
            tracer.unpatch()
        if server is not None:
            server.stop()
        for store in stores:
            for suffix in ("", "-wal", "-shm", "-journal"):
                if os.path.exists(store + suffix):
                    os.remove(store + suffix)
    mismatches = [s["mismatch"] for s in samples if "mismatch" in s]
    judged = {"mismatches": mismatches, "failures": errors + mismatches}
    return len(samples), judged, metrics, problems
