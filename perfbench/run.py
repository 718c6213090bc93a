"""The repository's benchmark: time to a verdict, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (see BENCHMARK.json):

* ``corpus``    -- the 13 real workflows x the 12 Table-4 templates, plus the
  Section 2.1 guard property on both order-fulfillment variants, verified
  one at a time with ``Verifier.verify``;
* ``synthetic`` -- Appendix-D generated specs x the 12 templates;
* ``service``   -- closed-loop clients against an in-process
  ``VerificationServer`` with process workers (see service.py).

The seed picks the visiting order (and, for ``service``, the job stream)
and pins the interpreter hash seed, because exploration order follows set
iteration order.  ``--trace 0`` measures the end-to-end metrics: whole
passes over the rows, verified by ``LANES`` lane processes side by side,
or ``--seconds`` of service traffic.  ``--trace 1`` makes one
traced pass in this process instead and reports the per-layer metrics, the
tracing overhead and per-row work counts (written to ``.perfbench_out/``
with the spans).  A decided verdict that contradicts ``reference.json``,
traced and untraced runs that disagree, traced spans outside a verify call
(or a verify count other than the row count), or a service that fell back
to thread workers makes the run exit 1.

Every run executes in a child process of a supervisor that waits for all
of the run's processes to end before it exits (see ``supervise``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

WORKLOADS = ("corpus", "synthetic", "service")
#: Lane processes that verify the rows of an untraced corpus or synthetic
#: run side by side: one per core of the 2-CPU machine the figures in
#: search.py and BENCHMARK.json were taken on.
LANES = 2
#: prctl(2) option that makes orphaned descendants children of this process.
PR_SET_CHILD_SUBREAPER = 36


def hash_seed(seed: int) -> str:
    return str(seed % 4294967296)


def pinned_environment(seed: int) -> dict:
    """This environment under ``PYTHONHASHSEED`` derived from *seed*, with
    temporary files (SQLite's, the worker processes') inside the checkout;
    every process of the run inherits both."""
    from common import out_path

    tmp = out_path("tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, PYTHONHASHSEED=hash_seed(seed), TMPDIR=tmp)


def _children() -> list:
    """Pids of the live processes whose parent is this one (Linux /proc)."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def reap_descendants(grace_s: float = 20.0) -> None:
    """Wait until every process this one has started, and every orphan that
    was handed to it as subreaper, has ended; after *grace_s* seconds the
    stragglers get SIGTERM, and five seconds later SIGKILL."""
    deadline = time.monotonic() + grace_s
    signals = [signal.SIGTERM, signal.SIGKILL]
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline and signals:
            sig = signals.pop(0)
            for child in _children():
                try:
                    os.kill(child, sig)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5.0
        time.sleep(0.05)


def supervise(seed: int) -> int:
    """Run this command again as a child process (``--inner``) and return
    its exit code once it and all of its descendants have ended.

    The service workload's multiprocessing helpers (the worker processes'
    resource tracker above all) can outlive the process that started them
    by a moment; this process is their subreaper, so they are handed to it
    and it waits for them, and a run leaves nothing behind on any path.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")
    command = [sys.executable, os.path.abspath(__file__)] + sys.argv[1:] + ["--inner"]
    # A SIGTERM ends the run through the clean-up below, not around it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    child = subprocess.Popen(command, env=pinned_environment(seed))
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        reap_descendants()


def benchmark_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_lane(workload: str, seed: int) -> None:
    """A lane process: build the rows in the seeded order and report the
    set-up time, then verify each row whose index arrives on standard input
    and answer with its outcome, one JSON line each; at the end of input,
    report the peak memory."""
    from dataclasses import asdict

    from common import peak_rss_mb, use_source_tree

    use_source_tree()
    import search

    rows = search.interleave(search.build(workload), seed)
    options = search.options_for(workload)
    print(json.dumps({"setup_s": time.perf_counter() - STARTED}), flush=True)
    for line in sys.stdin:
        index = int(line)
        outcome = search.verify_row(rows[index], options)
        print(json.dumps(asdict(outcome)), flush=True)
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)


def run_lanes(workload: str, seed: int, rows, passes: int):
    """Verify every row *passes* times over LANES lane processes at once,
    each lane taking the next row as soon as it is free (as ``repro batch
    --workers 2`` would).  The clock starts once every lane has built its
    rows.  Returns the outcomes, the rate (rows a lane verified over the
    time until its last row was done, summed over the lanes: the idle tail
    of the lane that finished first is left out), the lanes' set-up times
    and their largest peak memory.
    """
    import selectors

    import search

    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--lane", "--inner"]
    lanes = [subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True, bufsize=1) for _ in range(LANES)]
    try:
        setups = [json.loads(lane.stdout.readline())["setup_s"] for lane in lanes]
        pending = [index for _ in range(passes) for index in range(len(rows))]
        pending.reverse()
        outcomes = []
        assigned, done, rate = {}, {}, 0.0
        selector = selectors.DefaultSelector()

        def dispatch(lane) -> None:
            assigned[lane.pid] = pending.pop()
            lane.stdin.write(f"{assigned[lane.pid]}\n")

        started = time.perf_counter()
        for lane in lanes:
            dispatch(lane)
            selector.register(lane.stdout, selectors.EVENT_READ, lane)
        busy = len(lanes)
        while busy:
            for key, _ in selector.select():
                lane = key.data
                outcome = search.Outcome(**json.loads(lane.stdout.readline()))
                if outcome.key != rows[assigned[lane.pid]].key:
                    raise RuntimeError(f"lane verified {outcome.key}, "
                                       f"expected {rows[assigned[lane.pid]].key}")
                outcomes.append(outcome)
                done[lane.pid] = done.get(lane.pid, 0) + 1
                if pending:
                    dispatch(lane)
                else:
                    busy -= 1
                    selector.unregister(lane.stdout)
                    rate += done[lane.pid] / (time.perf_counter() - started)
        peaks = []
        for lane in lanes:
            lane.stdin.close()
            peaks.append(json.loads(lane.stdout.readline())["peak_rss_mb"])
            if lane.wait(timeout=60) != 0:
                raise RuntimeError(f"lane exited with code {lane.returncode}")
    finally:
        for lane in lanes:
            if lane.poll() is None:
                lane.kill()
                lane.wait()
    return outcomes, rate, setups, max(peaks)


def run_search(workload: str, seed: int, seconds: float, trace: bool):
    from common import References, load_json, median, out_path, use_source_tree

    use_source_tree()
    import search

    rows = search.interleave(search.build(workload), seed)
    in_process_setup_s = time.perf_counter() - STARTED
    references = References.load()
    options = search.options_for(workload)
    if not trace:
        passes = max(1, round(seconds / search.NOMINAL_PASS_S[workload]))
        outcomes, rate, setups, peak = run_lanes(workload, seed, rows, passes)
        metrics = search.end_to_end(outcomes, rate)
        # Set-up: importing and building the rows, in this process and in
        # each lane.
        metrics["setup_s"] = median([in_process_setup_s] + setups)
        metrics["peak_rss_mb"] = peak
        return outcomes, search.judge(outcomes, references), metrics, []

    import layers
    from tracer import Tracer

    problems = []
    # Transparency and overhead: one slice, untraced then traced.
    sample = rows[: max(1, len(rows) // 4)]
    started = time.perf_counter()
    plain = search.run_once(sample, options)
    untraced_s = time.perf_counter() - started
    probe = Tracer()
    layers.install(probe, layers.SEARCH_TARGETS)
    try:
        started = time.perf_counter()
        traced = search.run_once(sample, options)
        traced_s = time.perf_counter() - started
    finally:
        probe.unpatch()

    def work(outcome):
        return (outcome.key, outcome.verdict, outcome.stats.get("states_explored"),
                outcome.stats.get("transitions_computed"))

    if [work(o) for o in plain] != [work(o) for o in traced]:
        problems.append("traced and untraced runs of the same slice differ")

    tracer = Tracer()
    layers.install(tracer, layers.SEARCH_TARGETS)
    try:
        outcomes = search.run_once(rows, options)
    finally:
        tracer.unpatch()
    metrics = layers.search_metrics(tracer.summary(), outcomes)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics["trace.spans"] = len(tracer)
    tracer.write(out_path(f"{workload}-spans.bin"))

    # Self times add up to the verify time by construction (see tracer.py),
    # provided every traced span lies under a verify call and each row made
    # exactly one: a layer called outside verify would be left out.
    roots = tracer.roots()
    if roots != {"verifier.verify": len(rows)}:
        problems.append(f"traced root spans {roots}, expected one verifier.verify per row "
                        f"({len(rows)})")

    counts = layers.row_counts(tracer, outcomes)
    with open(out_path(f"{workload}-rows.json"), "w", encoding="utf-8") as handle:
        json.dump(counts, handle, indent=1, sort_keys=True)
    drifted = layers.drift(counts, load_json("work_counts.json")[workload])
    metrics["rows.count"] = len(counts)
    metrics["rows.drift"] = len(drifted)
    for message in drifted:
        print(f"drift {message}", file=sys.stderr)
    return outcomes, search.judge(outcomes, references), metrics, problems


def run_workload(args) -> int:
    spec = benchmark_spec()
    if args.workload == "service":
        import service

        attempted, judged, metrics, problems = service.run(args.seed, args.seconds, args.trace)
    else:
        outcomes, judged, metrics, problems = run_search(
            args.workload, args.seed, args.seconds, args.trace)
        attempted = len(outcomes)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # Layers a workload never calls report 0 (e.g. the store on corpus).
    reported = {
        entry["name"]: {"value": float(metrics.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in wanted
    }
    mismatches = judged["mismatches"]
    failed = len(judged["failures"])
    # Failed attempts (errors, safety timeouts) are counted; wrong verdicts
    # and broken checks make the run incorrect.
    correct = not mismatches and not problems
    # The human-readable table, including the counts that are not metrics.
    extra = {
        "verdict_mismatches": (len(mismatches), "count"),
        "failed_ratio": (failed / attempted, "share"),
    }
    if not args.trace and "unknown_ratio" in metrics:
        extra["unknown_ratio"] = (metrics["unknown_ratio"], "share")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} attempted={attempted}")
    for name, entry in reported.items():
        print(f"{name:44s} {entry['value']:14.6f} {entry['unit']}")
    for name, (value, unit) in extra.items():
        print(f"{name:44s} {value:14.6f} {unit}")
    for message in judged["failures"] + problems:
        print(f"FAIL {message}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; exit 1 if any of them fails."""
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        status |= subprocess.run(command).returncode
    return 1 if status else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="VERIFAS benchmark (see module docstring)")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--lane", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    if not args.inner:
        return supervise(args.seed)
    if args.lane:
        run_lane(args.workload, args.seed)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
