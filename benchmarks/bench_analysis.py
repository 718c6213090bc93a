"""Static-analysis benchmark: analyzer latency, pruning speedup, submit cost.

Not a pytest file (no ``test_`` prefix): run it directly to (re)generate
``BENCH_analysis.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_analysis.py

Measures, on the current machine:

* ``analyzer_latency`` -- full ``analyze(system, properties)`` wall time
  over the real-workflow benchmark corpus (p50/p95 per spec) and over
  synthetic systems of growing size: the cost a ``lint`` run or a submit
  pays per spec;
* ``pruning_speedup``  -- verification wall time with the analysis-driven
  pruning pass (``dataflow_pruning``) on vs off, on a system carrying
  statically-dead subtrees, and the trivial-property short-circuit vs the
  full search it replaces;
* ``submit_overhead``  -- p50/p95 ``POST /v1/jobs`` latency against a live
  in-process server (the analysis gate is on that path) next to the
  analysis-only time for the same payload: how much of a submit the
  analyzer accounts for.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import analyze  # noqa: E402
from repro.benchmark.properties import LTL_TEMPLATES, generate_properties  # noqa: E402
from repro.benchmark.realworld import REAL_WORKFLOW_FACTORIES  # noqa: E402
from repro.benchmark.synthetic import SyntheticConfig, generate_synthetic_workflow  # noqa: E402
from repro.client import VerifasClient  # noqa: E402
from repro.core.options import VerifierOptions  # noqa: E402
from repro.core.verifier import Verifier  # noqa: E402
from repro.has.builder import ArtifactSystemBuilder  # noqa: E402
from repro.has.conditions import NULL, And, Const, Eq, Neq, Var  # noqa: E402
from repro.has.schema import DatabaseSchema  # noqa: E402
from repro.ltl import LTLFOProperty, parse_ltl  # noqa: E402
from repro.server import VerificationServer  # noqa: E402
from repro.spec import dump_property, dump_system  # noqa: E402


def _percentiles(samples_ms):
    ordered = sorted(samples_ms)
    return {
        "p50_ms": round(statistics.median(ordered), 4),
        "p95_ms": round(ordered[int(len(ordered) * 0.95) - 1], 4),
    }


# ------------------------------------------------------------------ corpora


def _corpus():
    for name, factory in sorted(REAL_WORKFLOW_FACTORIES.items()):
        system = factory()
        properties = list(generate_properties(system, templates=LTL_TEMPLATES))
        yield name, system, properties


def _system_with_dead_children(children: int, chain: int = 2):
    """A *chain*-state live root loop plus *children* statically-dead
    subtrees.  Every live state pays one symbolic opening attempt per dead
    child when the pruning pass is off."""
    schema = DatabaseSchema.from_dict({"ITEMS": {"price": None}})
    builder = ArtifactSystemBuilder(f"dead{children}", schema)
    root = builder.task("Main")
    root.id_variable("item", "ITEMS")
    root.variable("status")
    previous = NULL
    for index in range(chain):
        root.internal_service(
            f"step{index}",
            pre=Eq(Var("status"), previous),
            post=Eq(Var("status"), Const(f"stage{index}")),
        )
        previous = Const(f"stage{index}")
    for index in range(children):
        child = builder.task(f"Dead{index}", parent="Main")
        child.variable("cstatus")
        child.internal_service(
            f"cgo{index}",
            pre=Eq(Var("cstatus"), NULL),
            post=Eq(Var("cstatus"), Const("x")),
        )
        child.opening(
            pre=And(Eq(Var("status"), Const("a")), Eq(Var("status"), Const("b")))
        )
    return builder.build()


# ---------------------------------------------------------------- sections


def bench_analyzer_latency():
    corpus_ms = []
    per_spec = {}
    for name, system, properties in _corpus():
        samples = []
        for _ in range(20):
            start = time.perf_counter()
            analyze(system, properties)
            samples.append((time.perf_counter() - start) * 1000)
        per_spec[name] = _percentiles(samples)
        corpus_ms.extend(samples)

    synthetic = {}
    for label, tasks, services in (("small", 2, 3), ("medium", 4, 6), ("large", 8, 10)):
        config = SyntheticConfig(
            relations=3, tasks=tasks, variables_per_task=6,
            services_per_task=services, seed=7,
        )
        system = generate_synthetic_workflow(config)
        properties = list(generate_properties(system, seed=7))
        samples = []
        for _ in range(20):
            start = time.perf_counter()
            analyze(system, properties)
            samples.append((time.perf_counter() - start) * 1000)
        synthetic[label] = {
            "tasks": len(system.task_names),
            "properties": len(properties),
            **_percentiles(samples),
        }
    return {
        "corpus_specs": len(per_spec),
        "corpus": _percentiles(corpus_ms),
        "per_spec_p50_ms": {k: v["p50_ms"] for k, v in sorted(per_spec.items())},
        "synthetic": synthetic,
    }


def bench_pruning_speedup():
    def _verify_seconds(system, ltl_property, pruning: bool, repeats: int = 5):
        samples = []
        for _ in range(repeats):
            verifier = Verifier(system, VerifierOptions(dataflow_pruning=pruning))
            start = time.perf_counter()
            result = verifier.verify(ltl_property)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples), result

    # A statically-dead child contributes no *states* either way (its
    # opening guard can never fire); what pruning removes is the per-state
    # symbolic opening attempt against that guard.  The sweep shows that
    # cost -- and hence the speedup -- growing with the dead width.
    report = {"dead_subtrees": {}}
    for children in (2, 6, 12):
        system = _system_with_dead_children(children, chain=8)
        # A globally-true safety property forces a full sweep of the live
        # space, so every live state pays the dead-opening attempts.
        ltl_property = LTLFOProperty(
            "Main",
            parse_ltl("G p"),
            {"p": Neq(Var("status"), Const("zzz"))},
            name="full-sweep",
        )
        on_s, on_result = _verify_seconds(system, ltl_property, True)
        off_s, off_result = _verify_seconds(system, ltl_property, False)
        assert on_result.outcome == off_result.outcome
        assert on_result.stats.states_explored == off_result.stats.states_explored
        report["dead_subtrees"][str(children)] = {
            "outcome": on_result.outcome.value,
            "states": on_result.stats.states_explored,
            "pruned_ms": round(on_s * 1000, 3),
            "unpruned_ms": round(off_s * 1000, 3),
            "speedup": round(off_s / on_s, 2) if on_s else None,
        }

    system = _system_with_dead_children(6)
    trivial = LTLFOProperty("Main", parse_ltl("true"), {}, name="trivial")
    on_s, on_result = _verify_seconds(system, trivial, True)
    off_s, off_result = _verify_seconds(system, trivial, False)
    report["trivial_short_circuit"] = {
        "short_circuit_ms": round(on_s * 1000, 3),
        "full_pipeline_ms": round(off_s * 1000, 3),
        "note": "both explore 0 states; the saving is the automaton/search setup",
    }
    return report


def bench_submit_overhead(requests: int = 150):
    factory = REAL_WORKFLOW_FACTORIES[sorted(REAL_WORKFLOW_FACTORIES)[0]]
    system = factory()
    properties = list(generate_properties(system, templates=LTL_TEMPLATES))[:3]
    system_dict = dump_system(system)
    property_dicts = [dump_property(p) for p in properties]

    analysis_ms = []
    for _ in range(requests):
        start = time.perf_counter()
        analyze(system, properties)
        analysis_ms.append((time.perf_counter() - start) * 1000)

    with tempfile.TemporaryDirectory() as tmp:
        server = VerificationServer(
            store_path=Path(tmp) / "jobs.db", port=0, workers=0
        )
        server.start()
        try:
            client = VerifasClient(server.url)
            submit_ms = []
            for _ in range(requests):
                start = time.perf_counter()
                client.submit(system_dict, property_dicts)
                submit_ms.append((time.perf_counter() - start) * 1000)
        finally:
            server.stop()
    return {
        "requests": requests,
        "properties_per_submit": len(property_dicts),
        "submit": _percentiles(submit_ms),
        "analysis_only": _percentiles(analysis_ms),
    }


def main() -> None:
    report = {
        "generated": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": sys.version.split()[0],
        "analyzer_latency": bench_analyzer_latency(),
        "pruning_speedup": bench_pruning_speedup(),
        "submit_overhead": bench_submit_overhead(),
    }
    output = REPO_ROOT / "BENCH_analysis.json"
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
