"""Core-search benchmark: state counts, successor-loop timing, and the
analysis-driven pruning speedup.

Not a pytest file (no ``test_`` prefix): run it directly to (re)generate
``BENCH_search.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_search.py

Measures, on the current machine:

* ``corpus_search``    -- per real-workflow spec: explored states, successor
  computations, and the main-search wall time with ``dataflow_pruning`` on
  vs off, with a verdict AND search-counter parity assert per property
  (the sweep fails loudly if the pass ever changes the explored space);
* ``pinned_dead_family`` -- a generated family whose global precondition
  pins ``mode="basic"`` while N services and children require
  ``mode="premium"``.  Each gate is satisfiable in isolation; only constant
  propagation proves them dead.  The sweep shows the per-state
  successor-loop cost of the dead gates -- and hence the pruning speedup --
  growing with N.  The run asserts a >= 1.1x successor-loop speedup over
  the unpruned search at the widest point.

The explored-state counts of budget-capped rows follow set iteration order,
and so the interpreter's hash seed: the script re-executes itself under
``PYTHONHASHSEED=0`` unless the variable is already set.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.benchmark.properties import LTL_TEMPLATES, generate_properties  # noqa: E402
from repro.benchmark.realworld import REAL_WORKFLOW_FACTORIES  # noqa: E402
from repro.core.options import VerifierOptions  # noqa: E402
from repro.core.verifier import Verifier  # noqa: E402
from repro.has.builder import ArtifactSystemBuilder  # noqa: E402
from repro.has.conditions import NULL, And, Const, Eq, Neq, Var  # noqa: E402
from repro.has.schema import DatabaseSchema  # noqa: E402
from repro.ltl import LTLFOProperty, parse_ltl  # noqa: E402

BUDGET = dict(max_states=800, max_repeated_states=800, timeout_seconds=20)

#: The search counters the pruning pass must leave unchanged.
PARITY_COUNTERS = (
    "states_explored",
    "states_pruned",
    "states_deactivated",
    "transitions_computed",
)


def _options(pruning: bool):
    return VerifierOptions(dataflow_pruning=pruning, **BUDGET)


def _verify(system, ltl_property, options, repeats: int = 3, warmup: bool = False):
    """(median search seconds, median total seconds, last result)."""
    if warmup:  # absorb first-run import/cache costs outside the timings
        Verifier(system, options).verify(ltl_property)
    search_s, total_s = [], []
    for _ in range(repeats):
        verifier = Verifier(system, options)
        start = time.perf_counter()
        result = verifier.verify(ltl_property)
        total_s.append(time.perf_counter() - start)
        search_s.append(result.stats.search_seconds)
    return statistics.median(search_s), statistics.median(total_s), result


# ------------------------------------------------------------------ corpora


def bench_corpus_search():
    """Pruning on vs off over the real-workflow corpus, with a verdict and
    search-counter parity assert per property."""
    per_spec = {}
    compared = 0
    for name, factory in sorted(REAL_WORKFLOW_FACTORIES.items()):
        system = factory()
        properties = list(generate_properties(system, templates=LTL_TEMPLATES))
        on_search, off_search, states, transitions = [], [], [], []
        for ltl_property in properties:
            on_s, _, on_result = _verify(system, ltl_property, _options(True), repeats=1)
            off_s, _, off_result = _verify(system, ltl_property, _options(False), repeats=1)
            assert on_result.outcome == off_result.outcome, (
                f"{name}/{ltl_property.name}:"
                f" on={on_result.outcome} off={off_result.outcome}"
            )
            for counter in PARITY_COUNTERS:
                assert getattr(on_result.stats, counter) == getattr(
                    off_result.stats, counter
                ), f"{name}/{ltl_property.name} {counter}"
            compared += 1
            on_search.append(on_s)
            off_search.append(off_s)
            states.append(on_result.stats.states_explored)
            transitions.append(on_result.stats.transitions_computed)
        per_spec[name] = {
            "properties": len(properties),
            "states_explored": states,
            "transitions_computed": transitions,
            "search_ms_on": round(sum(on_search) * 1000, 3),
            "search_ms_off": round(sum(off_search) * 1000, 3),
        }
    return {"parity_checks": compared, "per_spec": per_spec}


def _pinned_family(dead_services: int, dead_children: int, chain: int = 8):
    """A live *chain*-state loop under a precondition that pins
    ``mode="basic"``, plus premium-gated services/children that only the
    dataflow pass can prove dead (each gate is satisfiable in isolation)."""
    schema = DatabaseSchema.from_dict({"ITEMS": {"price": None}})
    builder = ArtifactSystemBuilder(
        f"pinned-s{dead_services}-c{dead_children}",
        schema,
        global_precondition=And(
            And(Eq(Var("mode"), Const("basic")), Eq(Var("status"), NULL)),
            Eq(Var("item"), NULL),
        ),
    )
    root = builder.task("Main")
    root.id_variable("item", "ITEMS")
    root.variable("status")
    root.variable("mode")
    previous = NULL
    for index in range(chain):
        root.internal_service(
            f"step{index}",
            pre=Eq(Var("status"), previous),
            post=Eq(Var("status"), Const(f"stage{index}")),
            propagated=["mode"],
        )
        previous = Const(f"stage{index}")
    for index in range(dead_services):
        root.internal_service(
            f"premium{index}",
            pre=Eq(Var("mode"), Const("premium")),
            post=Eq(Var("status"), Const(f"upgraded{index}")),
            propagated=["mode"],
        )
    for index in range(dead_children):
        child = builder.task(f"Premium{index}", parent="Main")
        child.variable("cstatus")
        child.internal_service(
            f"cgo{index}",
            pre=Eq(Var("cstatus"), NULL),
            post=Eq(Var("cstatus"), Const("x")),
        )
        child.opening(pre=Eq(Var("mode"), Const("premium")))
    return builder.build()


def bench_pinned_dead_family():
    report = {}
    widest_speedup = None
    for width in (4, 8, 16):
        system = _pinned_family(dead_services=width, dead_children=width // 2)
        # A globally-true safety property forces a full sweep of the live
        # space, so every live state pays the dead premium gates.
        ltl_property = LTLFOProperty(
            "Main",
            parse_ltl("G p"),
            {"p": Neq(Var("status"), Const("zzz"))},
            name="full-sweep",
        )
        rows = {}
        for label, pruning in (("on", True), ("off", False)):
            search_s, total_s, result = _verify(
                system, ltl_property, _options(pruning), repeats=5, warmup=True
            )
            rows[label] = {
                "search_ms": round(search_s * 1000, 3),
                "total_ms": round(total_s * 1000, 3),
                "states": result.stats.states_explored,
                "outcome": result.outcome.value,
            }
        assert rows["off"]["outcome"] == rows["on"]["outcome"]
        assert rows["off"]["states"] == rows["on"]["states"]
        on_ms = rows["on"]["search_ms"]
        report[str(width)] = {
            **rows,
            "speedup_vs_off": round(rows["off"]["search_ms"] / on_ms, 2)
            if on_ms
            else None,
        }
        widest_speedup = report[str(width)]["speedup_vs_off"]
    assert widest_speedup is not None and widest_speedup >= 1.1, (
        f"pruning successor-loop speedup regressed: {widest_speedup}x < 1.1x"
    )
    return report


def main() -> None:
    if "PYTHONHASHSEED" not in os.environ:
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    report = {
        "generated": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": sys.version.split()[0],
        "hash_seed": os.environ["PYTHONHASHSEED"],
        "corpus_search": bench_corpus_search(),
        "pinned_dead_family": bench_pinned_dead_family(),
    }
    output = REPO_ROOT / "BENCH_search.json"
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
