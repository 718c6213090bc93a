"""The ``corpus`` and ``synthetic`` workloads: one ``Verifier.verify`` call
per (workflow, property) row, timed one at a time in this process."""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from common import References, peak_rss_mb, quantile

#: Property instantiation of the Table-4 templates.  Fixed, so that every
#: row has a pinned reference verdict; the workload seed varies the order
#: in which rows are visited and the interpreter hash seed.
PROPERTY_SEED = 0

#: State budgets (``max_states`` = ``max_repeated_states``).  The budget
#: ends a capped run; ``timeout_seconds`` is only a safety net, far above
#: the slowest row.  See budget_sweep.json for the measurements behind them.
CORPUS_BUDGET = 200
CORPUS_TIMEOUT_S = 20.0
SYNTHETIC_BUDGET = 50
SYNTHETIC_TIMEOUT_S = 30.0
#: Seconds one pass takes at these budgets on two lanes (2-CPU x86-64 VM,
#: Python 3.11).  A run makes as many whole passes as fill ``--seconds`` at
#: this pace, and at least one: the work of a run depends on ``--seconds``
#: only, never on how fast the run happens to go, so seeds differ only in
#: visiting order.
NOMINAL_PASS_S = {"corpus": 15.5, "synthetic": 17.0}

#: The Appendix-D family of benchmarks/conftest.py, generated over its
#: scale range; the benchmark verifies the specs up to scale 0.8.
SYNTHETIC_FAMILY = dict(
    relations=3, tasks=3, variables_per_task=9, services_per_task=8
)
SYNTHETIC_FAMILY_SEED = 100
SYNTHETIC_FAMILY_COUNT = 7
SYNTHETIC_SPECS = 5


@dataclass
class Row:
    key: str
    group: str
    system: Any
    property: Any


def _bug_rows() -> List[Row]:
    """The Section 2.1 guard property on both order-fulfillment variants."""
    from repro.benchmark.realworld import order_fulfillment, order_fulfillment_buggy
    from repro.has.conditions import Const, Eq, Var
    from repro.ltl import LTLFOProperty, parse_ltl

    rows = []
    for system in (order_fulfillment(), order_fulfillment_buggy()):
        ltl_property = LTLFOProperty(
            "ProcessOrders",
            parse_ltl("G (open_ShipItem -> in_stock)"),
            conditions={"in_stock": Eq(Var("instock"), Const("Yes"))},
            name="ship-only-in-stock",
        )
        rows.append(Row(f"{system.name}/ship-only-in-stock", system.name, system, ltl_property))
    return rows


def _template_rows(systems: Sequence[Any]) -> List[Row]:
    from repro.benchmark.properties import LTL_TEMPLATES, generate_properties

    rows = []
    for system in systems:
        properties = generate_properties(system, seed=PROPERTY_SEED)
        for template, ltl_property in zip(LTL_TEMPLATES, properties):
            rows.append(Row(f"{system.name}/{template.name}", system.name, system, ltl_property))
    return rows


def corpus_rows() -> List[Row]:
    """The 13 real workflows x the 12 Table-4 templates, plus the bug rows."""
    from repro.benchmark.realworld import REAL_WORKFLOW_FACTORIES

    systems = [factory() for _, factory in sorted(REAL_WORKFLOW_FACTORIES.items())]
    return _template_rows(systems) + _bug_rows()


def synthetic_rows() -> List[Row]:
    from repro.benchmark.synthetic import SyntheticConfig, synthetic_workflows

    systems = synthetic_workflows(
        count=SYNTHETIC_FAMILY_COUNT,
        base_config=SyntheticConfig(**SYNTHETIC_FAMILY),
        seed=SYNTHETIC_FAMILY_SEED,
        scale_range=(0.4, 1.0),
    )[:SYNTHETIC_SPECS]
    return _template_rows(systems)


def options_for(workload: str):
    from repro.core.options import VerifierOptions

    budget, timeout = (
        (CORPUS_BUDGET, CORPUS_TIMEOUT_S)
        if workload == "corpus"
        else (SYNTHETIC_BUDGET, SYNTHETIC_TIMEOUT_S)
    )
    return VerifierOptions(
        max_states=budget, max_repeated_states=budget, timeout_seconds=timeout
    )


def build(workload: str) -> List[Row]:
    return corpus_rows() if workload == "corpus" else synthetic_rows()


def interleave(rows: Sequence[Row], seed: int) -> List[Row]:
    """A seeded visiting order in which every prefix is balanced by group:
    groups and the rows inside each group are shuffled, then visited round
    robin, one row of every group per round."""
    rng = random.Random(seed)
    groups: Dict[str, List[Row]] = {}
    for row in rows:
        groups.setdefault(row.group, []).append(row)
    names = sorted(groups)
    rng.shuffle(names)
    for name in names:
        rng.shuffle(groups[name])
    ordered = []
    for round_index in range(max(len(g) for g in groups.values())):
        for name in names:
            if round_index < len(groups[name]):
                ordered.append(groups[name][round_index])
    return ordered


@dataclass
class Outcome:
    key: str
    verdict: str
    seconds: float
    capped: bool
    timed_out: bool
    error: Optional[str]
    stats: Dict[str, Any]


def verify_row(row: Row, options) -> Outcome:
    from repro.core.verifier import Verifier

    # Collect the cyclic garbage the previous row left, so that no row pays
    # for another's and a row's time does not depend on what ran before it.
    gc.collect()
    started = time.perf_counter()
    try:
        result = Verifier(row.system, options).verify(row.property)
    except Exception as error:  # a crash is a failed attempt, not a stop
        return Outcome(row.key, "error", time.perf_counter() - started, False, False,
                       f"{type(error).__name__}: {error}", {})
    elapsed = time.perf_counter() - started
    stats = result.stats
    return Outcome(row.key, result.outcome.value, elapsed, stats.state_limit_reached,
                   stats.timed_out, None, stats.as_dict())


def run_once(rows: Sequence[Row], options) -> List[Outcome]:
    return [verify_row(row, options) for row in rows]


def judge(outcomes: Sequence[Outcome], references: References) -> Dict[str, Any]:
    """Failures and verdict mismatches of a list of outcomes."""
    mismatches, failures = [], []
    for outcome in outcomes:
        if outcome.error is not None:
            failures.append(f"{outcome.key}: {outcome.error}")
            continue
        if outcome.timed_out:
            failures.append(f"{outcome.key}: hit the {outcome.seconds:.1f}s safety timeout")
        message = references.check(outcome.key, outcome.verdict)
        if message is not None:
            mismatches.append(message)
    return {"mismatches": mismatches, "failures": failures + mismatches}


def end_to_end(outcomes: Sequence[Outcome], rate: float) -> Dict[str, float]:
    """End-to-end metrics of *outcomes*, verified at *rate* rows per second."""
    times = [o.seconds for o in outcomes]
    p50, p90 = quantile(times, 0.5), quantile(times, 0.9)
    return {
        "verify_s.p50": p50,
        "verify_s.p90": p90,
        "properties_per_s": rate,
        "capped_ratio": sum(o.capped for o in outcomes) / len(outcomes),
        "unknown_ratio": sum(o.verdict == "unknown" for o in outcomes) / len(outcomes),
        "peak_rss_mb": peak_rss_mb(),
        # In process, a job is one verify call.
        "job_latency_s.p50": p50,
        "job_latency_s.p90": p90,
        "jobs_per_s": rate,
    }
