"""Which functions the traced run wraps, and the per-layer metrics derived
from their spans.

Each target is patched where its caller looks it up: module functions in
the calling module (``ltl_to_buchi`` is imported by name into
``repro.core.verifier``), methods on their class.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from tracer import Tracer


def _length(result: Any) -> float:
    return float(len(result))


def _truthy(result: Any) -> float:
    return 1.0 if result else 0.0


def _not_none(result: Any) -> float:
    return 0.0 if result is None else 1.0


#: (patch target, span name, options).  ``verifier.verify`` is the root span
#: of every verify call and starts a new call id.
SEARCH_TARGETS = (
    ("repro.core.verifier.Verifier.verify", "verifier.verify", {"new_call": True}),
    ("repro.core.verifier.ltl_to_buchi", "ltl.ltl_to_buchi", {}),
    ("repro.analysis.compute_static_facts", "analysis.compute_static_facts", {}),
    ("repro.analysis.compute_dataflow_facts", "analysis.compute_dataflow_facts", {}),
    ("repro.core.transitions.SymbolicTransitionSystem.__init__", "transitions.setup", {}),
    ("repro.core.transitions.SymbolicTransitionSystem.successors", "transitions.successors",
     {"value_of": _length}),
    ("repro.core.product.ProductSystem.successors", "product.successors", {"value_of": _length}),
    ("repro.core.karp_miller.KarpMillerSearch.run", "karp_miller.run", {}),
    ("repro.core.karp_miller.KarpMillerSearch._accelerate", "karp_miller.accelerate", {}),
    ("repro.core.karp_miller.KarpMillerSearch._state_covers", "karp_miller.state_covers",
     {"value_of": _truthy}),
    ("repro.core.karp_miller.covers_preceq", "coverage.covers_preceq", {"value_of": _truthy}),
    ("repro.core.coverage.feasible_assignment", "maxflow.feasible_assignment", {}),
    ("repro.core.indexes.ActiveStateIndex.candidates_covering", "indexes.candidates_covering",
     {"value_of": _length}),
    ("repro.core.indexes.ActiveStateIndex.candidates_covered_by",
     "indexes.candidates_covered_by", {"value_of": _length}),
    ("repro.core.indexes.ActiveStateIndex.add", "indexes.add", {}),
    ("repro.core.indexes.ActiveStateIndex.remove", "indexes.remove", {}),
    ("repro.core.isotypes.PartialIsoType.extend", "isotypes.extend", {"value_of": _not_none}),
    ("repro.core.isotypes.PartialIsoType.project", "isotypes.project", {}),
    ("repro.core.isotypes.PartialIsoType.canonical_key", "isotypes.canonical_key", {}),
    ("repro.core.isotypes.PartialIsoType.entails", "isotypes.entails", {}),
    ("repro.core.repeated.RepeatedReachabilityAnalyzer.analyse", "repeated.analyse", {}),
)

def _returned_job(args: tuple, result: Any) -> Any:
    return None if result is None else result.id


def _job_argument(args: tuple, result: Any) -> Any:
    return args[1]


#: The service's store, patched on the class the server instance uses.
#: Spans carry the job they serve (``get_result`` is keyed by fingerprint).
STORE_TARGETS = (
    ("repro.server.store.JobStore.submit", "store.submit", {"job_of": _returned_job}),
    ("repro.server.store.JobStore.claim_next", "store.claim_next", {"job_of": _returned_job}),
    ("repro.server.store.JobStore.mark_done", "store.mark_done", {"job_of": _job_argument}),
    ("repro.server.store.JobStore.get_result", "store.get_result", {}),
    ("repro.server.store.JobStore.append_event", "store.append_event",
     {"job_of": _job_argument}),
)


def install(tracer: Tracer, targets: Sequence) -> None:
    for target, name, options in targets:
        tracer.patch(target, name, **options)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def search_metrics(summary: Dict[str, Dict[str, float]], outcomes: Sequence[Any]) -> Dict[str, float]:
    """Per-layer metrics of a traced corpus or synthetic pass.

    ``.s`` is self time.  ``.repeated.*`` is the part spent under
    ``repeated.analyse``; the main-search part is the total minus it.
    """
    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0.0)

    metrics: Dict[str, float] = {}
    for layer in ("isotypes.extend", "isotypes.project", "isotypes.canonical_key",
                  "isotypes.entails", "transitions.successors", "product.successors"):
        for key in ("calls", "s"):
            metrics[f"{layer}.{key}"] = get(layer, key)
            metrics[f"{layer}.repeated.{key}"] = get(layer, f"repeated.{key}")
    metrics["isotypes.extend.consistent_ratio"] = _ratio(
        get("isotypes.extend", "value"), get("isotypes.extend", "calls"))
    for layer in ("transitions", "product"):
        metrics[f"{layer}.moves"] = get(f"{layer}.successors", "value")
        metrics[f"{layer}.moves.repeated"] = get(f"{layer}.successors", "repeated.value")
    metrics["transitions.setup.s"] = get("transitions.setup", "s")

    stats = [o.stats for o in outcomes if o.stats]
    states = sum(s["states_explored"] for s in stats)
    transitions = sum(s["transitions_computed"] for s in stats)
    metrics["karp_miller.states"] = states
    metrics["karp_miller.transitions"] = transitions
    metrics["karp_miller.prune_ratio"] = _ratio(sum(s["states_pruned"] for s in stats), transitions)
    metrics["karp_miller.deactivated"] = sum(s["states_deactivated"] for s in stats)
    metrics["karp_miller.accelerations"] = sum(s["accelerations"] for s in stats)
    metrics["karp_miller.run.s"] = get("karp_miller.run", "s")
    metrics["karp_miller.accelerate.s"] = get("karp_miller.accelerate", "s")
    metrics["karp_miller.capped"] = sum(o.capped for o in outcomes)

    returned = get("indexes.candidates_covering", "value") - get(
        "indexes.candidates_covering", "repeated.value")
    returned += get("indexes.candidates_covered_by", "value") - get(
        "indexes.candidates_covered_by", "repeated.value")
    # Precision is over the candidates the search actually tested: the
    # covering loop stops at the first candidate that covers, and the
    # covered-by loop skips the new node itself, so the rest of what the
    # index returned is never compared.  A tested candidate is a
    # ``_state_covers`` call made directly by the search loop (its calls
    # under ``_accelerate`` compare ancestors, not index candidates),
    # including those a Büchi-state mismatch rejects, outside the repeated
    # phase; an accepted one is such a call that returned true.
    tested = get("karp_miller.state_covers", "calls@karp_miller.run")
    accepted = get("karp_miller.state_covers", "value@karp_miller.run")
    for query in ("candidates_covering", "candidates_covered_by"):
        metrics[f"indexes.{query}.calls"] = get(f"indexes.{query}", "calls")
        metrics[f"indexes.{query}.s"] = get(f"indexes.{query}", "s")
    metrics["indexes.candidates_returned"] = returned
    metrics["indexes.precision"] = _ratio(accepted, tested)
    metrics["indexes.add.s"] = get("indexes.add", "s")
    metrics["indexes.remove.s"] = get("indexes.remove", "s")

    metrics["coverage.covers_preceq.calls"] = get("coverage.covers_preceq", "calls")
    metrics["coverage.covers_preceq.s"] = get("coverage.covers_preceq", "s")
    metrics["coverage.covers_preceq.true_ratio"] = _ratio(
        get("coverage.covers_preceq", "value"), get("coverage.covers_preceq", "calls"))
    metrics["maxflow.feasible_assignment.calls"] = get("maxflow.feasible_assignment", "calls")
    metrics["maxflow.feasible_assignment.s"] = get("maxflow.feasible_assignment", "s")

    verify_s = get("verifier.verify", "total_s")
    metrics["repeated.analyse.s"] = get("repeated.analyse", "s")
    metrics["repeated.states"] = sum(s["repeated_phase_states"] for s in stats)
    metrics["repeated.share"] = _ratio(get("repeated.analyse", "total_s"), verify_s)
    metrics["ltl.ltl_to_buchi.s"] = get("ltl.ltl_to_buchi", "s")
    metrics["analysis.compute_dataflow_facts.s"] = get("analysis.compute_dataflow_facts", "s")
    metrics["analysis.compute_static_facts.s"] = get("analysis.compute_static_facts", "s")

    # The self times of every traced layer plus the remainder (the verify
    # span's own self time) add up to the traced verify time.
    layers_self = sum(entry.get("s", 0.0) for name, entry in summary.items()
                      if name != "verifier.verify")
    metrics["trace.verify.s"] = verify_s
    metrics["trace.layers.s"] = layers_self
    metrics["trace.remainder.s"] = get("verifier.verify", "s")
    return metrics


def row_counts(tracer: Tracer, outcomes: Sequence[Any]) -> Dict[str, Dict[str, Any]]:
    """Per-row work counts of a traced pass (call ids follow the row order).

    Candidates are those the index returned to the main search, those the
    search then tested (it stops at the first covering candidate, and skips
    the new node itself) and those the test accepted; see
    :func:`search_metrics`.
    """
    repeated = tracer.in_repeated()
    returned = tracer.per_call("indexes.candidates_covering", "karp_miller.run", repeated)
    covered_by = tracer.per_call("indexes.candidates_covered_by", "karp_miller.run", repeated)
    for call, value in covered_by.items():
        returned[call] += value
    tested = tracer.per_call("karp_miller.state_covers", "karp_miller.run", repeated,
                             count=True)
    accepted = tracer.per_call("karp_miller.state_covers", "karp_miller.run", repeated)
    rows = {}
    for call, outcome in enumerate(outcomes, start=1):
        stats = outcome.stats
        rows[outcome.key] = {
            "verdict": outcome.verdict,
            "states": stats.get("states_explored", 0),
            "transitions": stats.get("transitions_computed", 0),
            "pruned": stats.get("states_pruned", 0),
            "candidates_returned": int(returned.get(call, 0)),
            "candidates_tested": int(tested.get(call, 0)),
            "candidates_accepted": int(accepted.get(call, 0)),
            "repeated_states": stats.get("repeated_phase_states", 0),
            "capped": outcome.capped,
        }
    return rows


def drift(counts: Dict[str, Dict[str, Any]], committed: Dict[str, Dict[str, Any]]) -> List[str]:
    """Rows whose work counts differ from the committed ones.

    ``work_counts.json`` holds ``{"corpus": ..., "synthetic": ...}``, each
    the ``.perfbench_out/<workload>-rows.json`` of a traced run with seed 1.

    Capped searches explore in an order that varies from run to run, even
    under one hash seed, and so do the index candidate counts; only rows
    uncapped in both records are compared, without candidate counts.  Even
    these can differ by a pruned state now and then.
    """
    def compared(row: Dict[str, Any]) -> Dict[str, Any]:
        return {k: v for k, v in row.items() if not k.startswith("candidates_")}

    return [
        f"{key}: committed {committed[key]} now {row}"
        for key, row in sorted(counts.items())
        if key in committed and not (row["capped"] or committed[key]["capped"])
        and compared(committed[key]) != compared(row)
    ]
