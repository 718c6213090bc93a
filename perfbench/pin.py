"""Regenerate ``perfbench/reference.json``: the reference verdict of every
benchmark row, with its provenance.

* ``independent`` entries follow from the property, not from a search:
  ``False`` is violated on every workflow (every workflow has a run), and
  the guard property of the buggy order-fulfillment variant (Section 2.1)
  is violated.
* ``pinned`` entries come from an uncapped search at a large state budget.
  They pin today's verdicts against regressions; they are not ground truth
  until violations come with independently checked witnesses.

Rows that stay capped at the large budget get no pinned entry.  Run from
the repository root (takes minutes)::

    python3 perfbench/pin.py [--corpus-budget 3000] [--synthetic-budget 300]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import HERE, use_source_tree  # noqa: E402

use_source_tree()

import search  # noqa: E402

INDEPENDENT = {"order-fulfillment-buggy/ship-only-in-stock": "violated"}


def independent_verdict(key: str):
    if key.endswith("/false"):
        return "violated"
    return INDEPENDENT.get(key)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--corpus-budget", type=int, default=3000)
    parser.add_argument("--synthetic-budget", type=int, default=300)
    parser.add_argument("--timeout", type=float, default=60.0)
    args = parser.parse_args()

    from repro.core.options import VerifierOptions

    entries, conflicts = {}, []
    for workload, budget in (("corpus", args.corpus_budget), ("synthetic", args.synthetic_budget)):
        options = VerifierOptions(
            max_states=budget, max_repeated_states=budget, timeout_seconds=args.timeout
        )
        for row in search.build(workload):
            started = time.perf_counter()
            outcome = search.verify_row(row, options)
            independent = independent_verdict(row.key)
            decided = not outcome.capped and not outcome.timed_out and outcome.verdict in (
                "satisfied", "violated")
            print(f"{row.key:55s} {outcome.verdict:9s} capped={outcome.capped!s:5s}"
                  f" {time.perf_counter() - started:6.2f}s", flush=True)
            if independent is not None:
                entries[row.key] = {"verdict": independent, "kind": "independent"}
                if outcome.verdict not in ("unknown", independent):
                    conflicts.append(f"{row.key}: search says {outcome.verdict}")
            elif decided:
                entries[row.key] = {"verdict": outcome.verdict, "kind": "pinned"}
    document = {
        "budgets": {"corpus": args.corpus_budget, "synthetic": args.synthetic_budget},
        "timeout_seconds": args.timeout,
        "property_seed": search.PROPERTY_SEED,
        "entries": dict(sorted(entries.items())),
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    for conflict in conflicts:
        print("CONFLICT", conflict, file=sys.stderr)
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main())
