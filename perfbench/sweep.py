"""Regenerate ``perfbench/budget_sweep.json``: one pass of the ``corpus`` and
``synthetic`` rows at several state budgets, with pass time, capped runs
(and the time they take), UNKNOWN verdicts and safety-timeout hits.

The benchmark's budgets (search.CORPUS_BUDGET, search.SYNTHETIC_BUDGET)
are chosen from this sweep: a whole pass must fit in one run, and the
budget, not the timeout, must end every capped run.  Run from the
repository root (takes a few minutes)::

    python3 perfbench/sweep.py
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import HERE, use_source_tree  # noqa: E402

use_source_tree()

import search  # noqa: E402

BUDGETS = {"corpus": (100, 200, 300, 800), "synthetic": (30, 50, 80)}


def sweep_point(rows, budget: int, timeout: float):
    from repro.core.options import VerifierOptions

    options = VerifierOptions(
        max_states=budget, max_repeated_states=budget, timeout_seconds=timeout
    )
    started = time.perf_counter()
    outcomes = search.run_once(rows, options)
    capped = [o for o in outcomes if o.capped]
    return {
        "budget": budget,
        "rows": len(outcomes),
        "pass_s": round(time.perf_counter() - started, 2),
        "capped": len(capped),
        "capped_s": round(sum(o.seconds for o in capped), 2),
        "unknown": sum(o.verdict == "unknown" for o in outcomes),
        "timed_out": sum(o.timed_out for o in outcomes),
        "slowest_s": round(max(o.seconds for o in outcomes), 2),
    }


def main() -> int:
    document = {"machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
                           f"{platform.python_version()}",
                "chosen": {"corpus": search.CORPUS_BUDGET, "synthetic": search.SYNTHETIC_BUDGET}}
    for workload, budgets in BUDGETS.items():
        rows = search.build(workload)
        timeout = search.options_for(workload).timeout_seconds
        document[workload] = []
        for budget in budgets:
            point = sweep_point(rows, budget, timeout)
            print(workload, point, flush=True)
            document[workload].append(point)
    with open(os.path.join(HERE, "budget_sweep.json"), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
