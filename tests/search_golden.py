"""The benchmark rows and their search-count golden file.

Every corpus row (the 13 real workflows x the 12 Table-4 templates, plus the
Section 2.1 bug property on both order-fulfillment variants) and every
synthetic row (the Appendix-D family at scale 0.4-0.8) is verified at a
fixed state budget.  ``tests/data/search_golden.json`` holds, per row, the
verdict and ``stats.as_dict()`` without its wall-clock (``*_seconds``)
fields.  A change that only makes the search faster must reproduce it
exactly.

The counts of a capped search depend on the order in which sets of strings
iterate, and so on the interpreter's hash seed: the script always runs
under ``PYTHONHASHSEED=0`` (it re-executes itself when the seed differs).

    python tests/search_golden.py --write      # regenerate the golden file
    python tests/search_golden.py KEY [KEY ...] # print those rows as JSON
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

_SRC = str(Path(__file__).resolve().parents[1] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "search_golden.json"
HASH_SEED = "0"

CORPUS_BUDGET = dict(max_states=200, max_repeated_states=200, timeout_seconds=20)
SYNTHETIC_BUDGET = dict(max_states=50, max_repeated_states=50, timeout_seconds=30)

Row = Tuple[str, object, object]


def template_rows(systems: Iterable[object]) -> Iterator[Row]:
    from repro.benchmark.properties import LTL_TEMPLATES, generate_properties

    for system in systems:
        properties = generate_properties(system, seed=0)
        for template, ltl_property in zip(LTL_TEMPLATES, properties):
            yield f"{system.name}/{template.name}", system, ltl_property


def corpus_rows() -> Iterator[Row]:
    """The real workflows x the Table-4 templates, plus the Section 2.1 bug
    property on both order-fulfillment variants."""
    from repro.benchmark.realworld import REAL_WORKFLOW_FACTORIES
    from repro.has.conditions import Const, Eq, Var
    from repro.ltl import LTLFOProperty, parse_ltl

    systems = [factory() for _, factory in sorted(REAL_WORKFLOW_FACTORIES.items())]
    yield from template_rows(systems)
    for name in ("order-fulfillment", "order-fulfillment-buggy"):
        system = REAL_WORKFLOW_FACTORIES[name]()
        yield f"{name}/ship-only-in-stock", system, LTLFOProperty(
            "ProcessOrders",
            parse_ltl("G (open_ShipItem -> in_stock)"),
            conditions={"in_stock": Eq(Var("instock"), Const("Yes"))},
            name="ship-only-in-stock",
        )


def synthetic_rows() -> Iterator[Row]:
    """The Appendix-D family at scale 0.4-0.8 (5 of 7 generated specs)."""
    from repro.benchmark.synthetic import SyntheticConfig, synthetic_workflows

    systems = synthetic_workflows(
        count=7,
        base_config=SyntheticConfig(
            relations=3, tasks=3, variables_per_task=9, services_per_task=8
        ),
        seed=100,
        scale_range=(0.4, 1.0),
    )[:5]
    yield from template_rows(systems)


def search_counts(system, ltl_property, budget) -> Dict[str, object]:
    """The verdict and the wall-clock-free search counters of one row."""
    from repro.core.options import VerifierOptions
    from repro.core.verifier import Verifier

    result = Verifier(system, VerifierOptions(**budget)).verify(ltl_property)
    stats = {
        name: value
        for name, value in result.stats.as_dict().items()
        if not name.endswith("_seconds")
    }
    return {"outcome": result.outcome.value, "stats": stats}


def run_rows(keys: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, object]]:
    """Search counts of the rows named by *keys* (every row when ``None``),
    in row order."""
    wanted = None if keys is None else set(keys)
    results: Dict[str, Dict[str, object]] = {}
    workloads = ((corpus_rows, CORPUS_BUDGET), (synthetic_rows, SYNTHETIC_BUDGET))
    for rows, budget in workloads:
        if wanted is not None and not wanted - set(results):
            break
        for key, system, ltl_property in rows():
            if wanted is None or key in wanted:
                results[key] = search_counts(system, ltl_property, budget)
    if wanted is not None and wanted - set(results):
        raise SystemExit(f"unknown rows: {sorted(wanted - set(results))}")
    return results


def main() -> None:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the golden file")
    parser.add_argument("keys", nargs="*", help="rows to print (default: every row)")
    args = parser.parse_args()
    rows = run_rows(args.keys or None)
    if args.write:
        golden = {
            "hash_seed": int(HASH_SEED),
            "budgets": {
                "corpus": CORPUS_BUDGET["max_states"],
                "synthetic": SYNTHETIC_BUDGET["max_states"],
            },
            "rows": rows,
        }
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
        print(f"wrote {len(rows)} rows to {GOLDEN_PATH}")
    else:
        json.dump(rows, sys.stdout)


if __name__ == "__main__":
    main()
