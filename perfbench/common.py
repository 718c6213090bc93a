"""Helpers shared by the workloads: import path, quantiles, memory, verdicts."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from typing import Dict, Iterable, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Spans, per-row counts and the service's job store go here (git-ignored).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src`` directory."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def quantile(values: Sequence[float], q: float) -> float:
    """The *q*-quantile (0 < q < 1) with linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_json(name: str) -> Dict:
    with open(os.path.join(HERE, name), encoding="utf-8") as handle:
        return json.load(handle)


class References:
    """Reference verdicts keyed ``<workflow>/<property>``.

    Each entry has a ``verdict`` and a ``kind``: ``independent`` entries
    follow from the property itself (``False`` is violated by every
    workflow that has a run; the seeded order-fulfillment bug must be
    found), ``pinned`` entries were recorded from an uncapped search at a
    large budget and guard against regressions.
    """

    def __init__(self, entries: Dict[str, Dict[str, str]]):
        self.entries = entries

    @classmethod
    def load(cls) -> "References":
        return cls(load_json("reference.json")["entries"])

    def check(self, key: str, verdict: str) -> Optional[str]:
        """An error message when a decided *verdict* contradicts the entry."""
        entry = self.entries.get(key)
        if entry is None or verdict == "unknown" or verdict == entry["verdict"]:
            return None
        return f"{key}: {verdict}, reference ({entry['kind']}) says {entry['verdict']}"


def out_path(name: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, name)
