"""Search-count golden gate: verdicts and search counters equal to the
recorded ones (see ``search_golden.py`` for how the file was made).

Speed-ups of the search core must not change what it explores.  The fast
test checks a few rows, among them two capped rows whose counts move when
PSI counters are ordered by their printed canonical key (which follows how
the type was built) instead of :meth:`PartialIsoType.sort_key`; the slow
test checks all 218 rows.
Both run the rows in a subprocess under the recorded hash seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import search_golden

SCRIPT = Path(search_golden.__file__)

FAST_ROWS = (
    "support-tickets/response",
    "order-fulfillment/ship-only-in-stock",
    "hiring-pipeline/stability",
    "support-tickets/stability",
    "synthetic-100/response",
    "synthetic-103/respond-within-two",
)


def _golden():
    return json.loads(search_golden.GOLDEN_PATH.read_text())


def _run(*keys: str):
    env = dict(os.environ, PYTHONHASHSEED=search_golden.HASH_SEED)
    completed = subprocess.run(
        [sys.executable, str(SCRIPT), *keys],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(completed.stdout)


def _assert_matches(rows, golden_rows):
    differing = {
        key: {"golden": golden_rows[key], "now": rows[key]}
        for key in rows
        if rows[key] != golden_rows[key]
    }
    assert not differing, json.dumps(differing, indent=1)


def test_golden_file_covers_every_row():
    golden = _golden()
    assert golden["hash_seed"] == int(search_golden.HASH_SEED)
    assert golden["budgets"] == {
        "corpus": search_golden.CORPUS_BUDGET["max_states"],
        "synthetic": search_golden.SYNTHETIC_BUDGET["max_states"],
    }
    corpus = [key for key, _system, _property in search_golden.corpus_rows()]
    synthetic = [key for key, _system, _property in search_golden.synthetic_rows()]
    assert (len(corpus), len(synthetic)) == (158, 60)
    assert list(golden["rows"]) == corpus + synthetic
    for row in golden["rows"].values():
        assert not row["stats"]["timed_out"], "a timed-out row has wall-clock-dependent counts"


def test_fast_rows_match_the_golden_counts():
    rows = _run(*FAST_ROWS)
    assert list(rows) == [key for key in _golden()["rows"] if key in FAST_ROWS]
    _assert_matches(rows, _golden()["rows"])


@pytest.mark.slow
def test_every_row_matches_the_golden_counts():
    rows = _run()
    golden_rows = _golden()["rows"]
    assert list(rows) == list(golden_rows)
    _assert_matches(rows, golden_rows)
