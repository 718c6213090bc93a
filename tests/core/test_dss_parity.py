"""Differential gate for ``data_structure_support`` (DSS, Section 3.6).

The candidate index may only make the search faster: with it on (bucket
look-up) and off (scan of every active state) the verdict and every search
count must be identical.  The fast tests check a few cheap corpus rows and
one row that lost covers run into the state budget; the slow sweep checks
every corpus row (budget 200) and every synthetic row (budget 50).
"""

from __future__ import annotations

import pytest

from repro.benchmark.realworld import REAL_WORKFLOW_FACTORIES
from repro.core.options import VerifierOptions
from repro.core.verifier import Verifier

from search_golden import (
    CORPUS_BUDGET,
    SYNTHETIC_BUDGET,
    corpus_rows,
    synthetic_rows,
    template_rows,
)

#: The search counts that must not depend on DSS.
COUNTS = ("states_explored", "states_pruned", "states_deactivated", "transitions_computed")


def _assert_dss_parity(key: str, system, ltl_property, budget) -> None:
    on, off = (
        Verifier(system, VerifierOptions(data_structure_support=dss, **budget)).verify(
            ltl_property
        )
        for dss in (True, False)
    )
    for result in (on, off):
        # A timed-out run stops at a wall-clock-dependent count.
        assert not result.stats.timed_out, f"{key}: hit the safety timeout"
    assert on.outcome == off.outcome, f"{key}: {on.outcome} (DSS on) != {off.outcome} (off)"
    for count in COUNTS:
        assert getattr(on.stats, count) == getattr(off.stats, count), (
            f"{key}: {count} {getattr(on.stats, count)} (DSS on)"
            f" != {getattr(off.stats, count)} (off)"
        )


@pytest.mark.parametrize(
    "key",
    [
        "support-tickets/eventually",
        "support-tickets/response",
        "insurance-claim/false",
        "insurance-claim/response",
    ],
)
def test_dss_parity_on_cheap_corpus_rows(key):
    system = REAL_WORKFLOW_FACTORIES[key.split("/")[0]]()
    rows = {row[0]: row for row in template_rows([system])}
    _assert_dss_parity(*rows[key], CORPUS_BUDGET)


def test_lost_covers_no_longer_run_order_fulfillment_into_the_budget():
    """A candidate filter that drops true covers runs this search into the
    800-state budget (UNKNOWN); with every cover found it ends VIOLATED."""
    system = REAL_WORKFLOW_FACTORIES["order-fulfillment-buggy"]()
    rows = {row[0]: row for row in template_rows([system])}
    _key, _system, ltl_property = rows["order-fulfillment-buggy/fair-response"]
    result = Verifier(
        system, VerifierOptions(max_states=800, max_repeated_states=800, timeout_seconds=20)
    ).verify(ltl_property)
    assert result.violated
    assert not result.stats.state_limit_reached


@pytest.mark.slow
def test_dss_differential_over_corpus_and_synthetic_rows():
    """DSS on vs off on every corpus row (budget 200) and every synthetic
    row (budget 50): identical verdicts and search counts."""
    compared = 0
    for key, system, ltl_property in corpus_rows():
        _assert_dss_parity(key, system, ltl_property, CORPUS_BUDGET)
        compared += 1
    assert compared == 158, "corpus changed size -- update the row count"
    for key, system, ltl_property in synthetic_rows():
        _assert_dss_parity(key, system, ltl_property, SYNTHETIC_BUDGET)
        compared += 1
    assert compared == 158 + 60, "synthetic family changed size -- update the row count"
