"""The isotype memo of the transition system is transparent.

``SymbolicTransitionSystem`` memoises ``evaluate``, ``project``, the stored
type of an insertion and the renamed stored type of a retrieval for the
length of one search.  Every call a search makes through them must return
what a computation without the memo returns -- equal canonical keys, in the
same order -- and each ``verify`` must start from empty tables.
"""

from __future__ import annotations

from typing import List

import pytest

import repro.core.verifier as verifier_module
from repro.benchmark.realworld import REAL_WORKFLOW_FACTORIES
from repro.core.expressions import ExpressionUniverse
from repro.core.options import VerifierOptions
from repro.core.transitions import SymbolicTransitionSystem
from repro.core.verifier import Verifier

from search_golden import CORPUS_BUDGET, template_rows

MEMO_TABLES = ("_evaluate_memo", "_project_memo", "_stored_memo", "_retrieved_memo")

#: Cheap corpus rows.  The first two insert into and retrieve from artifact
#: relations; the first stores and retrieves tuples of many distinct types.
ROWS = (
    "expense-reimbursement/respond-within-two",
    "support-tickets/response",
    "order-fulfillment/false",
)


@pytest.fixture
def recorded(monkeypatch) -> List[SymbolicTransitionSystem]:
    """Every transition system the verifier builds, logging each memoised call."""
    instances: List[SymbolicTransitionSystem] = []

    class Recording(SymbolicTransitionSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.sizes_at_start = {name: len(getattr(self, name)) for name in MEMO_TABLES}
            self.calls = []
            instances.append(self)

        def evaluate(self, tau, condition):
            result = super().evaluate(tau, condition)
            self.calls.append(("evaluate", (tau, condition), result))
            return result

        def project(self, tau, roots):
            result = super().project(tau, roots)
            self.calls.append(("project", (tau, roots), result))
            return result

        def _stored_type(self, pre_extended, service, update):
            result = super()._stored_type(pre_extended, service, update)
            self.calls.append(("stored", (pre_extended, service, update), result))
            return result

        def _retrieved_type(self, stored_type, service, update):
            result = super()._retrieved_type(stored_type, service, update)
            self.calls.append(("retrieved", (stored_type, service, update), result))
            return result

    monkeypatch.setattr(verifier_module, "SymbolicTransitionSystem", Recording)
    return instances


def _row(key):
    system = REAL_WORKFLOW_FACTORIES[key.split("/")[0]]()
    rows = {row[0]: row for row in template_rows([system])}
    return rows[key]


def _without_memo(system, ts, kind, args):
    """The canonical keys *kind* computes for *args* with no memo involved."""
    if kind == "evaluate":
        tau, condition = args
        keys = []
        for conjunction in ts.flatten(condition):
            extended = ts.extend(tau, conjunction)
            if extended is not None and extended.canonical_key() not in keys:
                keys.append(extended.canonical_key())
        return keys
    if kind == "project":
        tau, roots = args
        return [tau.project(roots).canonical_key()]
    relation = system.task(ts.task_name).artifact_relation(args[-1].relation)
    if kind == "stored":
        pre_extended, _service, update = args
        renaming = dict(zip(update.variables, relation.attribute_names))
        universe = ExpressionUniverse(
            system.schema, {attr.name: attr.type for attr in relation.attributes}
        )
        renamed = pre_extended.project(update.variables).rename_roots(renaming, universe)
    else:
        stored_type, _service, update = args
        renaming = dict(zip(relation.attribute_names, update.variables))
        renamed = stored_type.rename_roots(renaming, ts.universe)
    return [renamed.canonical_key()]


def _memo_keys(result):
    results = result if isinstance(result, tuple) else (result,)
    return [tau.canonical_key() for tau in results]


def test_every_memoised_call_equals_a_fresh_computation(recorded):
    kinds_seen = set()
    for key in ROWS:
        _key, system, ltl_property = _row(key)
        Verifier(system, VerifierOptions(**CORPUS_BUDGET)).verify(ltl_property)
        ts = recorded[-1]
        assert ts.calls, f"{key}: the search made no memoised call"
        for kind, args, result in ts.calls:
            kinds_seen.add(kind)
            assert _memo_keys(result) == _without_memo(system, ts, kind, args), (
                f"{key}: memoised {kind} differs from a fresh computation"
            )
    assert kinds_seen == {"evaluate", "project", "stored", "retrieved"}


def _memo_key(kind, args):
    if kind == "evaluate":
        tau, condition = args
        return tau, id(condition)
    return args[:2]


def test_memo_hits_and_table_sizes(recorded):
    """Every table is used (repeated calls hit it) and keeps one entry per
    distinct (type, argument) pair."""
    _key, system, ltl_property = _row(ROWS[0])
    Verifier(system, VerifierOptions(**CORPUS_BUDGET)).verify(ltl_property)
    ts = recorded[-1]
    for kind, table in zip(("evaluate", "project", "stored", "retrieved"), MEMO_TABLES):
        keys = [_memo_key(kind, args) for call_kind, args, _ in ts.calls if call_kind == kind]
        assert len(getattr(ts, table)) == len(set(keys)) < len(keys), kind


def test_each_verify_starts_with_empty_tables(recorded):
    _key, system, ltl_property = _row(ROWS[0])
    verifier = Verifier(system, VerifierOptions(**CORPUS_BUDGET))
    verifier.verify(ltl_property)
    verifier.verify(ltl_property)
    first, second = recorded
    assert first is not second
    for ts in (first, second):
        assert ts.sizes_at_start == dict.fromkeys(MEMO_TABLES, 0)
    assert all(getattr(first, name) for name in MEMO_TABLES)
