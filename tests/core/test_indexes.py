"""Unit and property-based tests for the Section 3.6 candidate index: the
active states bucketed by (Büchi state, child stages)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coverage import covers_preceq
from repro.core.expressions import ConstExpr, ExpressionUniverse, NavExpr
from repro.core.indexes import ActiveStateIndex
from repro.core.isotypes import EQ, empty_type
from repro.core.karp_miller import bucket_key
from repro.core.product import ProductState
from repro.core.psi import PSI
from repro.has.types import VALUE


@pytest.fixture
def universe(items_schema):
    return ExpressionUniverse(items_schema, {"x": VALUE, "y": VALUE})


def _state(universe, buchi_state=0, children=None, counters=None, *constraints):
    tau = empty_type(universe).extend(list(constraints))
    assert tau is not None
    return ProductState(PSI.make(tau, counters or {}, children or {}), buchi_state)


class TestActiveStateIndex:
    def test_candidates(self, universe):
        """States with the same key share a bucket, whatever their types."""
        index = ActiveStateIndex()
        loose = _state(universe, 0, {"Child": True})
        tight = _state(universe, 0, {"Child": True}, None, (NavExpr("x"), ConstExpr("a"), EQ))
        index.add("loose", bucket_key(loose))
        index.add("tight", bucket_key(tight))
        assert index.candidates_covering(bucket_key(tight)) == {"loose", "tight"}
        assert index.candidates_covered_by(bucket_key(loose)) == {"loose", "tight"}

    def test_different_buchi_state_is_another_bucket(self, universe):
        index = ActiveStateIndex()
        index.add("q0", bucket_key(_state(universe, 0)))
        index.add("q1", bucket_key(_state(universe, 1)))
        assert index.candidates_covering(bucket_key(_state(universe, 1))) == {"q1"}
        assert index.candidates_covered_by(bucket_key(_state(universe, 2))) == set()

    def test_different_child_stages_are_another_bucket(self, universe):
        index = ActiveStateIndex()
        index.add("open", bucket_key(_state(universe, 0, {"Child": True})))
        index.add("closed", bucket_key(_state(universe, 0, {"Child": False})))
        index.add("none", bucket_key(_state(universe, 0)))
        query = bucket_key(_state(universe, 0, {"Child": False}))
        assert index.candidates_covering(query) == {"closed"}
        assert index.candidates_covered_by(query) == {"closed"}

    def test_remove_and_contains(self, universe):
        index = ActiveStateIndex()
        key = bucket_key(_state(universe))
        index.add(1, key)
        index.add(2, key)
        assert 1 in index
        index.remove(1)
        assert 1 not in index
        assert index.candidates_covering(key) == {2}
        index.remove(2)
        assert index.candidates_covered_by(key) == set()
        index.remove(1)  # idempotent

    def test_results_are_copies(self, universe):
        """Deactivating candidates while iterating a result is safe."""
        index = ActiveStateIndex()
        key = bucket_key(_state(universe))
        index.add(1, key)
        index.add(2, key)
        for item in index.candidates_covered_by(key):
            index.remove(item)
        assert len(index) == 0

    def test_items_and_len(self):
        index = ActiveStateIndex()
        index.add("x", (0, ()))
        index.add("y", (1, ()))
        assert set(index.items()) == {"x", "y"}
        assert len(index) == 2

    def test_cover_with_more_stored_tuples_is_a_candidate(self, universe):
        """A covering state may store more tuple types than the covered one,
        so its edge set is no subset of the covered state's; the bucket
        still returns it."""
        stored = empty_type(universe).extend([(NavExpr("x"), ConstExpr("a"), EQ)])
        covered = _state(universe, 0, {"Child": True})
        covering = _state(universe, 0, {"Child": True}, {("S", stored): 1})
        assert covers_preceq(covered.psi, covering.psi)
        index = ActiveStateIndex()
        index.add("covering", bucket_key(covering))
        assert index.candidates_covering(bucket_key(covered)) == {"covering"}


@st.composite
def _collections(draw):
    keys = st.tuples(st.integers(0, 2), st.sampled_from([(), (("C", False),), (("C", True),)]))
    items = [(i, draw(keys)) for i in range(draw(st.integers(1, 12)))]
    return items, draw(keys)


class TestDifferentialAgainstBruteForce:
    @given(_collections())
    @settings(max_examples=120, deadline=None)
    def test_queries_match_brute_force(self, data):
        items, query = data
        index = ActiveStateIndex()
        for item, key in items:
            index.add(item, key)
        expected = {item for item, key in items if key == query}
        assert index.candidates_covering(query) == expected
        assert index.candidates_covered_by(query) == expected

    @given(_collections())
    @settings(max_examples=60, deadline=None)
    def test_queries_after_random_removals(self, data):
        items, query = data
        rng = random.Random(0)
        index = ActiveStateIndex()
        for item, key in items:
            index.add(item, key)
        removed = {item for item, _ in items if rng.random() < 0.5}
        for item in removed:
            index.remove(item)
        remaining = {item for item, key in items if item not in removed and key == query}
        assert index.candidates_covering(query) == remaining
        assert index.candidates_covered_by(query) == remaining
        assert len(index) == len(items) - len(removed)
