"""The Karp–Miller search over product states (Sections 3.3–3.6).

The search materialises the reachable product state space lazily, pruning
states covered by already-visited ones and accelerating counters to ω when a
strictly dominated ancestor is found.  Three variants are supported, matching
the paper's configurations:

* classic Karp–Miller (Algorithm 1): duplicate-only pruning over the whole
  tree; only practical on tiny inputs, kept for differential testing;
* monotone pruning (Section 3.4, Reynier–Servais): an *active* set of states,
  pruning new states covered by an active state and deactivating active
  states (plus their descendants) covered by a new state;
* the ⪯-based pruning of Section 3.5 (the default), which replaces the
  coverage relation ``≤`` by the weaker ``⪯`` tested via bipartite max-flow.

Candidate look-ups over the active set use the Section 3.6 index when
data-structure support is enabled: a bucket of the active states keyed by
:func:`bucket_key`, which every coverage relation requires to be equal, so
the look-up never drops a true cover (see :mod:`repro.core.indexes`).  With
it disabled they scan every active state; both give the same search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.control import STOP_CANCELLED, STOP_DEADLINE, SearchControl
from repro.core.coverage import covers_leq, covers_preceq
from repro.core.indexes import ActiveStateIndex
from repro.core.options import CoverageMode, VerifierOptions
from repro.core.product import ProductMove, ProductState, ProductSystem
from repro.core.psi import PSI
from repro.core.stats import SearchStatistics
from repro.vass.vass import OMEGA


def bucket_key(state: ProductState) -> Hashable:
    """The control part of *state* that coverage requires to be equal:
    the Büchi state and the child stages."""
    return (state.buchi_state, state.psi.children)


@dataclass
class SearchNode:
    """A node of the Karp–Miller tree."""

    node_id: int
    state: ProductState
    parent: Optional[int]
    service: Optional[str]
    depth: int
    active: bool = True
    children: List[int] = field(default_factory=list)


@dataclass
class KarpMillerResult:
    """Outcome of the coverability search."""

    nodes: List[SearchNode]
    active_ids: Set[int]
    stats: SearchStatistics
    completed: bool

    def node(self, node_id: int) -> SearchNode:
        return self.nodes[node_id]

    def active_nodes(self) -> List[SearchNode]:
        return [self.nodes[node_id] for node_id in sorted(self.active_ids)]

    def path_to(self, node_id: int) -> List[SearchNode]:
        """The tree path from the root to *node_id* (inclusive)."""
        path: List[SearchNode] = []
        current: Optional[int] = node_id
        while current is not None:
            node = self.nodes[current]
            path.append(node)
            current = node.parent
        path.reverse()
        return path


class KarpMillerSearch:
    """Coverability search over the product system."""

    def __init__(
        self,
        product: ProductSystem,
        options: VerifierOptions,
        control: Optional[SearchControl] = None,
    ):
        self.product = product
        self.options = options
        self.stats = SearchStatistics()
        # The control carries the cooperative cancellation token and the
        # progress-event sink; options.timeout_seconds folds into its deadline.
        self.control = control if control is not None else SearchControl()
        self._covers = (
            covers_preceq if options.coverage_mode is CoverageMode.PRECEQ else covers_leq
        )

    # -- coverage helpers ----------------------------------------------------------

    def _state_covers(self, covered: ProductState, covering: ProductState) -> bool:
        if covered.buchi_state != covering.buchi_state:
            return False
        return self._covers(covered.psi, covering.psi)

    # -- acceleration -----------------------------------------------------------------

    def _accelerate(self, state: ProductState, ancestors: Iterable[SearchNode]) -> ProductState:
        """Replace counters by ω when a dominated ancestor witnesses a pumpable loop."""
        counters = state.psi.counter_map()
        if not counters:
            return state
        key = bucket_key(state)
        relevant = [node for node in ancestors if bucket_key(node.state) == key]
        if not relevant:
            return state
        changed = False
        for key, value in list(counters.items()):
            if value is OMEGA:
                continue
            reduced = state.psi.with_counter_delta(key, -1)
            if reduced is None:
                continue
            reduced_state = ProductState(reduced, state.buchi_state)
            for node in relevant:
                if self._state_covers(node.state, reduced_state) and node.state != state:
                    counters[key] = OMEGA
                    changed = True
                    self.stats.accelerations += 1
                    break
        if not changed:
            return state
        return ProductState(state.psi.with_counters(counters), state.buchi_state)

    # -- main search --------------------------------------------------------------------

    def run(self) -> KarpMillerResult:
        start_time = time.monotonic()
        # A private scope applies options.timeout_seconds without mutating
        # the (possibly shared, reusable) caller token.
        control = self.control.scoped(self.options.timeout_seconds)
        nodes: List[SearchNode] = []
        active: Set[int] = set()
        index: Optional[ActiveStateIndex] = (
            ActiveStateIndex() if self.options.data_structure_support else None
        )
        worklist: List[int] = []
        completed = True

        def add_node(state: ProductState, parent: Optional[int], service: Optional[str]) -> SearchNode:
            node = SearchNode(
                node_id=len(nodes),
                state=state,
                parent=parent,
                service=service,
                depth=0 if parent is None else nodes[parent].depth + 1,
            )
            nodes.append(node)
            if parent is not None:
                nodes[parent].children.append(node.node_id)
            active.add(node.node_id)
            if index is not None:
                index.add(node.node_id, bucket_key(state))
            worklist.append(node.node_id)
            self.stats.states_explored += 1
            control.maybe_emit_progress(
                self.stats.states_explored, len(worklist), len(active)
            )
            return node

        # The index holds exactly the active nodes, so its buckets need no
        # intersection with ``active``.
        def active_candidates_covering(state: ProductState) -> Iterable[int]:
            """Active nodes that might cover *state* (state ⪯ candidate)."""
            if index is not None:
                return index.candidates_covering(bucket_key(state))
            return set(active)

        def active_candidates_covered(state: ProductState) -> Iterable[int]:
            """Active nodes that might be covered by *state* (candidate ⪯ state)."""
            if index is not None:
                return index.candidates_covered_by(bucket_key(state))
            return set(active)

        def deactivate_subtree(node_id: int) -> None:
            stack = [node_id]
            while stack:
                current = stack.pop()
                node = nodes[current]
                if node.active:
                    node.active = False
                    active.discard(current)
                    if index is not None:
                        index.remove(current)
                    self.stats.states_deactivated += 1
                stack.extend(node.children)

        def is_ancestor(candidate: int, descendant: int) -> bool:
            current: Optional[int] = descendant
            while current is not None:
                if current == candidate:
                    return True
                current = nodes[current].parent
            return False

        # Initial states.
        for move in self.product.initial_states():
            duplicate = any(
                nodes[node_id].state == move.state for node_id in active
            )
            if not duplicate:
                add_node(move.state, None, move.service)

        while worklist:
            reason = control.stop_reason()
            if reason is not None:
                if reason == STOP_DEADLINE:
                    self.stats.timed_out = True
                elif reason == STOP_CANCELLED:
                    self.stats.cancelled = True
                completed = False
                break
            if len(nodes) > self.options.max_states:
                self.stats.state_limit_reached = True
                completed = False
                break
            node_id = worklist.pop()
            node = nodes[node_id]
            if self.options.monotone_pruning and not node.active:
                continue

            ancestors = [nodes[ancestor_id] for ancestor_id in self._ancestor_ids(nodes, node_id)]
            if self.options.monotone_pruning:
                # Acceleration only considers ancestors that are still active
                # (Section 3.4: accel is applied on ancestors(I) ∩ act).
                active_ancestors = [a for a in ancestors if a.active]
            else:
                active_ancestors = ancestors

            # The phase hooks attribute hot-loop wall time for the trace
            # waterfall; an untraced control makes them shared no-ops.
            with control.phase("successor-generation"):
                moves = list(self.product.successors(node.state))
            for move in moves:
                self.stats.transitions_computed += 1
                with control.phase("acceleration"):
                    successor = self._accelerate(move.state, active_ancestors)

                if self.options.monotone_pruning:
                    covered = False
                    with control.phase("coverage-check"):
                        for candidate_id in active_candidates_covering(successor):
                            if self._state_covers(successor, nodes[candidate_id].state):
                                covered = True
                                break
                    if covered:
                        self.stats.states_pruned += 1
                        continue
                else:
                    # Classic Karp-Miller: prune only exact duplicates anywhere in the tree.
                    with control.phase("coverage-check"):
                        duplicate = any(existing.state == successor for existing in nodes)
                    if duplicate:
                        self.stats.states_pruned += 1
                        continue

                new_node = add_node(successor, node_id, move.service)

                if self.options.monotone_pruning:
                    # Deactivate every state (and its descendants) that the new
                    # state covers, unless it is an inactive ancestor of the
                    # new node (Reynier-Servais rule).
                    with control.phase("coverage-check"):
                        for candidate_id in list(active_candidates_covered(successor)):
                            if candidate_id == new_node.node_id:
                                continue
                            candidate = nodes[candidate_id]
                            if not self._state_covers(candidate.state, successor):
                                continue
                            if candidate.active or not is_ancestor(
                                candidate_id, new_node.node_id
                            ):
                                deactivate_subtree(candidate_id)
                    # The new node itself must stay active even if an ancestor
                    # subtree containing it was deactivated.
                    if not new_node.active:
                        new_node.active = True
                        active.add(new_node.node_id)
                        if index is not None:
                            index.add(new_node.node_id, bucket_key(successor))

        self.stats.search_seconds = time.monotonic() - start_time
        self.stats.coverability_set_size = len(active)
        return KarpMillerResult(nodes=nodes, active_ids=set(active), stats=self.stats, completed=completed)

    @staticmethod
    def _ancestor_ids(nodes: List[SearchNode], node_id: int) -> List[int]:
        result = []
        current = nodes[node_id].parent
        while current is not None:
            result.append(current)
            current = nodes[current].parent
        return result
