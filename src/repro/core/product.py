"""Product of the symbolic transition system with the Büchi automaton of ¬φ.

A product state pairs a partial symbolic instance with a state of the Büchi
automaton built from the *negation* of the LTL-FO property.  A symbolic move
labelled with service σ synchronises with a Büchi transition whose label is
compatible with σ (service propositions) and whose condition propositions can
be satisfied by extending the partial isomorphism type (lazy constraint
accumulation); each minimal extension yields one product successor.

The verifier then reduces property violation to (repeated) reachability of
accepting product states (Problem 21 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.isotypes import Constraint, PartialIsoType
from repro.core.psi import PSI
from repro.core.transitions import SymbolicMove, SymbolicTransitionSystem
from repro.has.conditions import Condition, Not, TrueCond, conjunction
from repro.ltl.buchi import BuchiAutomaton, TransitionLabel
from repro.ltl.ltlfo import LTLFOProperty


@dataclass(frozen=True)
class ProductState:
    """A state of the product search: (partial symbolic instance, Büchi state)."""

    psi: PSI
    buchi_state: int


@dataclass(frozen=True)
class ProductMove:
    """A product transition: service applied, resulting product state."""

    service: str
    state: ProductState


class ProductSystem:
    """Synchronous product of symbolic runs with the Büchi automaton of ¬φ."""

    def __init__(
        self,
        transition_system: SymbolicTransitionSystem,
        automaton: BuchiAutomaton,
        ltl_property: LTLFOProperty,
    ):
        self.transition_system = transition_system
        self.automaton = automaton
        self.ltl_property = ltl_property
        self._condition_props = set(ltl_property.conditions)
        self._label_conditions: Dict[TransitionLabel, Optional[Condition]] = {}

    # ------------------------------------------------------------------ label handling

    def _label_condition(self, label: TransitionLabel) -> Optional[Condition]:
        """The FO condition a snapshot must satisfy for the label's condition propositions.

        Returns ``None`` for labels with no condition propositions (always
        satisfiable without extending the type).
        """
        if label in self._label_conditions:
            return self._label_conditions[label]
        parts: List[Condition] = []
        for proposition in sorted(label.required):
            if proposition in self._condition_props:
                parts.append(self.ltl_property.conditions[proposition])
        for proposition in sorted(label.forbidden):
            if proposition in self._condition_props:
                parts.append(Not(self.ltl_property.conditions[proposition]))
        condition = conjunction(parts) if parts else None
        self._label_conditions[label] = condition
        return condition

    def _service_compatible(self, label: TransitionLabel, service: str) -> bool:
        """Whether the label's service propositions agree with the applied service."""
        for proposition in label.required:
            if proposition not in self._condition_props and proposition != service:
                return False
        for proposition in label.forbidden:
            if proposition not in self._condition_props and proposition == service:
                return False
        return True

    def _synchronise(self, move: SymbolicMove, buchi_source: int) -> List[ProductMove]:
        """All product successors obtained by synchronising a symbolic move."""
        results: List[ProductMove] = []
        seen: Set[Tuple[object, int]] = set()
        for transition in self.automaton.outgoing(buchi_source):
            if not self._service_compatible(transition.label, move.service):
                continue
            condition = self._label_condition(transition.label)
            if condition is None:
                candidates = [move.psi.tau]
            else:
                candidates = self.transition_system.evaluate(move.psi.tau, condition)
            for extended in candidates:
                successor = ProductState(move.psi.with_tau(extended), transition.target)
                key = (successor.psi.tau.canonical_key(), transition.target,
                       successor.psi.counters, successor.psi.children)
                if key in seen:
                    continue
                seen.add(key)
                results.append(ProductMove(move.service, successor))
        return results

    # ------------------------------------------------------------------ search interface

    def initial_states(self) -> List[ProductMove]:
        """Product states reachable by the opening service of the verified task."""
        results: List[ProductMove] = []
        for move in self.transition_system.initial_moves():
            for initial in self.automaton.initial_states:
                results.extend(self._synchronise(move, initial))
        return results

    def successors(self, state: ProductState) -> List[ProductMove]:
        """All product successors of a product state."""
        results: List[ProductMove] = []
        for move in self.transition_system.successors(state.psi):
            results.extend(self._synchronise(move, state.buchi_state))
        return results

    def is_accepting(self, state: ProductState) -> bool:
        return state.buchi_state in self.automaton.accepting_states
