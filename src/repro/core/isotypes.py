"""Partial isomorphism types (Definition 17).

A partial isomorphism type τ is a graph over the expression universe whose
edges are labelled ``=`` or ``≠``, closed under

1. congruence: if ``e ~ e'`` (connected by =-edges) and both ``e.A`` and
   ``e'.A`` exist, then ``e.A ~ e'.A``;
2. consistency of ≠: no ≠-edge inside an equivalence class, and ≠ is lifted
   to whole classes.

We represent a type as a union–find partition over the expressions mentioned
so far plus a set of ≠-edges between class representatives.  Types are
immutable: :meth:`PartialIsoType.extend` returns a new type (or ``None`` when
the added constraints contradict the existing ones).  Consistency also
enforces that two distinct non-null constants are never identified and that
navigation expressions of incompatible types (ids of different relations, or
an id vs a data value) are never identified.

The operations used by the verifier are:

* ``extend``        -- add constraints (used by condition evaluation),
* ``project``       -- keep only expressions rooted at a set of variables
  (used for variable propagation and child-task returns),
* ``entails``       -- ``τ |= τ'`` iff every constraint of τ' holds in τ
  (with closed representations this is exactly τ' ⊆ τ of the paper),
* ``rename_roots``  -- translate between a task's variables and an artifact
  relation's attributes (used by insertions and retrievals),
* ``canonical_key`` -- hashing / equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.expressions import ConstExpr, Expression, ExpressionUniverse, NavExpr
from repro.has.types import IdType, ValueType

#: A single constraint between two expressions: ``(left, right, op)`` with op "=" or "!=".
Constraint = Tuple[Expression, Expression, str]

EQ = "="
NEQ = "!="


class PartialIsoType:
    """An immutable partial isomorphism type over an expression universe."""

    __slots__ = (
        "universe",
        "_parent",
        "_neq",
        "_key",
        "_hash",
        "_sort_key",
        "_eq_key",
        "_neq_key",
    )

    def __init__(
        self,
        universe: ExpressionUniverse,
        parent: Optional[Dict[Expression, Expression]] = None,
        neq: Optional[Set[FrozenSet[Expression]]] = None,
    ):
        self.universe = universe
        self._parent: Dict[Expression, Expression] = dict(parent) if parent else {}
        self._neq: Set[FrozenSet[Expression]] = set(neq) if neq else set()
        self._key: Optional[FrozenSet] = None
        self._hash: Optional[int] = None
        self._sort_key: Optional[Tuple[Tuple[str, str, str], ...]] = None
        self._eq_key: Optional[FrozenSet] = None
        self._neq_key: Optional[FrozenSet] = None

    # ------------------------------------------------------------- union-find

    def _find(self, expression: Expression) -> Expression:
        parent = self._parent
        root = expression
        while parent.get(root, root) != root:
            root = parent[root]
        return root

    def representative(self, expression: Expression) -> Expression:
        """The canonical representative of the expression's equivalence class."""
        return self._find(expression)

    def same_class(self, left: Expression, right: Expression) -> bool:
        """Whether the two expressions are known to be equal."""
        return self._find(left) == self._find(right)

    def known_distinct(self, left: Expression, right: Expression) -> bool:
        """Whether the two expressions are known to be distinct."""
        left_root, right_root = self._find(left), self._find(right)
        if left_root == right_root:
            return False
        if frozenset((left_root, right_root)) in self._neq:
            return True
        return self._implicitly_distinct(left_root, right_root)

    def _implicitly_distinct(self, left_root: Expression, right_root: Expression) -> bool:
        """Distinctions that hold without an explicit ≠-edge (constants, types)."""
        left_const = self._class_constant(left_root)
        right_const = self._class_constant(right_root)
        if left_const is not None and right_const is not None and left_const != right_const:
            return True
        return False

    def _class_constant(self, root: Expression) -> Optional[ConstExpr]:
        """The constant belonging to this class, if any (classes hold at most one)."""
        if isinstance(root, ConstExpr):
            return root
        for member, parent in self._parent.items():
            if isinstance(member, ConstExpr) and self._find(member) == root:
                return member
        return None

    # -------------------------------------------------------------- membership

    def members(self) -> Set[Expression]:
        """All expressions mentioned by at least one constraint."""
        mentioned: Set[Expression] = set(self._parent)
        for pair in self._neq:
            mentioned |= set(pair)
        return mentioned

    def equivalence_classes(self) -> Dict[Expression, Set[Expression]]:
        """Representative -> members, for all mentioned expressions.

        Built afresh on each call and not kept.  :meth:`canonical_key`
        builds it once per type and :meth:`project` once more per projection,
        which the search memoises (see :mod:`repro.core.transitions`), so a
        kept partition would cost memory in every type for little reuse.
        """
        classes: Dict[Expression, Set[Expression]] = {}
        for expression in self.members():
            classes.setdefault(self._find(expression), set()).add(expression)
        return classes

    def constraints(self) -> List[Constraint]:
        """An explicit list of (closed) constraints: all = pairs within classes, all ≠ pairs."""
        result: List[Constraint] = []
        label = self.universe.label
        classes = self.equivalence_classes()
        for root, members in classes.items():
            ordered = sorted(members, key=label)
            for i in range(len(ordered)):
                for j in range(i + 1, len(ordered)):
                    result.append((ordered[i], ordered[j], EQ))
        for pair in self._neq:
            left_root, right_root = tuple(pair)
            left_members = classes.get(left_root, {left_root})
            right_members = classes.get(right_root, {right_root})
            for left in left_members:
                for right in right_members:
                    first, second = sorted((left, right), key=label)
                    result.append((first, second, NEQ))
        return result

    # -------------------------------------------------------------- hashing

    def canonical_key(self) -> FrozenSet:
        """A canonical, order-independent encoding of all entailed constraints."""
        if self._key is None:
            label = self.universe.label
            encoded = set()
            for left, right, op in self.constraints():
                encoded.add((label(left), label(right), op))
            self._key = frozenset(encoded)
        return self._key

    def sort_key(self) -> Tuple[Tuple[str, str, str], ...]:
        """:meth:`canonical_key` as a sorted tuple (cached): the sort key of PSI counters.

        Equal types have equal sort keys however they were built, whereas
        the iteration order of the key's frozenset follows its build history
        and the hash seed.
        """
        if self._sort_key is None:
            self._sort_key = tuple(sorted(self.canonical_key()))
        return self._sort_key

    def eq_key(self) -> FrozenSet:
        """The equality edges of :meth:`canonical_key` (cached)."""
        if self._eq_key is None:
            self._eq_key = frozenset(e for e in self.canonical_key() if e[2] == EQ)
        return self._eq_key

    def neq_key(self) -> FrozenSet:
        """The disequality edges of :meth:`canonical_key` (cached)."""
        if self._neq_key is None:
            self._neq_key = frozenset(e for e in self.canonical_key() if e[2] == NEQ)
        return self._neq_key

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.canonical_key())
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialIsoType):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{l}{'=' if op == EQ else '!='}{r}" for l, r, op in self.constraints()]
        return "τ{" + ", ".join(sorted(parts)) + "}"

    # -------------------------------------------------------------- extension

    def extend(self, constraints: Iterable[Constraint]) -> Optional["PartialIsoType"]:
        """A new type with the added constraints, or ``None`` if inconsistent."""
        extended = PartialIsoType(self.universe, self._parent, self._neq)
        pending: List[Constraint] = list(constraints)
        while pending:
            left, right, op = pending.pop()
            if not extended._check_in_universe(left) or not extended._check_in_universe(right):
                return None
            if op == EQ:
                if not extended._union(left, right, pending):
                    return None
            elif op == NEQ:
                if not extended._add_neq(left, right):
                    return None
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown constraint operator {op!r}")
        return extended

    def _check_in_universe(self, expression: Expression) -> bool:
        if isinstance(expression, ConstExpr):
            self.universe.add_constant(expression.value)
            return True
        return self.universe.contains(expression)

    def _expression_kind(self, expression: Expression) -> Tuple[str, Optional[str]]:
        """A coarse type tag: ("null", None), ("value", None) or ("id", relation)."""
        if isinstance(expression, ConstExpr):
            return ("null", None) if expression.is_null else ("value", None)
        expr_type = self.universe.type_of(expression)
        if isinstance(expr_type, IdType):
            return ("id", expr_type.relation)
        return ("value", None)

    def _types_compatible(self, left: Expression, right: Expression) -> bool:
        """Whether the two expressions can be equal with a *non-null* value.

        Identifiers of different relations, and identifiers vs data values,
        draw their non-null values from disjoint domains: they can only be
        equal when both are ``null``.  Non-null constants are data values, so
        they are incompatible with id-typed expressions; ``null`` itself is
        compatible with everything.
        """
        left_kind = self._expression_kind(left)
        right_kind = self._expression_kind(right)
        if left_kind[0] == "null" or right_kind[0] == "null":
            return True
        return left_kind == right_kind or (left_kind[0] == "value" and right_kind[0] == "value")

    def _can_both_be_null(self, left: Expression, right: Expression) -> bool:
        """Whether the (type-incompatible) pair may still be identified as null = null."""
        left_null = not isinstance(left, ConstExpr) or left.is_null
        right_null = not isinstance(right, ConstExpr) or right.is_null
        return left_null and right_null

    def _union(self, left: Expression, right: Expression, pending: List[Constraint]) -> bool:
        left_root, right_root = self._find(left), self._find(right)
        self._parent.setdefault(left, left)
        self._parent.setdefault(right, right)
        if left_root == right_root:
            return True
        if frozenset((left_root, right_root)) in self._neq:
            return False
        if self._implicitly_distinct(left_root, right_root):
            return False
        if not self._types_compatible(left, right):
            if not self._can_both_be_null(left, right):
                return False
            # Expressions of incompatible types (ids of different relations,
            # or an id and a data value) can only be equal when both are null:
            # enforce the union and additionally force the class to null.
            null = self.universe.add_constant(None)
            pending.append((left, null, EQ))
        # Prefer constants as representatives so each class keeps its constant visible.
        if isinstance(right_root, ConstExpr) and not isinstance(left_root, ConstExpr):
            left_root, right_root = right_root, left_root
        if isinstance(left_root, ConstExpr) and isinstance(right_root, ConstExpr):
            if left_root != right_root:
                return False
        # Merge right_root into left_root.
        self._parent[right_root] = left_root
        # Re-target ≠ edges of the absorbed representative.
        updated_neq: Set[FrozenSet[Expression]] = set()
        for pair in self._neq:
            replaced = frozenset(left_root if member == right_root else member for member in pair)
            if len(replaced) == 1:
                return False  # ≠ collapsed onto a single class
            updated_neq.add(replaced)
        self._neq = updated_neq
        # Congruence closure: children of merged members must be merged too.
        pending.extend(self._congruence_constraints(left, right))
        return True

    def _congruence_constraints(self, left: Expression, right: Expression) -> List[Constraint]:
        """Equalities between matching navigations of two newly identified expressions."""
        result: List[Constraint] = []
        # All members of both classes must agree on their navigations; it is
        # enough to propagate pairwise between members of the merged class.
        merged_root = self._find(left)
        members = [m for m in self.members() if self._find(m) == merged_root]
        members.extend(e for e in (left, right) if e not in members)
        navigations = [
            (member, self.universe.navigations_of(member)) for member in members
        ]
        for i in range(len(navigations)):
            member_i, navs_i = navigations[i]
            if not navs_i:
                continue
            for j in range(i + 1, len(navigations)):
                member_j, navs_j = navigations[j]
                for attribute, child_i in navs_i.items():
                    child_j = navs_j.get(attribute)
                    if child_j is not None and not self.same_class(child_i, child_j):
                        result.append((child_i, child_j, EQ))
        return result

    def _add_neq(self, left: Expression, right: Expression) -> bool:
        left_root, right_root = self._find(left), self._find(right)
        self._parent.setdefault(left, left)
        self._parent.setdefault(right, right)
        if left_root == right_root:
            return False
        self._neq.add(frozenset((left_root, right_root)))
        return True

    # -------------------------------------------------------------- projection

    def project(self, roots: Iterable[str]) -> "PartialIsoType":
        """The restriction of the type to expressions rooted at *roots* (and constants)."""
        kept = self.universe.expressions_rooted_at(roots)
        result = PartialIsoType(self.universe)
        classes = self.equivalence_classes()
        pending: List[Constraint] = []
        for members in classes.values():
            kept_members = sorted(
                (m for m in members if m in kept or isinstance(m, ConstExpr)),
                key=self.universe.label,
            )
            for i in range(len(kept_members) - 1):
                pending.append((kept_members[i], kept_members[i + 1], EQ))
        for pair in self._neq:
            left_root, right_root = tuple(pair)
            left_kept = [m for m in classes.get(left_root, {left_root}) if m in kept or isinstance(m, ConstExpr)]
            right_kept = [m for m in classes.get(right_root, {right_root}) if m in kept or isinstance(m, ConstExpr)]
            if left_kept and right_kept:
                pending.append((left_kept[0], right_kept[0], NEQ))
        projected = result.extend(pending)
        assert projected is not None, "projection of a consistent type is always consistent"
        return projected

    # -------------------------------------------------------------- renaming

    def rename_roots(
        self, mapping: Dict[str, str], target_universe: "ExpressionUniverse"
    ) -> Optional["PartialIsoType"]:
        """Rename root variables according to *mapping* into another universe.

        Expressions whose root is not in the mapping are dropped; constants
        are preserved.  Returns ``None`` when the renamed constraints are
        inconsistent in the target universe (which cannot happen for
        type-correct specifications, but is handled defensively).
        """

        def rename(expression: Expression) -> Optional[Expression]:
            if isinstance(expression, ConstExpr):
                target_universe.add_constant(expression.value)
                return expression
            if expression.root not in mapping:
                return None
            renamed = NavExpr(mapping[expression.root], expression.path)
            return renamed if target_universe.contains(renamed) else None

        pending: List[Constraint] = []
        for left, right, op in self.constraints():
            renamed_left = rename(left)
            renamed_right = rename(right)
            if renamed_left is None or renamed_right is None:
                continue
            pending.append((renamed_left, renamed_right, op))
        return PartialIsoType(target_universe).extend(pending)

    # -------------------------------------------------------------- entailment

    def entails(self, other: "PartialIsoType") -> bool:
        """``self |= other``: every constraint of *other* holds in *self* (τ' ⊆ τ)."""
        # Fast path on the cached canonical keys.  Both representations are
        # closed, so for the equality part entailment is exactly edge-set
        # inclusion; a failed inclusion means there is nothing left to check.
        if not other.eq_key() <= self.eq_key():
            return False
        if other.neq_key() <= self.neq_key():
            return True
        # Slow path only for ≠-edges that may be entailed implicitly
        # (e.g. via two distinct constants in the respective classes).
        for pair in other._neq:
            left_root, right_root = tuple(pair)
            if not self.known_distinct(left_root, right_root):
                return False
        return True

    def is_consistent_with(self, constraints: Iterable[Constraint]) -> bool:
        """Whether the constraints can be added without contradiction."""
        return self.extend(constraints) is not None


def empty_type(universe: ExpressionUniverse) -> PartialIsoType:
    """The fully unconstrained partial isomorphism type."""
    return PartialIsoType(universe)
