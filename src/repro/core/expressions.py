"""Navigation expressions (Section 3.2).

An *expression* is either a constant occurring in the specification or the
property, or a navigation chain ``x.F1.F2...A`` that starts at an id-typed
artifact variable (or artifact-relation attribute) and follows foreign keys of
the read-only database, optionally ending in a non-key attribute.  Because the
database schema is acyclic, the set ``E`` of all expressions is finite.

The :class:`ExpressionUniverse` materialises this finite set for one task
(plus the global variables of the property under verification) and provides
typed navigation, which the partial-isomorphism-type machinery relies on for
congruence closure (if ``e ~ e'`` then ``e.A ~ e'.A``).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.has.schema import DatabaseSchema
from repro.has.types import IdType, VALUE, ValueType, VarType


@dataclass(frozen=True)
class ConstExpr:
    """A constant expression (``None`` is the ``null`` constant)."""

    value: Union[str, int, float, None]

    def __hash__(self) -> int:
        # Explicit, so the hash is the same in every process: ``hash(None)``
        # is an address on older Pythons, which would make set and dict
        # iteration order (and so the search order) vary between runs even
        # under a fixed ``PYTHONHASHSEED``.
        if self.value is None:
            return hash(("const",))
        return hash(("const", self.value))

    @property
    def is_null(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        if self.value is None:
            return "null"
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


@dataclass(frozen=True)
class NavExpr:
    """A navigation expression: a root variable name plus a path of attribute names.

    ``NavExpr("cust_id", ())`` is the variable itself;
    ``NavExpr("cust_id", ("record", "status"))`` navigates the ``record``
    foreign key and then reads the ``status`` attribute.
    """

    root: str
    path: Tuple[str, ...] = ()

    def child(self, attribute: str) -> "NavExpr":
        return NavExpr(self.root, self.path + (attribute,))

    @property
    def is_variable(self) -> bool:
        return not self.path

    def __str__(self) -> str:
        return ".".join((self.root,) + self.path)


Expression = Union[ConstExpr, NavExpr]

#: The null constant expression.
NULL_EXPR = ConstExpr(None)

_NO_NAVIGATIONS: Dict[str, Expression] = {}


class ExpressionUniverse:
    """The finite set of expressions for one collection of typed roots.

    ``roots`` maps a root name (artifact variable, global property variable or
    artifact-relation attribute) to its type.  The universe contains, for each
    id-typed root, every navigation expression obtainable by following foreign
    keys of the (acyclic) schema, plus every constant registered with
    :meth:`add_constant`.
    """

    def __init__(self, schema: DatabaseSchema, roots: Dict[str, VarType]):
        self.schema = schema
        self._roots = dict(roots)
        self._types: Dict[Expression, VarType] = {}
        self._navigations: Dict[Expression, Dict[str, Expression]] = {}
        self._labels: Dict[Expression, str] = {}
        self._constants: List[ConstExpr] = []
        self._expressions: List[Expression] = []
        for root, var_type in self._roots.items():
            self._add_navigations(NavExpr(root), var_type)
        self.add_constant(None)

    # -- construction ------------------------------------------------------------

    def _add_navigations(self, expression: NavExpr, var_type: VarType) -> None:
        self._types[expression] = var_type
        self._expressions.append(expression)
        self._navigations[expression] = {}
        if not isinstance(var_type, IdType):
            return
        relation = self.schema.relation(var_type.relation)
        for attribute in relation.attributes:
            child = expression.child(attribute.name)
            self._navigations[expression][attribute.name] = child
            self._add_navigations(child, attribute.type_in(self.schema))

    def add_constant(self, value: Union[str, int, float, None]) -> ConstExpr:
        """Register a constant and return its expression (idempotent)."""
        expression = ConstExpr(value)
        if expression not in self._types:
            self._types[expression] = VALUE if value is not None else VALUE
            self._expressions.append(expression)
            self._navigations[expression] = {}
            self._constants.append(expression)
        return expression

    # -- accessors ----------------------------------------------------------------

    @property
    def expressions(self) -> Tuple[Expression, ...]:
        return tuple(self._expressions)

    @property
    def constants(self) -> Tuple[ConstExpr, ...]:
        return tuple(self._constants)

    @property
    def root_names(self) -> Tuple[str, ...]:
        return tuple(self._roots)

    def root_type(self, root: str) -> VarType:
        return self._roots[root]

    def has_root(self, root: str) -> bool:
        return root in self._roots

    def variable(self, root: str) -> NavExpr:
        """The expression denoting the root variable itself."""
        if root not in self._roots:
            raise KeyError(f"unknown root {root!r} in expression universe")
        return NavExpr(root)

    def contains(self, expression: Expression) -> bool:
        return expression in self._types

    def type_of(self, expression: Expression) -> VarType:
        """The type of an expression (constants are value-typed)."""
        return self._types[expression]

    def navigate(self, expression: Expression, attribute: str) -> Optional[Expression]:
        """``expression.attribute`` if it exists in the universe, else ``None``."""
        return self._navigations.get(expression, {}).get(attribute)

    def navigations_of(self, expression: Expression) -> Mapping[str, Expression]:
        """All single-step navigations from *expression* (attribute -> expression).

        A read-only view of the universe's own mapping, not a copy.
        """
        return MappingProxyType(self._navigations.get(expression, _NO_NAVIGATIONS))

    def label(self, expression: Expression) -> str:
        """``str(expression)``, built once per expression and then shared.

        Canonical keys of partial isomorphism types are sets of these
        labels, so sharing one string per expression keeps every key small.
        """
        label = self._labels.get(expression)
        if label is None:
            label = self._labels[expression] = str(expression)
        return label

    def expressions_rooted_at(self, roots: Iterable[str]) -> Set[Expression]:
        """All navigation expressions whose root variable is in *roots*, plus all constants."""
        wanted = set(roots)
        result: Set[Expression] = set(self._constants)
        for expression in self._expressions:
            if isinstance(expression, NavExpr) and expression.root in wanted:
                result.add(expression)
        return result

    def __len__(self) -> int:
        return len(self._expressions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExpressionUniverse(roots={list(self._roots)}, size={len(self)})"
