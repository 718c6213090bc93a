"""Candidate look-ups over the active set of the search (Section 3.6).

Every time the search visits a new product state it asks two questions of
the set of *active* states:

1. which active states does the new one cover (candidates for deactivation)?
2. is the new state covered by some active state (can it be pruned)?

Every coverage relation the search uses (``≤``, ``⪯`` and ``⪯+`` in
:mod:`repro.core.coverage`, lifted to product states by
``KarpMillerSearch._state_covers``) requires both states to have the same
Büchi state and the same child stages.  :class:`ActiveStateIndex` therefore
buckets the active states by that pair; a bucket look-up is an *exact*
filter: it returns every true cover and only drops states that no relation
could accept.  The precise coverage test then runs on the bucket alone.

The paper also filters on the states' edge sets, using a Trie for superset
and inverted lists for subset queries.  That is unsound for our
representation, because edge sets are not monotone under ``⪯``:

* canonical keys are syntactic, so a fact the covering type only *implies*
  (``"New" != "Paid"``, say) can appear as an edge on one side only; and
* the covering state may store *more* tuple types than the covered one.

A subset filter over such sets drops true covers, which changes the pruned
state space (and on some corpus rows turns VIOLATED into UNKNOWN at the
state budget).  An edge-set filter would need closure-normalised types and
no stored-tuple edges; the bucket is what remains exact without them.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Set, Tuple, TypeVar

ItemId = TypeVar("ItemId", bound=Hashable)


class ActiveStateIndex(Generic[ItemId]):
    """The active states of the search, bucketed by an exact key.

    The key is whatever every coverage relation requires to be equal; the
    search uses ``(buchi_state, psi.children)``.
    """

    def __init__(self) -> None:
        self._buckets: Dict[Hashable, Set[ItemId]] = {}
        self._keys: Dict[ItemId, Hashable] = {}

    def add(self, item: ItemId, key: Hashable) -> None:
        self._keys[item] = key
        self._buckets.setdefault(key, set()).add(item)

    def remove(self, item: ItemId) -> None:
        key = self._keys.pop(item, None)
        if key is None:
            return
        bucket = self._buckets[key]
        bucket.discard(item)
        if not bucket:
            del self._buckets[key]

    def __contains__(self, item: object) -> bool:
        return item in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def items(self) -> Tuple[ItemId, ...]:
        return tuple(self._keys)

    def candidates_covering(self, key: Hashable) -> Set[ItemId]:
        """Items that may cover a state with *key*: its bucket."""
        return set(self._buckets.get(key, ()))

    def candidates_covered_by(self, key: Hashable) -> Set[ItemId]:
        """Items a state with *key* may cover: the same bucket, since
        coverage needs equal keys in both directions."""
        return set(self._buckets.get(key, ()))
