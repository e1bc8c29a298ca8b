"""Disjoint-set (union-find) structure used by the co-reference service.

``owl:sameAs`` is an equivalence relation; the sameas.org service the paper
wraps maintains *bundles* of equivalent URIs.  A union-find with path
compression and union by rank gives near-constant-time bundle lookups.

Two properties matter for the federation layer, which calls
:meth:`UnionFind.members` once per URI per merged row from several worker
threads at once:

* a root→members index is maintained incrementally on :meth:`union`, so
  :meth:`members` costs O(|class|) instead of scanning every known item;
* all operations are guarded by a re-entrant lock (``find`` mutates the
  parent table through path compression, so even reads write).
"""

from __future__ import annotations

import threading
from collections.abc import Hashable, Iterator
from typing import Generic, TypeVar

__all__ = ["UnionFind"]

T = TypeVar("T", bound=Hashable)


class UnionFind(Generic[T]):
    """Thread-safe union-find over arbitrary hashable items."""

    def __init__(self) -> None:
        self._parent: dict[T, T] = {}
        self._rank: dict[T, int] = {}
        #: root → set of all items in that class, kept exact by union().
        self._members: dict[T, set[T]] = {}
        self._lock = threading.RLock()

    def add(self, item: T) -> None:
        """Register an item as its own singleton class (idempotent)."""
        with self._lock:
            if item not in self._parent:
                self._parent[item] = item
                self._rank[item] = 0
                self._members[item] = {item}

    def __contains__(self, item: T) -> bool:
        with self._lock:
            return item in self._parent

    def __len__(self) -> int:
        with self._lock:
            return len(self._parent)

    def find(self, item: T) -> T:
        """Representative of the item's class (with path compression)."""
        with self._lock:
            return self._find(item)

    def _find(self, item: T) -> T:
        if item not in self._parent:
            raise KeyError(f"unknown item: {item!r}")
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, left: T, right: T) -> T:
        """Merge the classes of ``left`` and ``right``; returns the new root."""
        with self._lock:
            self.add(left)
            self.add(right)
            left_root = self._find(left)
            right_root = self._find(right)
            if left_root == right_root:
                return left_root
            if self._rank[left_root] < self._rank[right_root]:
                left_root, right_root = right_root, left_root
            self._parent[right_root] = left_root
            if self._rank[left_root] == self._rank[right_root]:
                self._rank[left_root] += 1
            self._members[left_root] |= self._members.pop(right_root)
            return left_root

    def connected(self, left: T, right: T) -> bool:
        """True when the two items are in the same class."""
        with self._lock:
            if left not in self._parent or right not in self._parent:
                return False
            return self._find(left) == self._find(right)

    def members(self, item: T) -> set[T]:
        """Every item in the same class as ``item`` (including itself)."""
        with self._lock:
            if item not in self._parent:
                return {item}
            return set(self._members[self._find(item)])

    def classes(self) -> list[set[T]]:
        """All equivalence classes as a list of sets."""
        with self._lock:
            return [set(members) for members in self._members.values()]

    def __iter__(self) -> Iterator[T]:
        with self._lock:
            return iter(list(self._parent))
