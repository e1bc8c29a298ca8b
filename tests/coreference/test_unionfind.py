"""Unit and property-based tests for the union-find structure."""

from hypothesis import given, settings, strategies as st

from repro.coreference import UnionFind

import pytest


class TestUnionFindBasics:
    def test_singleton_after_add(self):
        uf = UnionFind()
        uf.add("a")
        assert uf.find("a") == "a"
        assert uf.members("a") == {"a"}

    def test_union_connects(self):
        uf = UnionFind()
        uf.union("a", "b")
        assert uf.connected("a", "b")
        assert uf.members("a") == {"a", "b"}

    def test_union_transitive(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.connected("a", "c")
        assert uf.members("c") == {"a", "b", "c"}

    def test_disjoint_items_not_connected(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("c", "d")
        assert not uf.connected("a", "c")

    def test_unknown_items_not_connected(self):
        uf = UnionFind()
        uf.add("a")
        assert not uf.connected("a", "missing")
        assert not uf.connected("missing", "other")

    def test_find_unknown_raises(self):
        with pytest.raises(KeyError):
            UnionFind().find("missing")

    def test_members_of_unknown_is_singleton(self):
        assert UnionFind().members("solo") == {"solo"}

    def test_classes(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.add("c")
        classes = uf.classes()
        assert {frozenset(c) for c in classes} == {frozenset({"a", "b"}), frozenset({"c"})}

    def test_len_and_iter(self):
        uf = UnionFind()
        uf.add("a")
        uf.add("b")
        uf.union("a", "c")
        assert len(uf) == 3
        assert set(uf) == {"a", "b", "c"}

    def test_union_idempotent(self):
        uf = UnionFind()
        uf.union("a", "b")
        root = uf.find("a")
        assert uf.union("a", "b") == root


# --------------------------------------------------------------------------- #
# Property-based: union-find agrees with a naive partition model
# --------------------------------------------------------------------------- #
_ITEMS = st.integers(min_value=0, max_value=20)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_ITEMS, _ITEMS), max_size=40))
def test_unionfind_matches_naive_partition(pairs):
    uf = UnionFind()
    partition: list[set] = []

    def naive_union(a, b):
        group_a = next((g for g in partition if a in g), None)
        group_b = next((g for g in partition if b in g), None)
        if group_a is None and group_b is None:
            partition.append({a, b})
        elif group_a is None:
            group_b.add(a)
        elif group_b is None:
            group_a.add(b)
        elif group_a is not group_b:
            group_a |= group_b
            partition.remove(group_b)

    for a, b in pairs:
        uf.union(a, b)
        naive_union(a, b)

    for a, b in pairs:
        expected = any(a in group and b in group for group in partition)
        assert uf.connected(a, b) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_ITEMS, _ITEMS), min_size=1, max_size=30))
def test_equivalence_relation_properties(pairs):
    """connected() is reflexive, symmetric and transitive."""
    uf = UnionFind()
    for a, b in pairs:
        uf.union(a, b)
    items = list(uf)
    for a in items:
        assert uf.connected(a, a)
        for b in items:
            assert uf.connected(a, b) == uf.connected(b, a)
    for a in items:
        for b in items:
            for c in items:
                if uf.connected(a, b) and uf.connected(b, c):
                    assert uf.connected(a, c)


class TestMembersIndex:
    """The root→members index must stay exact through arbitrary unions."""

    def test_members_unknown_item_is_singleton(self):
        uf = UnionFind()
        assert uf.members("ghost") == {"ghost"}

    def test_index_survives_chained_unions(self):
        uf = UnionFind()
        for left, right in [("a", "b"), ("c", "d"), ("b", "c"), ("e", "f"), ("d", "e")]:
            uf.union(left, right)
        everyone = {"a", "b", "c", "d", "e", "f"}
        for item in everyone:
            assert uf.members(item) == everyone

    def test_members_returns_copy(self):
        uf = UnionFind()
        uf.union("a", "b")
        snapshot = uf.members("a")
        snapshot.add("z")
        assert uf.members("a") == {"a", "b"}

    def test_classes_match_members(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("c", "d")
        uf.add("lonely")
        classes = {frozenset(cls) for cls in uf.classes()}
        assert classes == {
            frozenset({"a", "b"}),
            frozenset({"c", "d"}),
            frozenset({"lonely"}),
        }

    def test_redundant_union_keeps_index_exact(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("a", "b")
        uf.union("b", "a")
        assert uf.members("a") == {"a", "b"}
        assert len(uf.classes()) == 1


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=40))
def test_members_index_matches_naive_scan(pairs):
    """members() via the index equals the O(n) scan it replaced."""
    uf = UnionFind()
    for a, b in pairs:
        uf.union(a, b)
    for item in uf:
        scanned = {other for other in uf if uf.find(other) == uf.find(item)}
        assert uf.members(item) == scanned
