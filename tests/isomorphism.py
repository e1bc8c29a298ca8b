"""Blank-node aware RDF graph comparison, a test helper.

Two RDF graphs are *isomorphic* when one can be obtained from the other by
renaming blank nodes.  Exact set equality is too strict for tests that
compare generated graphs (e.g. the reified alignment serialisation round
trips of Experiment E2), because blank node labels are implementation
artefacts.

The implementation follows the classic "colour refinement + backtracking"
approach: ground triples must match exactly, blank nodes are partitioned by
a structural signature that is iteratively refined and a backtracking
search establishes the final bijection.  Graphs appearing in this codebase
are small (alignment descriptions, test fixtures), so the worst-case
exponential behaviour of the backtracking step is not a concern.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

from repro.rdf import BNode, Graph, Term, Triple

__all__ = ["isomorphic", "canonical_hash", "bnode_signatures"]


def _split(graph: Iterable[Triple]) -> tuple[set, list[Triple]]:
    """Separate ground triples from triples mentioning blank nodes."""
    ground = set()
    with_bnodes = []
    for triple in graph:
        if triple.bnodes():
            with_bnodes.append(triple)
        else:
            ground.add(triple)
    return ground, with_bnodes


def bnode_signatures(triples: Iterable[Triple], rounds: int = 4) -> dict[BNode, str]:
    """Compute a structural signature for every blank node.

    The signature of a node starts from the multiset of (position,
    predicate, other-term-if-ground) facts it participates in, then is
    refined by folding in neighbouring blank node signatures for a fixed
    number of rounds (a simplified WL colour refinement).
    """
    triples = list(triples)
    adjacency: dict[BNode, list[tuple[str, str, BNode | None]]] = defaultdict(list)
    for triple in triples:
        s, p, o = triple.as_tuple()
        if isinstance(s, BNode):
            other = o if isinstance(o, BNode) else None
            label = "" if isinstance(o, BNode) else o.n3()
            adjacency[s].append(("S", f"{p.n3()}|{label}", other))
        if isinstance(o, BNode):
            other = s if isinstance(s, BNode) else None
            label = "" if isinstance(s, BNode) else s.n3()
            adjacency[o].append(("O", f"{p.n3()}|{label}", other))

    signatures: dict[BNode, str] = {
        node: "|".join(sorted(f"{pos}:{desc}" for pos, desc, _ in facts))
        for node, facts in adjacency.items()
    }
    for _ in range(rounds):
        refined: dict[BNode, str] = {}
        for node, facts in adjacency.items():
            parts = []
            for pos, desc, other in facts:
                neighbour = signatures.get(other, "") if other is not None else ""
                parts.append(f"{pos}:{desc}:{hash(neighbour) & 0xFFFFFFFF:x}")
            refined[node] = "|".join(sorted(parts))
        signatures = refined
    return signatures


def isomorphic(left: Graph | Iterable[Triple], right: Graph | Iterable[Triple]) -> bool:
    """True when the two graphs are equal up to blank-node renaming."""
    left_triples = list(left)
    right_triples = list(right)
    if len(left_triples) != len(right_triples):
        return False

    left_ground, left_pattern = _split(left_triples)
    right_ground, right_pattern = _split(right_triples)
    if left_ground != right_ground:
        return False
    if len(left_pattern) != len(right_pattern):
        return False
    if not left_pattern:
        return True

    left_sig = bnode_signatures(left_triples)
    right_sig = bnode_signatures(right_triples)
    if sorted(left_sig.values()) != sorted(right_sig.values()):
        return False

    # Candidate sets per left bnode: right bnodes sharing the signature.
    candidates: dict[BNode, list[BNode]] = {}
    right_by_sig: dict[str, list[BNode]] = defaultdict(list)
    for node, sig in right_sig.items():
        right_by_sig[sig].append(node)
    for node, sig in left_sig.items():
        candidates[node] = list(right_by_sig.get(sig, []))
        if not candidates[node]:
            return False

    right_pattern_set = set(right_pattern)
    order = sorted(candidates, key=lambda n: (len(candidates[n]), n.sort_key()))

    def assign(index: int, mapping: dict[BNode, BNode], used: set) -> bool:
        if index == len(order):
            return _check_mapping(left_pattern, right_pattern_set, mapping)
        node = order[index]
        for candidate in candidates[node]:
            if candidate in used:
                continue
            mapping[node] = candidate
            used.add(candidate)
            if _consistent(left_pattern, right_pattern_set, mapping) and assign(
                index + 1, mapping, used
            ):
                return True
            used.discard(candidate)
            del mapping[node]
        return False

    return assign(0, {}, set())


def _apply_mapping(triple: Triple, mapping: dict[BNode, BNode]) -> Triple | None:
    terms = []
    for term in triple:
        if isinstance(term, BNode):
            mapped = mapping.get(term)
            if mapped is None:
                return None
            terms.append(mapped)
        else:
            terms.append(term)
    return Triple(*terms)


def _check_mapping(left_pattern: list[Triple], right_set: set, mapping: dict[BNode, BNode]) -> bool:
    for triple in left_pattern:
        mapped = _apply_mapping(triple, mapping)
        if mapped is None or mapped not in right_set:
            return False
    return True


def _consistent(left_pattern: list[Triple], right_set: set, mapping: dict[BNode, BNode]) -> bool:
    """Partial-mapping consistency: fully mapped triples must exist on the right."""
    for triple in left_pattern:
        mapped = _apply_mapping(triple, mapping)
        if mapped is not None and mapped not in right_set:
            return False
    return True


def canonical_hash(graph: Graph | Iterable[Triple]) -> int:
    """A hash that is invariant under blank node renaming.

    Not a perfect canonicalisation (signature collisions are possible for
    pathological automorphic graphs) but adequate for caching and quick
    inequality checks; equal graphs always produce equal hashes.
    """
    triples = list(graph)
    signatures = bnode_signatures(triples)

    def term_key(term: Term) -> str:
        if isinstance(term, BNode):
            return "B:" + signatures.get(term, "")
        return term.n3()

    keys = sorted(
        f"{term_key(t.subject)}{term_key(t.predicate)}{term_key(t.object)}"
        for t in triples
    )
    return hash(tuple(keys))
