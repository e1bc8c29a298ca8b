"""Local co-reference resolution service (stand-in for sameas.org).

The paper's ``sameas(x, regex)`` data-manipulation function wraps the
sameas.org REST service: given a URI it returns the equivalent URI (under
``owl:sameAs``) that matches a regular expression describing the target
dataset's URI space, and returns the input unchanged when the input is an
unbounded variable.  Formally (Section 3.3.1)::

    sameas(x, y) = x                          if x is unbounded
                 = z  with z in [x] and z ~ y otherwise

where ``[x]`` is the owl:sameAs equivalence class of ``x``.

:class:`SameAsService` implements the store behind that function: an
equivalence-class registry populated from ``owl:sameAs`` links (explicit
pairs or an RDF graph), with regex-filtered lookup.  It is deliberately
local and deterministic so experiments are reproducible offline.
"""

from __future__ import annotations

import re
import threading
from collections.abc import Iterable

from ..rdf import Graph, OWL, URIRef
from .unionfind import UnionFind

__all__ = ["SameAsService", "CoReferenceError"]


class CoReferenceError(KeyError):
    """Raised when a strict lookup finds no equivalent URI."""


class SameAsService:
    """An in-memory co-reference (owl:sameAs) bundle store."""

    def __init__(self) -> None:
        self._bundles: UnionFind[URIRef] = UnionFind()
        self._generation = 0
        # Lookup patterns repeat endlessly (one per target dataset), so
        # compile each once; guarded together with the counters because the
        # federation layer calls into the service from worker threads.
        self._patterns: dict[str, re.Pattern[str]] = {}
        self._lock = threading.RLock()

    @property
    def generation(self) -> int:
        """Monotonic counter bumped by every mutation.

        Rewrite results depend on the co-reference store (the ``sameas``
        functional dependency and FILTER URI translation), so caches key
        on this value alongside the alignment KB generation.
        """
        return self._generation

    # ------------------------------------------------------------------ #
    # Population
    # ------------------------------------------------------------------ #
    def add_equivalence(self, left: URIRef, right: URIRef) -> None:
        """Assert that two URIs denote the same entity."""
        if not isinstance(left, URIRef) or not isinstance(right, URIRef):
            raise TypeError("sameAs equivalences must relate URIs")
        with self._lock:
            self._bundles.union(left, right)
            self._generation += 1

    def add_bundle(self, uris: Iterable[URIRef]) -> None:
        """Assert that every URI in ``uris`` denotes the same entity."""
        uris = list(uris)
        for uri in uris[1:]:
            self.add_equivalence(uris[0], uri)
        if len(uris) == 1:
            with self._lock:
                self._bundles.add(uris[0])
                self._generation += 1

    def load_graph(self, graph: Graph) -> int:
        """Import every ``owl:sameAs`` triple from an RDF graph.

        Returns the number of links imported.
        """
        count = 0
        for triple in graph.triples(None, OWL.sameAs, None):
            if isinstance(triple.subject, URIRef) and isinstance(triple.object, URIRef):
                self.add_equivalence(triple.subject, triple.object)
                count += 1
        return count

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def equivalence_class(self, uri: URIRef) -> set[URIRef]:
        """The bundle ``[uri]`` (always contains ``uri`` itself)."""
        return set(self._bundles.members(uri)) | {uri}

    def lookup(self, uri: URIRef, pattern: str) -> URIRef | None:
        """The equivalent of ``uri`` whose string matches ``pattern``.

        ``pattern`` is a regular expression anchored at the start of the
        URI (the paper uses prefix patterns such as
        ``http://kisti.rkbexplorer.com/id/\\S*``).  When several members
        match, the lexicographically smallest is returned so results are
        deterministic.  Returns ``None`` when no member matches.
        """
        compiled = self._compiled(pattern)
        candidates = [
            member
            for member in self.equivalence_class(uri)
            if compiled.match(str(member))
        ]
        if not candidates:
            return None
        return sorted(candidates, key=str)[0]

    def _compiled(self, pattern: str) -> re.Pattern[str]:
        """The compiled form of ``pattern``, cached per service instance."""
        compiled = self._patterns.get(pattern)
        if compiled is None:
            compiled = re.compile(pattern)
            with self._lock:
                self._patterns.setdefault(pattern, compiled)
        return compiled

    def lookup_strict(self, uri: URIRef, pattern: str) -> URIRef:
        """Like :meth:`lookup` but raising :class:`CoReferenceError` on a miss."""
        result = self.lookup(uri, pattern)
        if result is None:
            raise CoReferenceError(f"no equivalent of {uri} matching {pattern!r}")
        return result

    def translate_or_keep(self, uri: URIRef, pattern: str) -> URIRef:
        """The matching equivalent when one exists, else ``uri`` unchanged.

        This is the behaviour the rewriting algorithm needs for ground URIs
        that have no counterpart in the target dataset: leaving the URI
        untouched yields an unsatisfiable pattern on the target endpoint
        (an empty result) rather than an error, mirroring the original
        system.
        """
        return self.lookup(uri, pattern) or uri

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def bundles(self) -> list[set[URIRef]]:
        """All equivalence classes with at least one member."""
        return self._bundles.classes()

    def bundle_count(self) -> int:
        return len(self.bundles())

    def uri_count(self) -> int:
        return len(self._bundles)

    def statistics(self) -> dict[str, float]:
        """Summary statistics of the bundle store."""
        bundles = self.bundles()
        sizes = [len(bundle) for bundle in bundles] or [0]
        return {
            "uris": self.uri_count(),
            "bundles": len(bundles),
            "largest_bundle": max(sizes),
            "mean_bundle_size": sum(sizes) / len(sizes) if bundles else 0.0,
        }

    def __len__(self) -> int:
        return self.uri_count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SameAsService {self.uri_count()} URIs in {self.bundle_count()} bundles>"
