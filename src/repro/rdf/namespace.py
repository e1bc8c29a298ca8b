"""Namespaces, prefix management and the vocabularies used by the paper.

Provides:

* :class:`Namespace` -- build URIs by attribute or item access
  (``AKT.has_author`` / ``AKT["has-author"]``).
* :class:`NamespaceManager` -- bidirectional prefix <-> namespace mapping
  used by the Turtle/SPARQL serialisers to produce compact output.
* Constants for the vocabularies that appear in the paper: RDF, RDFS, OWL,
  XSD, FOAF, Dublin Core, voiD, the AKT reference ontology, the KISTI
  ontology, the sameas.org wrapper namespace and the alignment (``map:``)
  vocabulary of Section 3.2.2.
"""

from __future__ import annotations

from collections.abc import Iterator

from .terms import URIRef

__all__ = [
    "Namespace",
    "NamespaceManager",
    "RDF",
    "RDFS",
    "OWL",
    "XSD_NS",
    "FOAF",
    "DC",
    "VOID",
    "SKOS",
    "AKT",
    "KISTI",
    "DBPO",
    "MAP",
    "ALIGN_FN",
    "RKB_ID",
    "KISTI_ID",
    "DBPEDIA_RES",
    "DEFAULT_PREFIXES",
]


class Namespace:
    """A URI namespace that mints :class:`URIRef` terms.

    >>> AKT = Namespace("http://www.aktors.org/ontology/portal#")
    >>> AKT["has-author"]
    URIRef('http://www.aktors.org/ontology/portal#has-author')
    >>> AKT.Person
    URIRef('http://www.aktors.org/ontology/portal#Person')
    """

    __slots__ = ("_base",)

    def __init__(self, base: str) -> None:
        self._base = str(base)

    @property
    def base(self) -> str:
        """The namespace URI string."""
        return self._base

    def term(self, name: str) -> URIRef:
        """Mint the URI ``<base><name>``."""
        return URIRef(self._base + name)

    def __getitem__(self, name: str) -> URIRef:
        return self.term(name)

    def __getattr__(self, name: str) -> URIRef:
        if name.startswith("_"):
            raise AttributeError(name)
        return self.term(name)

    def __contains__(self, uri: object) -> bool:
        return isinstance(uri, URIRef) and str(uri).startswith(self._base)

    def local_name(self, uri: URIRef) -> str:
        """Return the part of ``uri`` after this namespace.

        Raises :class:`ValueError` when the URI is not in the namespace.
        """
        if uri not in self:
            raise ValueError(f"{uri} is not in namespace {self._base}")
        return str(uri)[len(self._base):]

    def __str__(self) -> str:
        return self._base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Namespace({self._base!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Namespace) and self._base == other._base

    def __hash__(self) -> int:
        return hash(("Namespace", self._base))


# --------------------------------------------------------------------------- #
# Standard vocabularies
# --------------------------------------------------------------------------- #
RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")
XSD_NS = Namespace("http://www.w3.org/2001/XMLSchema#")
FOAF = Namespace("http://xmlns.com/foaf/0.1/")
DC = Namespace("http://purl.org/dc/elements/1.1/")
VOID = Namespace("http://rdfs.org/ns/void#")
SKOS = Namespace("http://www.w3.org/2004/02/skos/core#")

# --------------------------------------------------------------------------- #
# Vocabularies from the paper's integration scenario
# --------------------------------------------------------------------------- #
#: AKT reference ontology used by the ReSIST / RKB explorer repositories.
AKT = Namespace("http://www.aktors.org/ontology/portal#")
#: KISTI research-reference ontology (target of the worked example).
KISTI = Namespace("http://www.kisti.re.kr/isrl/ResearchRefOntology#")
#: DBpedia ontology (target of the 42-alignment KB of Section 3.4).
DBPO = Namespace("http://dbpedia.org/ontology/")
#: Alignment vocabulary of the Turtle listing in Section 3.2.2.
MAP = Namespace("http://ecs.soton.ac.uk/om.owl#")
#: Namespace identifying data-manipulation functions (Section 3.2.2 notes
#: that functions are identified by URIs).
ALIGN_FN = Namespace("http://ecs.soton.ac.uk/om.owl#fn/")
#: Instance URI spaces of the three datasets in the scenario.
RKB_ID = Namespace("http://southampton.rkbexplorer.com/id/")
KISTI_ID = Namespace("http://kisti.rkbexplorer.com/id/")
DBPEDIA_RES = Namespace("http://dbpedia.org/resource/")

#: Prefix table installed by default on new :class:`NamespaceManager`s.
DEFAULT_PREFIXES: dict[str, Namespace] = {
    "rdf": RDF,
    "rdfs": RDFS,
    "owl": OWL,
    "xsd": XSD_NS,
    "foaf": FOAF,
    "dc": DC,
    "void": VOID,
    "skos": SKOS,
    "akt": AKT,
    "kisti": KISTI,
    "dbo": DBPO,
    "map": MAP,
    "id": RKB_ID,
    "kid": KISTI_ID,
    "dbr": DBPEDIA_RES,
}


class NamespaceManager:
    """Bidirectional prefix registry used for parsing and serialisation."""

    def __init__(self, install_defaults: bool = True) -> None:
        self._prefix_to_ns: dict[str, str] = {}
        self._ns_to_prefix: dict[str, str] = {}
        if install_defaults:
            for prefix, namespace in DEFAULT_PREFIXES.items():
                self.bind(prefix, namespace)

    def bind(self, prefix: str, namespace: Namespace | str, replace: bool = True) -> None:
        """Associate ``prefix`` with ``namespace``.

        When ``replace`` is false an existing binding for the prefix is
        kept and the call is a no-op.
        """
        base = str(namespace)
        if prefix in self._prefix_to_ns and not replace:
            return
        old = self._prefix_to_ns.get(prefix)
        if old is not None and self._ns_to_prefix.get(old) == prefix:
            del self._ns_to_prefix[old]
        self._prefix_to_ns[prefix] = base
        # Keep the first prefix registered for a namespace for serialisation.
        self._ns_to_prefix.setdefault(base, prefix)

    def namespace(self, prefix: str) -> str | None:
        """The namespace bound to ``prefix``, or ``None``."""
        return self._prefix_to_ns.get(prefix)

    def prefix(self, namespace: str) -> str | None:
        """The prefix bound to ``namespace``, or ``None``."""
        return self._ns_to_prefix.get(str(namespace))

    def expand(self, qname: str) -> URIRef:
        """Expand a ``prefix:local`` qualified name into a URI.

        Raises :class:`KeyError` if the prefix is unbound.
        """
        if ":" not in qname:
            raise ValueError(f"not a qualified name: {qname!r}")
        prefix, local = qname.split(":", 1)
        base = self._prefix_to_ns.get(prefix)
        if base is None:
            raise KeyError(f"unbound prefix: {prefix!r}")
        return URIRef(base + local)

    def compact(self, uri: URIRef) -> str | None:
        """Return ``prefix:local`` for the URI when a binding allows it.

        The local part must be a simple name (no ``/``, ``#`` or spaces);
        otherwise ``None`` is returned and the caller should emit the full
        ``<...>`` form.
        """
        value = str(uri)
        best: tuple[str, str] | None = None
        for base, prefix in self._ns_to_prefix.items():
            if value.startswith(base) and (best is None or len(base) > len(best[0])):
                best = (base, prefix)
        if best is None:
            return None
        base, prefix = best
        local = value[len(base):]
        if local and not _is_safe_local_name(local):
            return None
        return f"{prefix}:{local}"

    def namespaces(self) -> Iterator[tuple[str, str]]:
        """Iterate over ``(prefix, namespace)`` bindings."""
        return iter(sorted(self._prefix_to_ns.items()))

    def copy(self) -> NamespaceManager:
        """Return an independent copy of this manager."""
        clone = NamespaceManager(install_defaults=False)
        clone._prefix_to_ns = dict(self._prefix_to_ns)
        clone._ns_to_prefix = dict(self._ns_to_prefix)
        return clone

    def __len__(self) -> int:
        return len(self._prefix_to_ns)

    def __contains__(self, prefix: str) -> bool:
        return prefix in self._prefix_to_ns


def _is_safe_local_name(local: str) -> bool:
    if any(ch in local for ch in " <>\"{}|^`\\/#?"):
        return False
    return True
