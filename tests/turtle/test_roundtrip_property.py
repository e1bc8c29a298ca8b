"""Property-based round-trip tests for the RDF syntax layer.

Invariant: any graph assembled from well-formed terms survives a
serialise/parse round trip (Turtle and N-Triples) up to blank-node
renaming.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.rdf import BNode, Graph, Literal, Triple, URIRef
from repro.turtle import parse_ntriples, parse_turtle, serialize_ntriples, serialize_turtle
from tests.isomorphism import isomorphic

_NAMES = st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=8)


@st.composite
def uris(draw):
    return URIRef("http://example.org/" + draw(_NAMES))


@st.composite
def literals(draw):
    kind = draw(st.sampled_from(["plain", "lang", "int", "double", "text"]))
    if kind == "plain":
        return Literal(draw(st.text(min_size=0, max_size=20).filter(lambda s: "\x00" not in s)))
    if kind == "lang":
        return Literal(draw(_NAMES), lang=draw(st.sampled_from(["en", "fr", "de", "ko"])))
    if kind == "int":
        return Literal(draw(st.integers(min_value=-10**6, max_value=10**6)))
    if kind == "double":
        return Literal(draw(st.floats(allow_nan=False, allow_infinity=False, width=32)))
    return Literal(draw(st.text(alphabet=string.printable, max_size=30)))


@st.composite
def bnodes(draw):
    return BNode("b" + draw(_NAMES))


@st.composite
def triples(draw):
    subject = draw(st.one_of(uris(), bnodes()))
    predicate = draw(uris())
    obj = draw(st.one_of(uris(), bnodes(), literals()))
    return Triple(subject, predicate, obj)


@st.composite
def graphs(draw):
    graph = Graph()
    for triple in draw(st.lists(triples(), min_size=0, max_size=12)):
        graph.add(triple)
    return graph


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_ntriples_roundtrip(graph):
    text = serialize_ntriples(graph)
    assert isomorphic(parse_ntriples(text), graph)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_turtle_roundtrip(graph):
    text = serialize_turtle(graph)
    assert isomorphic(parse_turtle(text), graph)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_cross_format_roundtrip(graph):
    """Turtle -> graph -> N-Triples -> graph preserves the graph."""
    via_turtle = parse_turtle(serialize_turtle(graph))
    via_ntriples = parse_ntriples(serialize_ntriples(via_turtle))
    assert isomorphic(via_ntriples, graph)
