"""Turtle and N-Triples syntax support (parsers and serialisers)."""


from ..rdf import Graph
from .lexer import Token, TurtleLexError, tokenize
from .ntriples import (
    NTriplesError,
    iter_ntriples,
    parse_ntriples,
    serialize_ntriples,
)
from .parser import TurtleParseError, TurtleParser, parse_turtle
from .serializer import TurtleSerializer, serialize_turtle

__all__ = [
    "Token",
    "TurtleLexError",
    "tokenize",
    "TurtleParser",
    "TurtleParseError",
    "parse_turtle",
    "TurtleSerializer",
    "serialize_turtle",
    "NTriplesError",
    "parse_ntriples",
    "iter_ntriples",
    "serialize_ntriples",
    "parse_graph",
    "serialize_graph",
]


def parse_graph(text: str, format: str = "turtle") -> Graph:
    """Parse RDF text in ``turtle`` or ``ntriples`` format."""
    normalized = format.lower().replace("-", "").replace("_", "")
    if normalized in ("turtle", "ttl"):
        return parse_turtle(text)
    if normalized in ("ntriples", "nt"):
        return parse_ntriples(text)
    raise ValueError(f"unsupported RDF format: {format!r}")


def serialize_graph(graph: Graph, format: str = "turtle") -> str:
    """Serialise a graph to ``turtle`` or ``ntriples`` text."""
    normalized = format.lower().replace("-", "").replace("_", "")
    if normalized in ("turtle", "ttl"):
        return serialize_turtle(graph)
    if normalized in ("ntriples", "nt"):
        return serialize_ntriples(graph)
    raise ValueError(f"unsupported RDF format: {format!r}")
