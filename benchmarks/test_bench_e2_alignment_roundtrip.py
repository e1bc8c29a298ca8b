"""E2 — Figure 2 + the Section 3.2.2 Turtle listing: the entity alignment.

The paper presents the ``akt:has-author`` → ``kisti:hasCreatorInfo /
hasCreator`` alignment twice: as the graphical rewriting rule of Figure 2
and as its RDF encoding (reified statements + an ``rdf:List`` of functional
dependency parameters).  This benchmark rebuilds the alignment, serialises
it to the RDF encoding, parses it back and checks that nothing is lost.
"""

from repro.alignment import (
    alignments_from_graph,
    alignments_to_graph,
    alignments_to_turtle,
    classify_level,
)
from repro.rdf import MAP, RDF
from tests.alignment.validation import structurally_equivalent

from .conftest import report


def test_bench_e2_rdf_roundtrip(benchmark, worked_example_alignment):
    def roundtrip():
        graph = alignments_to_graph([worked_example_alignment])
        return graph, alignments_from_graph(graph)

    graph, restored = benchmark(roundtrip)

    assert len(restored) == 1
    assert structurally_equivalent(restored[0], worked_example_alignment)

    statement_nodes = list(graph.subjects(RDF.type, RDF.Statement))
    alignment_nodes = list(graph.subjects(RDF.type, MAP.EntityAlignment))
    report(
        "E2: Figure 2 alignment, RDF encoding round trip",
        [
            ("LHS patterns", len(worked_example_alignment.lhs.as_tuple()) // 3),
            ("RHS patterns", len(worked_example_alignment.rhs)),
            ("functional dependencies", len(worked_example_alignment.functional_dependencies)),
            ("expressivity level", classify_level(worked_example_alignment)),
            ("map:EntityAlignment nodes", len(alignment_nodes)),
            ("reified rdf:Statement nodes", len(statement_nodes)),
            ("triples in RDF encoding", len(graph)),
            ("round trip preserved", structurally_equivalent(restored[0], worked_example_alignment)),
        ],
        headers=("quantity", "value"),
    )


def test_bench_e2_turtle_listing(benchmark, worked_example_alignment):
    """The Turtle rendering mirrors the structure of the paper's listing."""
    text = benchmark(alignments_to_turtle, [worked_example_alignment])
    assert "map:EntityAlignment" in text
    assert "map:lhs" in text
    assert "map:rhs" in text
    assert "map:hasFunctionalDependency" in text
    assert "rdf:Statement" in text
    # One reified statement per LHS (1), RHS (2) and FD (2) entry.
    assert text.count("rdf:subject") == 5
    assert text.count("rdf:predicate") == 5
