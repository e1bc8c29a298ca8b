"""Alignment model of Correndo et al. (Section 3.2).

Exports the entity/ontology alignment classes, the functional-dependency
function registry, the RDF (reification) encoding, expressivity-level
builders and the alignment knowledge base used by the mediator.
"""

from .functions import (
    CELSIUS_TO_FAHRENHEIT_FUNCTION,
    CONCAT_FUNCTION,
    FunctionExecutionError,
    FunctionNotFound,
    FunctionRegistry,
    KM_TO_MILES_FUNCTION,
    LOWERCASE_FUNCTION,
    MILES_TO_KM_FUNCTION,
    SAMEAS_FUNCTION,
    SPLIT_FIRST_FUNCTION,
    SPLIT_LAST_FUNCTION,
    UPPERCASE_FUNCTION,
    URI_PREFIX_SWAP_FUNCTION,
    default_registry,
    make_sameas,
)
from .levels import (
    class_alignment,
    class_to_intersection_alignment,
    class_to_value_partition_alignment,
    classify_level,
    property_alignment,
    property_chain_alignment,
)
from .inverse import (
    AlignmentInversionError,
    InversionReport,
    invert_entity_alignment,
    invert_ontology_alignment,
)
from .model import AlignmentError, EntityAlignment, FunctionalDependency, OntologyAlignment
from .rdf_io import (
    AlignmentGraphReader,
    AlignmentGraphWriter,
    alignments_from_graph,
    alignments_from_turtle,
    alignments_to_graph,
    alignments_to_turtle,
    ontology_alignment_to_graph,
    ontology_alignments_from_graph,
)
from .store import AlignmentStore

__all__ = [
    # model
    "EntityAlignment", "FunctionalDependency", "OntologyAlignment", "AlignmentError",
    # inversion
    "AlignmentInversionError", "InversionReport",
    "invert_entity_alignment", "invert_ontology_alignment",
    # functions
    "FunctionRegistry", "FunctionNotFound", "FunctionExecutionError",
    "default_registry", "make_sameas",
    "SAMEAS_FUNCTION", "URI_PREFIX_SWAP_FUNCTION", "CONCAT_FUNCTION",
    "SPLIT_FIRST_FUNCTION", "SPLIT_LAST_FUNCTION", "KM_TO_MILES_FUNCTION",
    "MILES_TO_KM_FUNCTION", "CELSIUS_TO_FAHRENHEIT_FUNCTION",
    "LOWERCASE_FUNCTION", "UPPERCASE_FUNCTION",
    # levels
    "class_alignment", "property_alignment", "class_to_intersection_alignment",
    "class_to_value_partition_alignment", "property_chain_alignment", "classify_level",
    # RDF I/O
    "AlignmentGraphWriter", "AlignmentGraphReader",
    "alignments_to_graph", "alignments_from_graph",
    "ontology_alignment_to_graph", "ontology_alignments_from_graph",
    "alignments_to_turtle", "alignments_from_turtle",
    # store
    "AlignmentStore",
]
