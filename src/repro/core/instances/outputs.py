"""Output adapters (paper section 2.6).

"The S2S middleware supports the output format OWL, but other outputs can
easily be adapted to export plain text to XML, and so on."  Each adapter
renders a list of assembled entities:

* ``owl`` — OWL/RDF-XML, the default (ontology instances);
* ``turtle`` — the same graph in Turtle;
* ``ntriples`` — the same graph as N-Triples lines;
* ``xml`` — plain hierarchical XML mirroring the ontology structure (the
  "direct mapping … transforming the XML structure into the ontology
  structure" the paper describes);
* ``json`` — the XML structure as JSON objects;
* ``text`` — a human-readable listing.
"""

from __future__ import annotations

import json as _json
from datetime import date

from ...errors import InstanceGenerationError
from ...ontology.model import Individual
from ...ontology.owlxml import add_individual_triples
from ...rdf.graph import Graph
from ...rdf.namespace import RDF, Namespace, NamespaceManager
from ...rdf.rdfxml import Row, RdfXmlWriter, iri_row, literal_row
from ...rdf.terms import literal_parts
from ...rdf.turtle import serialize_turtle
from ...xmlkit import Document, Element, serialize_xml
from ...ontology.schema import OntologySchema
from .assembly import AssembledEntity

OUTPUT_FORMATS = ("owl", "turtle", "ntriples", "xml", "json", "text")

_RDF_TYPE = RDF.type.value


def _namespaces(namespace: Namespace) -> NamespaceManager:
    manager = NamespaceManager()
    manager.bind("onto", namespace)
    return manager


def entities_to_graph(schema: OntologySchema,
                      entities: list[AssembledEntity],
                      *, include_schema: bool = False) -> Graph:
    """Collect all individuals of the entities into one RDF graph.

    The first individual seen with an identifier describes it; later
    ones with the same identifier are skipped."""
    ontology = schema.ontology
    namespace = Namespace(ontology.base_iri)
    if include_schema:
        from ...ontology.owlxml import ontology_to_graph
        graph = ontology_to_graph(ontology, include_individuals=False)
    else:
        graph = Graph(namespace_manager=_namespaces(namespace))
    seen: set[str] = set()
    for entity in entities:
        for individual in entity.all_individuals():
            if individual.identifier in seen:
                continue
            seen.add(individual.identifier)
            add_individual_triples(graph, namespace, individual)
    return graph


def _render_owl(schema: OntologySchema,
                entities: list[AssembledEntity]) -> str:
    """RDF/XML written straight from the individuals.

    The same document as ``serialize_rdfxml(entities_to_graph(...))``,
    byte for byte, errors included — subjects sorted by IRI, each node's
    rows sorted and deduplicated as the graph's set would — without
    building the graph, its triples or a DOM."""
    namespace = Namespace(schema.ontology.base_iri)
    base = namespace.base
    checked: dict[str, str] = {}

    def iri(local: str) -> str:
        value = checked.get(local)
        if value is None:
            value = namespace.term(local).value  # RdfError if forbidden
            checked[local] = value
        return value

    nodes: dict[str, list[Row]] = {}
    for entity in entities:
        for individual in entity.all_individuals():
            if base + individual.identifier in nodes:
                continue
            subject = iri(individual.identifier)
            rows = [iri_row(_RDF_TYPE, iri(individual.class_name))]
            for name, value in individual.values.items():
                for item in (value if isinstance(value, list) else (value,)):
                    rows.append(literal_row(iri(name),
                                            *literal_parts(item)))
            for name, targets in individual.links.items():
                for target in targets:
                    rows.append(iri_row(iri(name), iri(target.identifier)))
            nodes[subject] = rows

    writer = RdfXmlWriter(_namespaces(namespace))
    for subject in sorted(nodes):
        writer.node(subject, sorted(set(nodes[subject])))
    return writer.document()


def _individual_element(individual: Individual,
                        rendered: set[str]) -> Element:
    element = Element(individual.class_name, {"id": individual.identifier})
    rendered.add(individual.identifier)
    for name in sorted(individual.values):
        value = individual.values[name]
        items = value if isinstance(value, list) else [value]
        for item in items:
            element.subelement(name, text=_scalar_text(item))
    for name in sorted(individual.links):
        for target in individual.links[name]:
            link = element.subelement(name)
            if target.identifier in rendered:
                link.attributes["ref"] = target.identifier
            else:
                link.append(_individual_element(target, rendered))
    return element


def _scalar_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def render_entities(schema: OntologySchema, entities: list[AssembledEntity],
                    format: str = "owl") -> str:
    """Serialize entities in one of :data:`OUTPUT_FORMATS`."""
    if format == "owl":
        return _render_owl(schema, entities)
    if format == "turtle":
        return serialize_turtle(entities_to_graph(schema, entities))
    if format == "ntriples":
        from ...rdf.ntriples import serialize_ntriples
        return serialize_ntriples(entities_to_graph(schema, entities))
    if format == "xml":
        root = Element("results", {"count": str(len(entities))})
        rendered: set[str] = set()
        for entity in entities:
            root.append(_individual_element(entity.primary, rendered))
        return serialize_xml(Document(root))
    if format == "json":
        return _json.dumps([_entity_dict(entity) for entity in entities],
                           indent=2, sort_keys=True, default=_json_value)
    if format == "text":
        lines: list[str] = []
        for entity in entities:
            lines.append(f"{entity.primary.class_name} "
                         f"[{entity.primary.identifier}] "
                         f"(source: {entity.source_id})")
            for name in sorted(entity.primary.values):
                lines.append(f"  {name} = "
                             f"{_scalar_text(entity.primary.values[name])}")
            for satellite in entity.satellites:
                lines.append(f"  -> {satellite.class_name} "
                             f"[{satellite.identifier}]")
                for name in sorted(satellite.values):
                    lines.append(
                        f"     {name} = "
                        f"{_scalar_text(satellite.values[name])}")
        return "\n".join(lines) + ("\n" if lines else "")
    raise InstanceGenerationError(
        f"unsupported output format {format!r}; expected one of "
        f"{OUTPUT_FORMATS}")


def _json_value(value) -> str:
    """JSON text for values ``json`` has no type for: dates and
    date-times as their ISO lexical form, as in the OWL literal."""
    if isinstance(value, date):
        return value.isoformat()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON "
                    "serializable")


def _entity_dict(entity: AssembledEntity) -> dict:
    def individual_dict(individual: Individual) -> dict:
        body: dict = {"id": individual.identifier,
                      "class": individual.class_name}
        body.update({name: individual.values[name]
                     for name in sorted(individual.values)})
        for name in sorted(individual.links):
            body[name] = [individual_dict(target)
                          for target in individual.links[name]]
        return body

    record = individual_dict(entity.primary)
    record["_source"] = entity.source_id
    return record
