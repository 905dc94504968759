"""RDF/XML serializer and parser.

RDF/XML is the concrete syntax OWL documents were exchanged in at the time
of the paper, so this is the default output format of the Instance
Generator.  The serializer emits typed node elements (one per subject, using
the subject's ``rdf:type`` when it can be compacted to a qualified name) and
property elements with ``rdf:resource`` references, ``rdf:datatype`` typed
literals or ``xml:lang`` tagged literals.  The parser accepts the striped
syntax produced here plus the common authoring variants (``rdf:Description``
nodes, ``rdf:ID``, ``rdf:nodeID``, nested node elements).
"""

from __future__ import annotations

from ..errors import RdfError, RdfSyntaxError, XmlSyntaxError
from ..xmlkit import Document, Element, parse_xml, serialize_xml
from .graph import Graph
from .namespace import NamespaceManager, RDF
from .terms import IRI, BlankNode, Literal, Object, Subject

_RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_XML_NS = "http://www.w3.org/XML/1998/namespace"

#: Deepest chain of nested node elements (node → property → node …)
#: accepted; deeper documents raise RdfSyntaxError.
MAX_NODE_DEPTH = 100


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------

class RdfXmlSerializer:
    """Serialize a :class:`Graph` to an RDF/XML string."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._manager = graph.namespace_manager

    def serialize(self) -> str:
        """Render the graph as an RDF/XML document string."""
        root = Element("rdf:RDF", namespace=_RDF_NS)
        used_prefixes = {"rdf"}
        body_nodes: list[Element] = []

        subjects = sorted(
            {t.subject for t in self._graph},
            key=lambda s: (isinstance(s, BlankNode), str(s)))
        described_inline: set[Subject] = set()
        for subject in subjects:
            if subject in described_inline:
                continue
            node = self._describe(subject, used_prefixes)
            body_nodes.append(node)

        for prefix, base in sorted(self._manager.namespaces()):
            if prefix in used_prefixes:
                root.attributes[f"xmlns:{prefix}"] = base
        root.attributes.setdefault("xmlns:rdf", _RDF_NS)
        for node in body_nodes:
            root.append(node)
        return serialize_xml(Document(root))

    def _qname(self, iri: IRI, used_prefixes: set[str]) -> str | None:
        compact = self._manager.compact(iri)
        if compact is None or compact.endswith(":"):
            return None
        prefix = compact.split(":", 1)[0]
        used_prefixes.add(prefix)
        return compact

    def _describe(self, subject: Subject, used_prefixes: set[str]) -> Element:
        triples = sorted(self._graph.triples(subject, None, None),
                         key=lambda t: (t.predicate.value, t.object.n3()))
        type_iri: IRI | None = None
        for triple in triples:
            if triple.predicate == RDF.type and isinstance(triple.object, IRI):
                qname = self._qname(triple.object, used_prefixes)
                if qname is not None:
                    type_iri = triple.object
                    break

        if type_iri is not None:
            tag = self._qname(type_iri, used_prefixes)
            node = Element(tag or "rdf:Description")
        else:
            node = Element("rdf:Description")

        if isinstance(subject, IRI):
            node.attributes["rdf:about"] = subject.value
        else:
            node.attributes["rdf:nodeID"] = subject.label

        for triple in triples:
            if triple.predicate == RDF.type and triple.object == type_iri:
                continue
            node.append(self._property(triple.predicate, triple.object,
                                       used_prefixes))
        return node

    def _property(self, predicate: IRI, obj: Object,
                  used_prefixes: set[str]) -> Element:
        tag = self._qname(predicate, used_prefixes)
        if tag is None:
            raise RdfError(
                f"cannot serialize predicate {predicate} to RDF/XML: no "
                "namespace prefix is bound for it")
        element = Element(tag)
        if isinstance(obj, IRI):
            element.attributes["rdf:resource"] = obj.value
        elif isinstance(obj, BlankNode):
            element.attributes["rdf:nodeID"] = obj.label
        else:
            if obj.datatype is not None:
                element.attributes["rdf:datatype"] = obj.datatype.value
            if obj.language is not None:
                element.attributes["xml:lang"] = obj.language
            element.append_text(obj.lexical)
        return element


def serialize_rdfxml(graph: Graph) -> str:
    """Serialize ``graph`` to RDF/XML."""
    return RdfXmlSerializer(graph).serialize()


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class RdfXmlParser:
    """Parse an RDF/XML document into a :class:`Graph`."""

    def __init__(self) -> None:
        self._bnodes: dict[str, BlankNode] = {}

    def parse(self, text: str, graph: Graph | None = None) -> Graph:
        """Parse RDF/XML text into ``graph`` (or a fresh one)."""
        try:
            document = parse_xml(text)
        except XmlSyntaxError as exc:
            raise RdfSyntaxError(f"malformed RDF/XML: {exc}") from exc
        graph = graph if graph is not None else Graph(
            namespace_manager=NamespaceManager())
        self._graph = graph
        self._register_namespaces(document.root)
        root = document.root
        if root.namespace == _RDF_NS and self._local(root) == "RDF":
            for child in root.element_children():
                self._node_element(child, 1)
        else:
            self._node_element(root, 1)
        return graph

    def _register_namespaces(self, root: Element) -> None:
        for name, value in root.attributes.items():
            if name.startswith("xmlns:"):
                try:
                    self._graph.namespace_manager.bind(name[6:], value)
                except RdfError:
                    pass  # conflicting redeclarations keep the first binding

    @staticmethod
    def _local(element: Element) -> str:
        return element.name.rpartition(":")[2]

    def _resolve_name(self, element: Element) -> IRI:
        if element.namespace:
            return IRI(element.namespace + self._local(element))
        raise RdfSyntaxError(
            f"element {element.name!r} has no namespace; RDF/XML requires "
            "namespace-qualified names")

    def _subject_of(self, element: Element) -> Subject:
        about = element.get("rdf:about")
        if about is not None:
            return IRI(about)
        rdf_id = element.get("rdf:ID")
        if rdf_id is not None:
            return IRI("#" + rdf_id)
        node_id = element.get("rdf:nodeID")
        if node_id is not None:
            return self._bnode(node_id)
        return BlankNode()

    def _bnode(self, label: str) -> BlankNode:
        if label not in self._bnodes:
            self._bnodes[label] = BlankNode()
        return self._bnodes[label]

    def _node_element(self, element: Element, depth: int) -> Subject:
        if depth > MAX_NODE_DEPTH:
            raise RdfSyntaxError(
                f"node elements nested deeper than {MAX_NODE_DEPTH}")
        subject = self._subject_of(element)
        name = self._resolve_name(element)
        if not (element.namespace == _RDF_NS and self._local(element) == "Description"):
            self._graph.add(subject, RDF.type, name)
        # Attribute shorthand: non-rdf attributes are literal properties.
        for attr, value in element.attributes.items():
            if attr.startswith(("rdf:", "xmlns", "xml:")):
                continue
            prefix, _, local = attr.rpartition(":")
            if prefix:
                predicate = self._graph.namespace_manager.expand(attr)
                self._graph.add(subject, predicate, Literal(value))
        for child in element.element_children():
            self._property_element(subject, child, depth)
        return subject

    def _property_element(self, subject: Subject, element: Element,
                          depth: int) -> None:
        predicate = self._resolve_name(element)
        resource = element.get("rdf:resource")
        if resource is not None:
            self._graph.add(subject, predicate, IRI(resource))
            return
        node_id = element.get("rdf:nodeID")
        if node_id is not None:
            self._graph.add(subject, predicate, self._bnode(node_id))
            return
        children = element.element_children()
        if children:
            if len(children) != 1:
                raise RdfSyntaxError(
                    f"property element {element.name!r} must contain exactly "
                    "one node element")
            nested = self._node_element(children[0], depth + 1)
            self._graph.add(subject, predicate, nested)
            return
        datatype = element.get("rdf:datatype")
        language = element.get("xml:lang")
        lexical = element.text_content()
        if datatype is not None:
            literal = Literal(lexical, IRI(datatype))
        elif language is not None:
            literal = Literal(lexical, language=language)
        else:
            literal = Literal(lexical)
        self._graph.add(subject, predicate, literal)


def parse_rdfxml(text: str) -> Graph:
    """Parse an RDF/XML document into a fresh graph."""
    return RdfXmlParser().parse(text)
