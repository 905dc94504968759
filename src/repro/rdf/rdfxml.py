"""RDF/XML serializer and parser.

RDF/XML is the concrete syntax OWL documents were exchanged in at the time
of the paper, so this is the default output format of the Instance
Generator.  The serializer emits typed node elements (one per subject, using
the subject's ``rdf:type`` when it can be compacted to a qualified name) and
property elements with ``rdf:resource`` references, ``rdf:datatype`` typed
literals or ``xml:lang`` tagged literals, written line by line by
:class:`RdfXmlWriter` — the one emitter behind both :func:`serialize_rdfxml`
and the Instance Generator's direct OWL writer.  The parser accepts the striped
syntax produced here plus the common authoring variants (``rdf:Description``
nodes, ``rdf:ID``, ``rdf:nodeID``, nested node elements).
"""

from __future__ import annotations

from ..errors import RdfError, RdfSyntaxError, XmlSyntaxError
from ..xmlkit import Element, parse_xml
from ..xmlkit.serializer import escape_attr, escape_text
from .graph import Graph
from .namespace import NamespaceManager, RDF
from .terms import (IRI, BlankNode, Literal, Object, Subject, literal_n3,
                    literal_parts)

_RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_XML_NS = "http://www.w3.org/XML/1998/namespace"
_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>'

#: Deepest chain of nested node elements (node → property → node …)
#: accepted; deeper documents raise RdfSyntaxError.
MAX_NODE_DEPTH = 100


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------

_RDF_TYPE = RDF.type.value

#: Object kinds of a property row; the non-literal ones are also the
#: ``rdf:`` attribute naming the object.
_RESOURCE, _NODE_ID, _LITERAL = "resource", "nodeID", "literal"

#: One property of a node: (predicate IRI, object in N-Triples form,
#: object kind, IRI / blank-node label / lexical form, datatype IRI,
#: language tag).  The first two fields order a node's rows and, since
#: the N-Triples form is unique per object, identify the triple.
Row = tuple[str, str, str, str, str | None, str | None]


def iri_row(predicate: str, iri: str) -> Row:
    """A property row whose object is an IRI."""
    return (predicate, f"<{iri}>", _RESOURCE, iri, None, None)


def literal_row(predicate: str, lexical: str, datatype: str | None = None,
                language: str | None = None) -> Row:
    """A property row whose object is a literal."""
    return (predicate, literal_n3(lexical, datatype, language), _LITERAL,
            lexical, datatype, language)


def _term_row(predicate: IRI, obj: Object) -> Row:
    if isinstance(obj, IRI):
        return iri_row(predicate.value, obj.value)
    if isinstance(obj, BlankNode):
        return (predicate.value, obj.n3(), _NODE_ID, obj.label, None, None)
    return literal_row(predicate.value, *literal_parts(obj))


class RdfXmlWriter:
    """The RDF/XML line emitter behind every RDF/XML document written.

    Feed it one node per subject, in document order, each with its rows
    sorted; :meth:`document` then returns the text.  A node is a typed
    node element when one of its ``rdf:type`` objects has a qualified
    name (that type becomes the tag and is not repeated as a property),
    otherwise ``rdf:Description``; the root declares exactly the
    prefixes the written names use."""

    def __init__(self, manager: NamespaceManager) -> None:
        self._manager = manager
        self._qnames: dict[str, tuple[str, str] | None] = {}
        self._used = {"rdf"}
        self._lines: list[str] = []

    def _qname(self, iri: str) -> str | None:
        try:
            entry = self._qnames[iri]
        except KeyError:
            compact = self._manager.compact(IRI(iri))
            entry = (None if compact is None or compact.endswith(":")
                     else (compact, compact.split(":", 1)[0]))
            self._qnames[iri] = entry
        if entry is None:
            return None
        self._used.add(entry[1])
        return entry[0]

    def node(self, subject: str, rows: list[Row], *,
             blank: bool = False) -> None:
        """Write one node: ``subject`` is an IRI (a blank-node label when
        ``blank``), ``rows`` its properties sorted by (predicate IRI,
        object N-Triples form)."""
        type_iri = None
        for predicate, _order, kind, value, _datatype, _language in rows:
            if (predicate == _RDF_TYPE and kind == _RESOURCE
                    and self._qname(value) is not None):
                type_iri = value
                break
        tag = (self._qname(type_iri) if type_iri is not None
               else "rdf:Description")
        about = "rdf:nodeID" if blank else "rdf:about"
        head = f'  <{tag} {about}="{escape_attr(subject)}"'
        lines = self._lines
        first = len(lines)
        lines.append(head)
        for predicate, _order, kind, value, datatype, language in rows:
            if (kind == _RESOURCE and value == type_iri
                    and predicate == _RDF_TYPE):
                continue
            name = self._qname(predicate)
            if name is None:
                raise RdfError(
                    f"cannot serialize predicate {predicate} to RDF/XML: "
                    "no namespace prefix is bound for it")
            if kind != _LITERAL:
                lines.append(
                    f'    <{name} rdf:{kind}="{escape_attr(value)}"/>')
                continue
            attributes = ""
            if datatype is not None:
                attributes = f' rdf:datatype="{escape_attr(datatype)}"'
            if language is not None:
                attributes += f' xml:lang="{escape_attr(language)}"'
            lines.append(
                f"    <{name}{attributes}>{escape_text(value)}</{name}>")
        if len(lines) == first + 1:
            lines[first] = head + "/>"
        else:
            lines[first] = head + ">"
            lines.append(f"  </{tag}>")

    def document(self) -> str:
        """The complete document for every node written so far."""
        namespaces = {f"xmlns:{prefix}": base
                      for prefix, base in self._manager.namespaces()
                      if prefix in self._used}
        namespaces.setdefault("xmlns:rdf", _RDF_NS)
        root = "<rdf:RDF" + "".join(
            f' {name}="{escape_attr(base)}"'
            for name, base in namespaces.items())
        if not self._lines:
            return f'{_DECLARATION}\n{root}/>\n'
        return "\n".join([_DECLARATION, root + ">", *self._lines,
                          "</rdf:RDF>"]) + "\n"


class RdfXmlSerializer:
    """Serialize a :class:`Graph` to an RDF/XML string."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph

    def serialize(self) -> str:
        """Render the graph as an RDF/XML document string: subjects
        sorted IRIs first, then blank nodes."""
        writer = RdfXmlWriter(self._graph.namespace_manager)
        subjects = sorted(
            {t.subject for t in self._graph},
            key=lambda s: (isinstance(s, BlankNode), str(s)))
        for subject in subjects:
            rows = sorted(_term_row(t.predicate, t.object)
                          for t in self._graph.triples(subject, None, None))
            if isinstance(subject, BlankNode):
                writer.node(subject.label, rows, blank=True)
            else:
                writer.node(subject.value, rows)
        return writer.document()


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
