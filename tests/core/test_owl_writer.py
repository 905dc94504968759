"""The direct OWL writer against the graph path it replaces.

``render_entities(..., "owl")`` writes RDF/XML straight from the
individuals; ``serialize_rdfxml(entities_to_graph(...))`` builds the RDF
graph first.  They must agree byte for byte, and fail with the same
:class:`RdfError` on the same input."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instances import AssembledEntity
from repro.core.instances.outputs import entities_to_graph, render_entities
from repro.errors import RdfError
from repro.ontology import Individual, Ontology, OntologySchema
from repro.rdf.rdfxml import serialize_rdfxml

SCHEMA = OntologySchema(Ontology("writer"))

_identifiers = st.sampled_from(
    ["watch_S_0", "watch_S_1", "provider_S_0", "provider_S_1", "thing_ü"])
_classes = st.sampled_from(["watch", "provider", "product"])
_names = st.sampled_from(["brand", "price", "case", "name", "hasProvider"])
_texts = st.text(alphabet=st.sampled_from('ab &<>"\'é日 \n\t\\'), max_size=8)
_scalars = st.one_of(
    _texts, st.just(""), st.booleans(), st.integers(-10**9, 10**9),
    st.floats(), st.dates(), st.datetimes())
_values = st.one_of(
    _scalars,
    # list values with duplicates, and the empty list
    st.lists(_scalars, max_size=4).map(lambda items: items + items[:2]))


@st.composite
def entity_lists(draw, names=_names, identifiers=_identifiers):
    pool = [Individual(draw(identifiers), draw(_classes),
                       draw(st.dictionaries(names, _values, max_size=4)))
            for _ in range(draw(st.integers(0, 6)))]
    for individual in pool:
        for _ in range(draw(st.integers(0, 2))):
            individual.link(draw(names), draw(st.sampled_from(pool)))
    entities = []
    if pool:
        # Satellites are drawn from the shared pool, so entities share
        # them and identifiers repeat across entities.
        for index in range(draw(st.integers(0, 4))):
            entities.append(AssembledEntity(
                draw(st.sampled_from(pool)),
                draw(st.lists(st.sampled_from(pool), max_size=3)),
                "S", index))
    return entities


def _outcome(render):
    try:
        return render()
    except RdfError as exc:
        return f"RdfError: {exc}"


def assert_same_document(entities):
    direct = _outcome(lambda: render_entities(SCHEMA, entities, "owl"))
    via_graph = _outcome(lambda: serialize_rdfxml(
        entities_to_graph(SCHEMA, entities)))
    assert direct == via_graph


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(entity_lists())
    def test_matches_graph_path(self, entities):
        assert_same_document(entities)

    @settings(max_examples=100, deadline=None)
    @given(entity_lists(
        names=st.sampled_from(["brand", "1st", "name", "a b"]),
        identifiers=st.sampled_from(["watch_S_0", "bad id", "w<1>"])))
    def test_errors_match_graph_path(self, entities):
        assert_same_document(entities)

    def test_empty_list(self):
        assert_same_document([])
        assert render_entities(SCHEMA, [], "owl").endswith("/>\n")

    def test_every_value_kind(self):
        shared = Individual("provider_S_0", "provider", {"name": "A & B"})
        watch = Individual("watch_S_0", "watch", {
            "brand": ['<"Seiko">', '<"Seiko">', "", "日本"],
            "price": 1.5, "case": 7, "name": True,
            "made": datetime.date(2006, 7, 4),
            "sold": datetime.datetime(2006, 7, 4, 10, 30),
            "empty": []})
        watch.link("hasProvider", shared)
        other = Individual("watch_S_1", "watch", {"brand": "Casio"})
        other.link("hasProvider", shared)
        entities = [AssembledEntity(watch, [shared], "S", 0),
                    AssembledEntity(other, [shared], "S", 1),
                    AssembledEntity(watch, [shared], "S", 0)]
        assert_same_document(entities)
        text = render_entities(SCHEMA, entities, "owl")
        assert text.count('rdf:about="http://example.org/s2s/ontology'
                          '#provider_S_0"') == 1
        assert "&lt;&quot;Seiko&quot;&gt;" not in text
        assert "&lt;\"Seiko\"&gt;" in text


class TestErrorParity:
    def test_forbidden_identifier_character(self):
        entities = [AssembledEntity(
            Individual("watch S 0", "watch", {"brand": "x"}), [], "S", 0)]
        with pytest.raises(RdfError, match="forbidden characters"):
            render_entities(SCHEMA, entities, "owl")
        assert_same_document(entities)

    def test_attribute_without_qname(self):
        entities = [AssembledEntity(
            Individual("watch_S_0", "watch", {"1st": "x"}), [], "S", 0)]
        with pytest.raises(RdfError, match="no namespace prefix"):
            render_entities(SCHEMA, entities, "owl")
        assert_same_document(entities)

    def test_unconvertible_value(self):
        entities = [AssembledEntity(
            Individual("watch_S_0", "watch", {"brand": {"a": 1}}), [], "S",
            0)]
        with pytest.raises(RdfError, match="cannot convert dict"):
            render_entities(SCHEMA, entities, "owl")
        assert_same_document(entities)
