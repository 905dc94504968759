"""Record-to-individual assembly.

One aligned source record (attribute ID → raw value) may describe several
related entities at once — the paper's watch page carries the watch's
``brand``/``case`` *and* its provider's ``name``.  The assembler:

1. resolves each attribute path to its owning ontology class;
2. clusters classes that lie on one subclass chain into the most specific
   class (``product`` + ``watch`` attributes → one ``watch`` individual);
3. creates one individual per cluster, coercing raw strings to the
   attribute's declared XSD range;
4. links clusters through the ontology's object properties (the
   ``hasProvider`` edge of Figure 2).

The cluster containing the query class (or a subclass of it) is the
*primary* entity — the thing the query's WHERE conditions apply to.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from ...errors import InstanceGenerationError, ValidationError
from ...ids import AttributePath
from ...ontology.model import Individual
from ...ontology.reasoner import Reasoner, range_coercer
from ...ontology.schema import OntologySchema


@dataclass
class AssembledEntity:
    """A primary individual plus the linked satellites built from one record."""

    primary: Individual
    satellites: list[Individual] = field(default_factory=list)
    source_id: str = ""
    record_index: int = 0
    coercion_errors: list[str] = field(default_factory=list)

    def all_individuals(self) -> list[Individual]:
        """Primary + satellites in one list."""
        return [self.primary, *self.satellites]

    def value(self, attribute: str, default=None):
        """Attribute lookup across primary and satellites."""
        if attribute in self.primary.values:
            return self.primary.values[attribute]
        for satellite in self.satellites:
            if attribute in satellite.values:
                return satellite.values[attribute]
        return default

    def clone(self) -> "AssembledEntity":
        """An independent deep copy.

        The merge step and condition filtering mutate entities in place
        (value back-fill, satellite adoption), so anything stored for
        reuse — the semantic store — must hand out copies.  Links are
        remapped so a clone's individuals reference each other, never
        the originals."""
        copies: dict[int, Individual] = {}
        for individual in self.all_individuals():
            copies[id(individual)] = Individual(
                individual.identifier, individual.class_name,
                {name: (list(value) if isinstance(value, list) else value)
                 for name, value in individual.values.items()})
        for individual in self.all_individuals():
            copy = copies[id(individual)]
            for name, targets in individual.links.items():
                copy.links[name] = [
                    copies.get(id(target), target) for target in targets]
        return AssembledEntity(
            copies[id(self.primary)],
            [copies[id(satellite)] for satellite in self.satellites],
            self.source_id, self.record_index,
            list(self.coercion_errors))


@functools.lru_cache(maxsize=1024)
def _safe_source(source_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "_", source_id)


def _identifier(class_name: str, source_id: str, index: int) -> str:
    return f"{class_name}_{_safe_source(source_id)}_{index}"


@dataclass(frozen=True)
class _Layout:
    """How records whose values belong to one tuple of owner classes
    become individuals.

    ``clusters`` holds, per individual, its most specific class, the
    owner classes it absorbs (general → specific) and the coercers of
    its attributes; ``primary`` indexes the query-class cluster (None
    when there is none); ``links`` gives, per satellite in cluster
    order, the linking property and whether it points primary →
    satellite; ``link_error`` is set when some satellite cannot be
    linked."""

    clusters: tuple[tuple[str, tuple[str, ...], dict], ...]
    primary: int | None
    links: tuple[tuple[str, bool], ...] = ()
    link_error: str | None = None


class RecordAssembler:
    """Builds :class:`AssembledEntity` objects for one query class.

    The assembler is a compiled plan: schema lookups (attribute
    ownership, coercers, cluster layouts, link properties) are resolved
    once and reused for every record.  It reflects the schema as it was
    when built — :class:`~repro.core.instances.generator.InstanceGenerator`
    builds a new one after :meth:`OntologySchema.refresh`."""

    def __init__(self, schema: OntologySchema, query_class: str,
                 *, reasoner: Reasoner | None = None) -> None:
        self.schema = schema
        self.query_class = query_class
        self.reasoner = reasoner or Reasoner(schema.ontology)
        self._compile()

    def _compile(self) -> None:
        ontology = self.schema.ontology
        self._attributes = {
            str(path): (self.schema.resolve(path)[0], path.attribute)
            for path in self.schema.attribute_paths()}
        self._depth = {name: len(ontology.lineage(name))
                       for name in ontology.class_names()}
        self._coercers: dict[str, dict] = {}
        #: owner-class tuple (first-appearance order) -> _Layout; each
        #: layout is built in full, then published by one assignment.
        self._layouts: dict[tuple[str, ...], _Layout] = {}

    def assemble(self, record: dict[str, str | None], *, source_id: str,
                 record_index: int) -> AssembledEntity | None:
        """Assemble one aligned record; returns None when the record holds
        no attribute belonging to the query class's subtree."""
        attributes = self._attributes
        by_class: dict[str, dict[str, str]] = {}
        for attribute_id, raw in record.items():
            if raw is None:
                continue
            owned = attributes.get(attribute_id)
            if owned is None:
                owned = self._resolve(attribute_id)
            owner, attribute = owned
            raw_values = by_class.get(owner)
            if raw_values is None:
                raw_values = by_class[owner] = {}
            raw_values[attribute] = raw

        owners = tuple(by_class)
        layout = self._layouts.get(owners)
        if layout is None:
            layout = self._layout(owners)
            self._layouts[owners] = layout
        if layout.primary is None:
            return None
        if layout.link_error is not None:
            raise InstanceGenerationError(layout.link_error)

        individuals: list[Individual] = []
        errors: list[str] = []
        for specific, members, coercers in layout.clusters:
            values: dict[str, object] = {}
            for class_name in members:
                for attribute, raw in by_class[class_name].items():
                    try:
                        values[attribute] = coercers[attribute](raw,
                                                                attribute)
                    except ValidationError as exc:
                        errors.append(str(exc))
            individuals.append(Individual(
                _identifier(specific, source_id, record_index), specific,
                values))

        primary = individuals.pop(layout.primary)
        for satellite, (name, forward) in zip(individuals, layout.links):
            if forward:
                primary.link(name, satellite)
            else:
                satellite.link(name, primary)
        return AssembledEntity(primary, individuals, source_id,
                               record_index, errors)

    # ------------------------------------------------------------------

    def _resolve(self, attribute_id: str) -> tuple[str, str]:
        """Ownership of an id outside the compiled table: raises the
        schema's own error for ids it does not know, and recompiles when
        the schema gained the id after this plan was built."""
        self.schema.resolve(AttributePath.parse(attribute_id))
        self._compile()
        return self._attributes[attribute_id]

    def _layout(self, owners: tuple[str, ...]) -> _Layout:
        clusters = self._cluster_classes(list(owners))
        primary = self._primary_cluster(clusters)
        compiled = tuple((cluster[-1], tuple(cluster),
                          self._coercers_for(cluster[-1]))
                         for cluster in clusters)
        if primary is None:
            return _Layout(compiled, None)
        primary_class = clusters[primary][-1]
        links: list[tuple[str, bool]] = []
        for index, cluster in enumerate(clusters):
            if index == primary:
                continue
            link = self._link_property(primary_class, cluster[-1])
            if isinstance(link, str):
                return _Layout(compiled, primary, link_error=link)
            links.append(link)
        return _Layout(compiled, primary, tuple(links))

    def _coercers_for(self, class_name: str) -> dict:
        """Attribute name -> range coercer, as seen from ``class_name``
        (an inherited attribute uses its most specific declaration)."""
        coercers = self._coercers.get(class_name)
        if coercers is None:
            coercers = {attr.name: range_coercer(attr.range)
                        for attr in
                        self.schema.ontology.all_attributes(class_name)}
            self._coercers[class_name] = coercers
        return coercers

    def _cluster_classes(self, classes: list[str]) -> list[list[str]]:
        """Group classes lying on one subclass chain; each cluster is
        ordered general → specific.

        Deeper classes go first so they absorb their ancestors; classes
        of equal depth keep their order in ``classes`` (first appearance
        in the record), so the layout never depends on hash order."""
        remaining = set(classes)
        clusters: list[list[str]] = []
        for class_name in sorted(classes,
                                 key=lambda c: -self._depth[c]):
            if class_name not in remaining:
                continue
            chain = [class_name]
            remaining.discard(class_name)
            for ancestor in self.schema.ontology.ancestors(class_name):
                if ancestor in remaining:
                    chain.insert(0, ancestor)
                    remaining.discard(ancestor)
            clusters.append(chain)
        return clusters

    def _primary_cluster(self, clusters: list[list[str]]) -> int | None:
        for index, cluster in enumerate(clusters):
            for class_name in cluster:
                if self.reasoner.is_subclass(class_name, self.query_class):
                    return index
        return None

    def _link_property(self, primary: str,
                       satellite: str) -> tuple[str, bool] | str:
        """The declared object property linking a satellite to the
        primary, as (name, points primary → satellite); an error message
        when none connects them."""
        properties = self.schema.object_properties_between(primary,
                                                           satellite)
        if properties:
            return properties[0].name, True
        # Also allow satellite → primary direction.
        reverse = self.schema.object_properties_between(satellite, primary)
        if reverse:
            return reverse[0].name, False
        return (f"no object property connects {primary!r} and "
                f"{satellite!r}; cannot assemble record")
