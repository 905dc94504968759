"""The attribute-path view of an ontology (paper Figure 4).

The Mapping Module identifies every attribute by a dotted path through the
class hierarchy — ``thing.product.brand``, ``thing.product.watch.case`` —
"keeping a notion of the ontology hierarchy" (section 2.3.1).  The
:class:`OntologySchema` derives those unique identifiers from an
:class:`~repro.ontology.model.Ontology` and answers the lookups the
middleware needs:

* enumerate all attribute paths (for registration completeness checks);
* resolve a path back to its class and property;
* find the paths relevant to a query class, including inherited attributes;
* compute the *class closure* of a query result (section 2.5: querying
  ``product`` also returns associated classes such as ``Provider``).
"""

from __future__ import annotations

from ..errors import OntologyError
from ..ids import AttributePath
from .model import DatatypeProperty, ObjectProperty, Ontology


class OntologySchema:
    """Attribute-path index over an ontology."""

    def __init__(self, ontology: Ontology) -> None:
        self.ontology = ontology
        #: Bumped by every :meth:`refresh`; anything compiled from the
        #: schema (the instance generator's assembly plans) is valid for
        #: one generation only.
        self.generation = 0
        self._paths: dict[str, tuple[str, DatatypeProperty]] = {}
        self._rebuild()

    def _rebuild(self) -> None:
        paths: dict[str, tuple[str, DatatypeProperty]] = {}
        for cls in self.ontology.classes():
            lineage = self.ontology.lineage(cls.name)
            for attr in cls.attributes.values():
                path = ".".join(lineage + [attr.name])
                paths[path] = (cls.name, attr)
        self._paths = paths  # one assignment: readers never see a partial table

    def refresh(self) -> None:
        """Recompute paths after the ontology schema changed, and drop
        every plan compiled from the old schema."""
        self._rebuild()
        # Bumped after the new table is published, so a reader that sees
        # the new generation also sees the new paths.
        self.generation += 1

    # ------------------------------------------------------------------
    # Path enumeration and resolution
    # ------------------------------------------------------------------

    def attribute_paths(self) -> list[AttributePath]:
        """Every attribute identifier defined by the schema, sorted."""
        return [AttributePath.parse(p) for p in sorted(self._paths)]

    def paths_for_class(self, class_name: str,
                        *, include_inherited: bool = True) -> list[AttributePath]:
        """Attribute paths whose owning class is ``class_name`` (or an
        ancestor, when ``include_inherited``)."""
        self.ontology.require_class(class_name)
        relevant = {class_name}
        if include_inherited:
            relevant.update(self.ontology.ancestors(class_name))
        return [AttributePath.parse(path)
                for path, (owner, _attr) in sorted(self._paths.items())
                if owner in relevant]

    def resolve(self, path: AttributePath | str) -> tuple[str, DatatypeProperty]:
        """Return (owning class name, property) for an attribute path."""
        text = str(path)
        entry = self._paths.get(text)
        if entry is None:
            raise OntologyError(
                f"attribute path {text!r} does not exist in ontology "
                f"{self.ontology.name!r}")
        return entry

    def has_path(self, path: AttributePath | str) -> bool:
        """Whether the dotted path exists in the schema."""
        return str(path) in self._paths

    def path_for(self, class_name: str, attribute: str) -> AttributePath:
        """Build the canonical path for ``attribute`` as seen from
        ``class_name`` (the attribute may be inherited)."""
        prop = self.ontology.find_attribute(class_name, attribute)
        if prop is None:
            raise OntologyError(
                f"class {class_name!r} has no attribute {attribute!r}")
        lineage = self.ontology.lineage(prop.domain)
        return AttributePath.parse(".".join(lineage + [attribute]))

    # ------------------------------------------------------------------
    # Query support
    # ------------------------------------------------------------------

    def resolve_query_class(self, name: str) -> str:
        """Map a query's class token to a schema class (case-insensitive)."""
        if self.ontology.has_class(name):
            return name
        lowered = name.lower()
        for cls in self.ontology.classes():
            if cls.name.lower() == lowered:
                return cls.name
        raise OntologyError(
            f"query class {name!r} does not exist in ontology "
            f"{self.ontology.name!r}")

    def class_closure(self, class_name: str) -> list[str]:
        """Classes included in a query output for ``class_name``.

        Per the paper's example (section 2.5): querying ``product`` returns
        Product plus its subclasses (the records live there) plus every
        class reachable through object properties — "all products have a
        Provider, and therefore the output classes will be Product, watch,
        and Provider".
        """
        self.ontology.require_class(class_name)
        closure: list[str] = []
        pending = [class_name]
        seen = set()
        while pending:
            current = pending.pop(0)
            if current in seen:
                continue
            seen.add(current)
            closure.append(current)
            for child in self.ontology.children_of(current):
                pending.append(child.name)
            for prop in self.ontology.all_object_properties(current):
                pending.append(prop.range)
        return closure

    def object_properties_between(self, source: str,
                                  target: str) -> list[ObjectProperty]:
        """Object properties linking ``source`` (or its ancestors) to
        ``target``."""
        return [prop for prop in self.ontology.all_object_properties(source)
                if prop.range == target]

    def __len__(self) -> int:
        return len(self._paths)

    def __repr__(self) -> str:
        return (f"OntologySchema({self.ontology.name!r}, "
                f"paths={len(self._paths)})")
