"""Lightweight structural reasoner.

The middleware does not need a DL reasoner — only the structural inferences
the paper's data flow relies on:

* transitive subclass closure (``watch`` is-a ``product`` is-a ``thing``);
* attribute inheritance (a ``watch`` individual may carry ``brand``);
* membership entailment for individuals (a ``watch`` instance satisfies a
  query over ``product``);
* datatype coercion/checking for attribute values.
"""

from __future__ import annotations

import functools
from datetime import date, datetime
from typing import Callable

from ..errors import OntologyError, ValidationError
from .model import Individual, Ontology


class Reasoner:
    """Structural inference over a fixed ontology."""

    def __init__(self, ontology: Ontology) -> None:
        self.ontology = ontology
        self._ancestor_cache: dict[str, frozenset[str]] = {}

    def ancestors(self, class_name: str) -> frozenset[str]:
        """Cached superclass set of a class."""
        cached = self._ancestor_cache.get(class_name)
        if cached is None:
            cached = frozenset(self.ontology.ancestors(class_name))
            self._ancestor_cache[class_name] = cached
        return cached

    def is_subclass(self, child: str, parent: str) -> bool:
        """Reflexive-transitive subclass test."""
        if child == parent:
            self.ontology.require_class(child)
            return True
        return parent in self.ancestors(child)

    def common_ancestor(self, first: str, second: str) -> str | None:
        """Most specific common superclass, or None when unrelated."""
        first_line = [first] + list(self.ontology.lineage(first))[::-1]
        second_set = {second, *self.ancestors(second)}
        for candidate in [first] + list(reversed(self.ontology.lineage(first))):
            if candidate in second_set:
                return candidate
        return None

    def satisfies_class(self, individual: Individual, class_name: str) -> bool:
        """True when the individual's class is ``class_name`` or a subclass."""
        return self.is_subclass(individual.class_name, class_name)

    # ------------------------------------------------------------------
    # Datatype handling
    # ------------------------------------------------------------------

    def coerce(self, class_name: str, attribute: str, raw: object):
        """Coerce a raw extracted value to the attribute's declared range.

        Extractors return strings (chunks of raw data, section 2.4); the
        instance generator uses this to produce typed values.  Raises
        :class:`ValidationError` when the value cannot be interpreted.
        """
        prop = self.ontology.find_attribute(class_name, attribute)
        if prop is None:
            raise OntologyError(
                f"class {class_name!r} has no attribute {attribute!r}")
        return range_coercer(prop.range)(raw, attribute)


def _coerce_boolean(raw: object, attribute: str) -> bool:
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ValidationError(
        f"value {raw!r} is not a boolean for {attribute!r}")


def _coerce_date(raw: object, attribute: str) -> date:
    if isinstance(raw, date) and not isinstance(raw, datetime):
        return raw
    try:
        return date.fromisoformat(str(raw).strip())
    except ValueError as exc:
        raise ValidationError(
            f"value {raw!r} is not an ISO date for {attribute!r}") from exc


def _coerce_datetime(raw: object, attribute: str) -> datetime:
    if isinstance(raw, datetime):
        return raw
    try:
        return datetime.fromisoformat(str(raw).strip())
    except ValueError as exc:
        raise ValidationError(
            f"value {raw!r} is not an ISO dateTime for "
            f"{attribute!r}") from exc


def _coerce_plain(range_name: str, convert: Callable, raw: object,
                  attribute: str):
    """Apply ``convert`` (stripping strings first for numbers) and report
    failures against ``range_name``."""
    try:
        if convert is not str and isinstance(raw, str):
            return convert(raw.strip())
        return convert(raw)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"value {raw!r} is not a valid {range_name} for "
            f"{attribute!r}") from exc


_RANGE_COERCERS: dict[str, Callable] = {
    "boolean": _coerce_boolean,
    "date": _coerce_date,
    "dateTime": _coerce_datetime,
    **{name: functools.partial(_coerce_plain, name, convert)
       for name, convert in (
        ("string", str), ("integer", int), ("decimal", float),
        ("double", float), ("float", float), ("anyURI", str))},
}


def range_coercer(range_name: str) -> Callable[[object, str], object]:
    """The ``(raw, attribute) -> value`` coercer for an XSD range.

    Every coercer raises :class:`ValidationError` naming ``attribute``
    when the value cannot be interpreted; the instance generator looks
    one up per (class, attribute) once and reuses it for every value."""
    coercer = _RANGE_COERCERS.get(range_name)
    if coercer is None:
        raise OntologyError(f"unsupported range {range_name!r}")
    return coercer
