"""Validation of individuals against the ontology schema.

The paper argues manual mapping "offers the highest degree of data
extraction accuracy and domain consistency" (section 2.3); this module is
the enforcement side of that claim — every individual the instance
generator produces can be checked against the schema before serialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .model import Individual, ObjectProperty, Ontology
from .reasoner import Reasoner, range_coercer
from ..errors import ValidationError


@dataclass
class ValidationReport:
    """Accumulated validation problems; empty means valid."""

    problems: list[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        """True when no problems were recorded."""
        return not self.problems

    def add(self, message: str) -> None:
        """Record one validation problem."""
        self.problems.append(message)

    def raise_if_invalid(self) -> None:
        """Raise ValidationError when problems exist."""
        if self.problems:
            raise ValidationError("; ".join(self.problems))


class _ClassRules:
    """One class's validation tables: declared (possibly inherited)
    attributes with their range coercers, and object properties."""

    def __init__(self, ontology: Ontology, class_name: str) -> None:
        self.attributes: dict[str, tuple[bool, Callable]] = {
            attr.name: (attr.functional, range_coercer(attr.range))
            for attr in ontology.all_attributes(class_name)}
        self.object_properties: dict[str, ObjectProperty] = {
            prop.name: prop
            for prop in ontology.all_object_properties(class_name)}


class IndividualValidator:
    """Validates individuals, compiling each class's schema lookups once.

    Holds the tables for one state of the schema: build a new validator
    after the ontology changes."""

    def __init__(self, ontology: Ontology,
                 reasoner: Reasoner | None = None) -> None:
        self.ontology = ontology
        self.reasoner = reasoner or Reasoner(ontology)
        self._rules: dict[str, _ClassRules] = {}

    def validate(self, individual: Individual) -> ValidationReport:
        """Check one individual against the schema.

        Verifies: the class exists; every value belongs to a declared
        (possibly inherited) attribute; values match the declared XSD
        range; functional attributes are single-valued; links target
        declared object properties and range-compatible individuals.
        """
        report = ValidationReport()
        class_name = individual.class_name
        rules = self._rules.get(class_name)
        if rules is None:
            if not self.ontology.has_class(class_name):
                report.add(f"individual {individual.identifier!r} has "
                           f"unknown class {class_name!r}")
                return report
            rules = _ClassRules(self.ontology, class_name)
            self._rules[class_name] = rules

        for name, value in individual.values.items():
            declared = rules.attributes.get(name)
            if declared is None:
                report.add(f"{individual.identifier}: undeclared attribute "
                           f"{name!r} for class {class_name!r}")
                continue
            functional, coerce = declared
            candidates = value if isinstance(value, list) else (value,)
            if functional and isinstance(value, list) and len(value) > 1:
                report.add(f"{individual.identifier}: functional attribute "
                           f"{name!r} has {len(value)} values")
            for item in candidates:
                try:
                    coerce(item, name)
                except ValidationError as exc:
                    report.add(f"{individual.identifier}: {exc}")

        for name, targets in individual.links.items():
            prop = rules.object_properties.get(name)
            if prop is None:
                report.add(f"{individual.identifier}: undeclared object "
                           f"property {name!r} for class {class_name!r}")
                continue
            if prop.functional and len(targets) > 1:
                report.add(f"{individual.identifier}: functional object "
                           f"property {name!r} has {len(targets)} targets")
            for target in targets:
                if not self.ontology.has_class(target.class_name):
                    report.add(f"{individual.identifier}: link {name!r} "
                               f"targets unknown class "
                               f"{target.class_name!r}")
                elif not self.reasoner.is_subclass(target.class_name,
                                                   prop.range):
                    report.add(f"{individual.identifier}: link {name!r} "
                               f"targets {target.class_name!r}, expected "
                               f"{prop.range!r}")
        return report


def validate_individual(ontology: Ontology, individual: Individual,
                        *, reasoner: Reasoner | None = None) -> ValidationReport:
    """Check one individual against the schema (see
    :meth:`IndividualValidator.validate`)."""
    return IndividualValidator(ontology, reasoner).validate(individual)


def validate_ontology(ontology: Ontology) -> ValidationReport:
    """Check every individual currently held by the ontology."""
    report = ValidationReport()
    validator = IndividualValidator(ontology)
    for individual in ontology.individuals():
        report.problems.extend(validator.validate(individual).problems)
    return report
