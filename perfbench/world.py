"""Generated inputs and ground truth for every workload.

Everything here derives from the workload seed: the product catalog,
the S2SQL templates and the write targets.  The middleware only ever
sees the generated sources; answers are checked against the catalog the
sources were generated from, never against another middleware run.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable

from repro.workloads import B2BScenario
from repro.workloads.b2b import SOURCE_TYPES
from repro.workloads.catalog import MOVEMENTS, ProductRecord

#: (sources, products): 16 sources of 10 records for the in-process
#: workloads, 8 sources of 3 records behind the wire.
LIVE_SHAPE = (16, 160)
WIRE_SHAPE = (8, 24)

#: Read templates by selectivity, cheapest answer first.
SELECTIVITY = ("none", "low", "mid", "high", "all")
#: The 4-query batch every workload sends.
BATCH_CLASSES = ("none", "low", "mid", "all")

_COUNTRY_PATTERNS = {
    "xml": re.compile(r"<provider_country>[^<]*</provider_country>"),
    "webpage": re.compile(r'<td class="provider_country">[^<]*</td>'),
    "textfile": re.compile(r"^provider_country=.*$", re.MULTILINE),
}


@dataclass(frozen=True)
class Template:
    """One S2SQL read and the ground-truth predicate it must match."""

    selectivity: str
    text: str
    predicate: Callable[[ProductRecord], bool]


def build_scenario(shape: tuple[int, int], seed: int) -> B2BScenario:
    n_sources, n_products = shape
    return B2BScenario(n_sources=n_sources, n_products=n_products,
                       seed=seed)


def _price_cut(products: list[ProductRecord], share: float) -> float:
    """A price threshold below which about ``share`` of the catalog lies,
    placed in a gap of at least 2 units so unit-conversion rounding in
    the published prices can never move a product across it."""
    prices = sorted(product.price for product in products)
    target = round(share * len(prices))
    for offset in range(len(prices)):
        for index in (target - offset, target + offset):
            if 0 < index < len(prices) and prices[index] - prices[index - 1] >= 2.0:
                return round((prices[index - 1] + prices[index]) / 2, 2)
    raise ValueError("catalog has no price gap to cut at")


def read_templates(scenario: B2BScenario, seed: int) -> dict[str, Template]:
    """One template per selectivity class, constants drawn from the seed."""
    rng = random.Random(f"templates-{seed}")
    products = scenario.ground_truth()
    movement = rng.choice(MOVEMENTS)
    absent = f"Unlisted{rng.randrange(1000, 9999)}"
    half = _price_cut(products, 0.5)
    third = _price_cut(products, 1 / 3)
    top = _price_cut(products, 0.85)
    return {
        "none": Template("none", f'SELECT product WHERE brand = "{absent}"',
                         lambda p: False),
        "low": Template(
            "low",
            f'SELECT product WHERE movement = "{movement}" AND price < {half}',
            lambda p: p.movement == movement and p.price < half),
        "mid": Template("mid", f"SELECT product WHERE price < {third}",
                        lambda p: p.price < third),
        "high": Template(
            "high",
            f"SELECT product WHERE water_resistance >= 50 AND price < {top}",
            lambda p: p.water_resistance >= 50 and p.price < top),
        "all": Template("all", "SELECT product", lambda p: True),
    }


def write_targets(scenario: B2BScenario, seed: int) -> list:
    """The organizations successive writes hit, in rotation: one
    seed-chosen source of each type, so every connector's write path is
    exercised, plus a second database.  Writes cost very different
    amounts per source type; with four equal shares the write median
    would sit exactly on the boundary between two types' costs and jump
    between them from run to run, while five slots put it inside one
    type's share."""
    rng = random.Random(f"writes-{seed}")
    by_type = {source_type: [org for org in scenario.organizations
                             if org.source_type == source_type]
               for source_type in SOURCE_TYPES}
    targets = [rng.choice(by_type[source_type])
               for source_type in SOURCE_TYPES]
    others = [org for org in by_type["database"] if org is not targets[0]]
    targets.append(rng.choice(others) if others else targets[0])
    return targets


def apply_write(scenario: B2BScenario, org, country: str) -> None:
    """Set the provider country of every record ``org`` publishes."""
    replacements = {
        "xml": f"<provider_country>{country}</provider_country>",
        "webpage": f'<td class="provider_country">{country}</td>',
        "textfile": f"provider_country={country}",
    }
    if org.source_type == "database":
        org.database.execute(
            f"UPDATE products SET provider_country = '{country}'")
        return
    pattern = _COUNTRY_PATTERNS[org.source_type]
    replacement = replacements[org.source_type]
    if org.source_type == "xml":
        document = org.xml_store.export("catalog.xml")
        org.xml_store.put("catalog.xml", pattern.sub(replacement, document))
    elif org.source_type == "webpage":
        scenario.web.mutate(org.url,
                            lambda html: pattern.sub(replacement, html))
    else:
        content = org.text_store.read("inventory.txt")
        org.text_store.write("inventory.txt",
                             pattern.sub(replacement, content))


class AnswerChecker:
    """Checks answers against the catalog and the writes made so far."""

    def __init__(self, scenario: B2BScenario) -> None:
        self.products = scenario.ground_truth()
        #: source id -> provider country its latest write set
        self.countries: dict[str, str] = {}
        self._expected: dict[str, list[tuple[str, str]]] = {}

    def expected(self, template: Template) -> list[tuple[str, str]]:
        if template.text not in self._expected:
            self._expected[template.text] = sorted(
                product.key() for product in self.products
                if template.predicate(product))
        return self._expected[template.text]

    def check(self, template: Template, result) -> bool:
        """Entity keys equal the ground truth, nothing is degraded, and
        every entity of a written source carries the written value."""
        if result.degraded:
            return False
        keys = sorted((entity.value("brand"), entity.value("model"))
                      for entity in result.entities)
        if keys != self.expected(template):
            return False
        for entity in result.entities:
            written = self.countries.get(entity.source_id)
            if written is not None and entity.value("country") != written:
                return False
        return True

    def check_written(self, result, source_id: str) -> bool:
        """The answer holds ``source_id``'s records, all with the value
        its latest write set (used on the full-catalog read)."""
        own = [entity for entity in result.entities
               if entity.source_id == source_id]
        written = self.countries.get(source_id)
        return bool(own) and all(entity.value("country") == written
                                 for entity in own)
