"""Compiled assembly plans: determinism, invalidation and concurrency.

The instance generator compiles schema lookups once per query class and
schema generation.  These tests pin what that must not change: record
layouts independent of hash order, plans dropped by
``OntologySchema.refresh()``, and concurrent first use producing the
same answers as a single thread."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import repro
from repro import ExtractionRule, S2SMiddleware
from repro.core.instances import InstanceGenerator, RecordAssembler
from repro.core.instances.outputs import render_entities
from repro.ontology import Ontology, OntologySchema
from repro.ontology.builders import watch_domain_ontology
from repro.sources.relational import RelationalDataSource

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

SIBLINGS = ("delta", "alpha", "gamma", "beta")


def hub_schema() -> OntologySchema:
    """A hub class with four sibling satellites of equal depth."""
    ontology = Ontology("hub")
    ontology.add_class("thing")
    ontology.add_class("hub", "thing")
    ontology.add_attribute("hub", "code")
    for name in SIBLINGS:
        ontology.add_class(name, "thing")
        ontology.add_attribute(name, f"{name}_value")
        ontology.add_object_property("hub", f"has_{name}", name)
    return OntologySchema(ontology)


HUB_RECORD = {"thing.hub.code": "H1",
              **{f"thing.{name}.{name}_value": name.upper()
                 for name in SIBLINGS}}


def render_hub() -> str:
    """json + text renders of the hub record (run in a subprocess)."""
    schema = hub_schema()
    entity = RecordAssembler(schema, "hub").assemble(
        HUB_RECORD, source_id="S", record_index=0)
    return (render_entities(schema, [entity], "json")
            + render_entities(schema, [entity], "text"))


class TestDeterministicLayout:
    def test_equal_depth_satellites_keep_record_order(self):
        entity = RecordAssembler(hub_schema(), "hub").assemble(
            HUB_RECORD, source_id="S", record_index=0)
        assert [s.class_name for s in entity.satellites] == list(SIBLINGS)

    def test_renders_do_not_depend_on_the_hash_seed(self):
        renders = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
            run = subprocess.run([sys.executable, __file__],
                                 capture_output=True, text=True, env=env,
                                 timeout=60)
            assert run.returncode == 0, run.stderr
            renders.add(run.stdout)
        assert len(renders) == 1
        assert render_hub() in renders


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------

def _watch_middleware(watch_db) -> S2SMiddleware:
    s2s = S2SMiddleware(watch_domain_ontology())
    s2s.register_source(RelationalDataSource("db", watch_db))
    s2s.register_attribute("thing.product.brand",
                           ExtractionRule.sql("SELECT brand FROM watches"),
                           "db")
    return s2s


class TestRefreshDropsPlans:
    def test_new_attribute_reaches_the_next_query(self, watch_db):
        s2s = _watch_middleware(watch_db)
        before = s2s.query("SELECT product")
        assert [e.primary.values for e in before.entities][0] == {
            "brand": "Seiko"}

        s2s.ontology.add_attribute("product", "serial", "integer")
        s2s.ontology.add_attribute("product", "grade", "integer")
        s2s.schema.refresh()
        s2s.register_attribute("thing.product.serial",
                               ExtractionRule.sql("SELECT id FROM watches"),
                               "db")
        s2s.register_attribute(
            "thing.product.grade",
            ExtractionRule.sql("SELECT casing FROM watches"), "db")

        after = s2s.query("SELECT product")
        assert [e.primary.values.get("serial") for e in after.entities] == [
            1, 2, 3]
        coercion = [entry.message for entry in after.errors.by_phase(
            "generation")]
        assert coercion == [
            "value 'stainless-steel' is not a valid integer for 'grade'",
            "value 'resin' is not a valid integer for 'grade'",
            "value 'stainless-steel' is not a valid integer for 'grade'"]

    def test_direct_assembler_recompiles_for_a_refreshed_id(self, schema):
        assembler = RecordAssembler(schema, "product")
        schema.ontology.add_attribute("product", "serial", "integer")
        schema.refresh()
        entity = assembler.assemble(
            {"thing.product.brand": "Seiko", "thing.product.serial": "7"},
            source_id="S", record_index=0)
        assert entity.primary.values == {"brand": "Seiko", "serial": 7}


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------

def _fingerprint(schema, result) -> tuple:
    return (render_entities(schema, result.entities, "json"),
            render_entities(schema, result.entities, "owl"),
            [str(entry) for entry in result.errors.entries])


class TestConcurrentColdCache:
    def test_threads_on_a_cold_cache_match_one_thread(self, scenario):
        s2s = scenario.build_middleware()
        outcome = s2s.manager.extract_all_registered()
        classes = ("product", "provider", "watch")
        expected = {
            query_class: _fingerprint(s2s.schema, InstanceGenerator(
                s2s.schema).generate(outcome, query_class))
            for query_class in classes}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 3.0
            rounds = 0
            while rounds < 3 or (time.monotonic() < deadline
                                 and rounds < 20):
                rounds += 1
                generator = InstanceGenerator(s2s.schema)  # cold cache
                barrier = threading.Barrier(8)
                results: dict[int, tuple] = {}

                def run(index: int) -> None:
                    query_class = classes[index % len(classes)]
                    barrier.wait()
                    result = generator.generate(outcome, query_class)
                    results[index] = (query_class,
                                      _fingerprint(s2s.schema, result))

                threads = [threading.Thread(target=run, args=(index,))
                           for index in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert len(results) == 8
                for query_class, fingerprint in results.values():
                    assert fingerprint == expected[query_class]
        finally:
            sys.setswitchinterval(interval)


if __name__ == "__main__":
    print(render_hub(), end="")
