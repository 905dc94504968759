"""Removed API spellings fail loudly instead of warning.

Every deprecation shim has finished its cycle: the rule helpers, the
old config import paths, the scattered resilience and fleet kwargs,
``QueryResult._schema`` and the legacy CLI flags are gone.  Using one is
a plain ``ImportError`` / ``AttributeError`` / ``TypeError`` (or an
argparse usage error, exit code 2) naming nothing that half-works.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import S2SMiddleware
from repro.cli import main
from repro.config import ConcurrencyConfig, ResilienceConfig
from repro.core.cluster import QueryShardCoordinator
from repro.core.extractor import ExtractorManager
from repro.core.ingest import ShardCoordinator
from repro.core.mapping.datasources import DataSourceRepository
from repro.core.mapping.repository import AttributeRepository
from repro.errors import S2SError
from repro.clock import FakeClock
from repro.ontology.builders import watch_domain_ontology
from repro.workloads import B2BScenario


def config_fields_except_clock(config: ResilienceConfig) -> dict:
    """Every config field but the (identity-compared) clock."""
    return {f.name: getattr(config, f.name)
            for f in dataclasses.fields(config) if f.name != "clock"}


class TestLegacyResilienceKwargs:
    @pytest.mark.parametrize("kwarg", ["parallel", "max_workers",
                                       "retries", "retry_delay"])
    def test_removed_kwargs_are_rejected(self, kwarg):
        with pytest.raises(TypeError, match=kwarg):
            S2SMiddleware(watch_domain_ontology(), **{kwarg: 1})
        with pytest.raises(TypeError, match=kwarg):
            ExtractorManager(AttributeRepository(), DataSourceRepository(),
                             **{kwarg: 1})

    @pytest.mark.parametrize("kwarg", ["parallel", "max_workers"])
    def test_removed_config_fields_are_rejected(self, kwarg):
        with pytest.raises(TypeError, match=kwarg):
            ResilienceConfig(**{kwarg: 1})
        assert not hasattr(ResilienceConfig(), kwarg)

    def test_no_kwargs_is_the_conservative_default_without_warning(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            s2s = S2SMiddleware(watch_domain_ontology())
        assert config_fields_except_clock(s2s.resilience) \
            == config_fields_except_clock(ResilienceConfig.conservative())


def _from_import(module: str, name: str):
    def attempt():
        exec(f"from {module} import {name}", {})
    return attempt


def _schema_attribute():
    from repro.core.query.executor import QueryResult
    from repro.core.query.parser import parse_s2sql
    from repro.core.query.planner import QueryPlanner
    from repro.ontology.schema import OntologySchema
    schema = OntologySchema(watch_domain_ontology())
    query = parse_s2sql("SELECT product")
    return QueryResult(query, QueryPlanner(schema).plan(query),
                       schema)._schema


_FLEET_KWARGS = ("n_workers", "pool", "heartbeat_timeout", "poll_seconds",
                 "real_poll_seconds", "max_worker_restarts")

#: removed spelling -> (the error it raises now, an attempt to use it)
REMOVED = {
    **{name: (ImportError, _from_import("repro", name))
       for name in ("sql_rule", "xpath_rule", "webl_rule", "regex_rule")},
    **{f"core.{name}": (ImportError, _from_import("repro.core", name))
       for name in ("ResilienceConfig", "ConcurrencyConfig",
                    "RefreshPolicy")},
    **{f"resilience.{name}": (ImportError,
                              _from_import("repro.core.resilience", name))
       for name in ("ResilienceConfig", "ConcurrencyConfig")},
    "resilience.config.UNSET": (
        ImportError, _from_import("repro.core.resilience.config", "UNSET")),
    "store.RefreshPolicy": (
        ImportError, _from_import("repro.core.store", "RefreshPolicy")),
    **{f"ingest.{name}": (ImportError, _from_import("repro.core.ingest", name))
       for name in ("ThreadWorkerPool", "SubprocessWorkerPool",
                    "WorkerPool")},
    **{f"workers.{name}": (ImportError,
                           _from_import("repro.core.ingest.workers", name))
       for name in ("KILL_EXIT_CODE", "WorkerPool")},
    "QueryResult._schema": (AttributeError, _schema_attribute),
    "ConcurrencyConfig.workers": (
        AttributeError, lambda: ConcurrencyConfig.sharded(2).workers),
    **{f"ConcurrencyConfig({name}=)": (
        TypeError, lambda name=name: ConcurrencyConfig(**{name: 2}))
       for name in ("workers", "pool")},
    **{f"query-fleet:{name}": (
        TypeError, lambda name=name: QueryShardCoordinator(
            clock=FakeClock(), **{name: 2}))
       for name in _FLEET_KWARGS},
    **{f"ingest-fleet:{name}": (
        TypeError, lambda name=name: ShardCoordinator(
            None, None, None, "journal", **{name: 2}))
       for name in _FLEET_KWARGS},
    **{f"cli:{' '.join(argv)}": (SystemExit, lambda argv=argv: main(
        [*argv, "--sources", "2", "--products", "2"]))
       for argv in (("demo", "--parallel"),
                    ("query", "--workers", "2"),
                    ("query", "--pool", "spawn"),
                    ("serve", "--query-workers", "2"),
                    ("serve", "--query-pool", "spawn"),
                    ("ingest", "run", "--journal", "j", "--workers", "2"),
                    ("ingest", "run", "--journal", "j", "--pool",
                     "subprocess"))},
}


class TestRemoved:
    @pytest.mark.parametrize("spelling", sorted(REMOVED))
    def test_spelling_raises(self, spelling, capsys):
        error, attempt = REMOVED[spelling]
        with pytest.raises(error) as excinfo:
            attempt()
        if error is SystemExit:
            assert excinfo.value.code == 2  # argparse: unknown option
            assert "unrecognized arguments" in capsys.readouterr().err


class TestOutputFormats:
    def test_output_formats_match_serialize(self):
        scenario = B2BScenario(n_sources=2, n_products=3, seed=7)
        s2s = scenario.build_middleware()
        result = s2s.query("SELECT product")
        formats = s2s.output_formats()
        assert formats  # non-empty, stable tuple
        for format_name in formats:
            rendered = result.serialize(format_name)
            assert isinstance(rendered, str) and rendered

    def test_unknown_format_rejected(self):
        scenario = B2BScenario(n_sources=2, n_products=3, seed=7)
        s2s = scenario.build_middleware()
        result = s2s.query("SELECT product")
        assert "yaml" not in s2s.output_formats()
        with pytest.raises(S2SError):
            result.serialize("yaml")
