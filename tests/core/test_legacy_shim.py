"""Deprecated-API shims: the rule helpers, and the removed resilience kwargs.

Deprecated spellings must keep their exact old semantics while warning,
so downstream code migrates on its own schedule without behaviour drift.
The scattered resilience kwargs have finished that cycle: they are gone,
and passing one is a plain ``TypeError``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import (ExtractionRule, S2SMiddleware, regex_rule, sql_rule,
                   webl_rule, xpath_rule)
from repro.config import ResilienceConfig
from repro.core.extractor import ExtractorManager
from repro.core.mapping.datasources import DataSourceRepository
from repro.core.mapping.repository import AttributeRepository
from repro.errors import S2SError
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


class TestLegacyRuleHelpers:
    @pytest.mark.parametrize("helper,language,code", [
        (sql_rule, "sql", "SELECT a FROM t"),
        (xpath_rule, "xpath", "//item/name"),
        (webl_rule, "webl", "return [];"),
        (regex_rule, "regex", r"^name=(.*)$"),
    ])
    def test_helpers_warn_and_match_classmethods(self, helper, language,
                                                 code):
        with pytest.warns(DeprecationWarning,
                          match=f"{language}_rule.. is deprecated"):
            old = helper(code, name="n", transform="strip")
        new = getattr(ExtractionRule, language)(code, name="n",
                                                transform="strip")
        assert old == new
        assert old.language == language


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
