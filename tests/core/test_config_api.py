"""The consolidated config surface; the old import paths are gone."""

from __future__ import annotations

import warnings

import pytest

import repro
import repro.config
import repro.core
import repro.core.resilience
import repro.core.store


class TestCanonicalSurface:
    def test_repro_config_exports_every_knob_object(self):
        from repro.config import (ConcurrencyConfig, RefreshPolicy,
                                  ResilienceConfig, ServerConfig)
        assert ResilienceConfig().deadline_seconds is None or \
            ResilienceConfig().deadline_seconds > 0
        assert ConcurrencyConfig().max_workers is None or \
            ConcurrencyConfig().max_workers >= 1
        policy = RefreshPolicy()
        assert policy.ttl_seconds is None or policy.ttl_seconds > 0
        assert ServerConfig().max_inflight >= 1

    def test_top_level_reexports_are_the_same_objects(self):
        assert repro.ResilienceConfig is repro.config.ResilienceConfig
        assert repro.ConcurrencyConfig is repro.config.ConcurrencyConfig
        assert repro.RefreshPolicy is repro.config.RefreshPolicy
        assert repro.ServerConfig is repro.config.ServerConfig

    def test_defining_modules_are_the_same_objects(self):
        from repro.core.resilience.config import (ConcurrencyConfig,
                                                  ResilienceConfig)
        from repro.core.store.refresh import RefreshPolicy
        from repro.server.config import ServerConfig
        assert repro.config.ResilienceConfig is ResilienceConfig
        assert repro.config.ConcurrencyConfig is ConcurrencyConfig
        assert repro.config.RefreshPolicy is RefreshPolicy
        assert repro.config.ServerConfig is ServerConfig

    def test_importing_repro_emits_no_deprecation_warnings(self):
        import importlib
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            importlib.reload(repro.config)


class TestDeprecatedSpellings:
    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.core.resilience.NoSuchThing
        with pytest.raises(AttributeError):
            repro.core.store.NoSuchThing
        with pytest.raises(AttributeError):
            repro.core.NoSuchThing

    def test_non_config_names_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.core.resilience import (RetryPolicy,  # noqa: F401
                                              SourceHealth)
            from repro.core.store import (SemanticStore,  # noqa: F401
                                          StoreRefresher)
            from repro.core import S2SMiddleware  # noqa: F401


class TestServerConfigValidation:
    def test_defaults_are_valid(self):
        config = repro.config.ServerConfig()
        assert config.port == 0
        assert config.max_queue >= 0

    @pytest.mark.parametrize("kwargs", [
        {"max_inflight": 0},
        {"max_queue": -1},
        {"retry_after_seconds": -0.1},
        {"request_deadline_seconds": 0},
        {"idle_timeout_seconds": -5},
        {"max_frame_bytes": 100},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            repro.config.ServerConfig(**kwargs)

    def test_none_disables_deadlines(self):
        config = repro.config.ServerConfig(request_deadline_seconds=None,
                                           idle_timeout_seconds=None)
        assert config.request_deadline_seconds is None
        assert config.idle_timeout_seconds is None
