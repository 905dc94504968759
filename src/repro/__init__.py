"""repro — S2S: Semantic Data Extraction for B2B Integration.

A complete, self-contained reproduction of the Syntactic-to-Semantic (S2S)
middleware of Silva & Cardoso (IWDDS / ICDCS 2006): an ontology-driven
data integrator that answers a single S2SQL query over heterogeneous data
sources (relational databases, XML, web pages, plain-text files) and
returns the integrated answer as OWL ontology instances.

Public entry points:

* :class:`repro.core.S2SMiddleware` — the middleware facade;
* :mod:`repro.config` — every configuration knob object in one place;
* :mod:`repro.server` — the multi-tenant query server and its clients;
* :mod:`repro.ontology` — build/import the shared ontology schema;
* :mod:`repro.sources` — data-source substrates and connectors;
* :mod:`repro.workloads` — synthetic B2B scenario generators;
* :mod:`repro.baselines` — syntactic comparison systems.
"""

from .core.mapping.rules import ExtractionRule
from .core.middleware import S2SMiddleware
from .config import (ConcurrencyConfig, RefreshPolicy, ResilienceConfig,
                     ServerConfig)
from .obs import MetricsRegistry, Trace, Tracer

__version__ = "1.8.0"

__all__ = [
    "S2SMiddleware",
    "ExtractionRule",
    "ConcurrencyConfig",
    "RefreshPolicy",
    "ResilienceConfig",
    "ServerConfig",
    "MetricsRegistry",
    "Trace",
    "Tracer",
    "__version__",
]
