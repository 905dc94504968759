"""The S2S middleware — the paper's primary contribution.

Subpackages mirror the architecture of the paper's Figure 1:

* :mod:`repro.core.mapping` — the Mapping Module: attribute repository,
  data-source repository, 3-step attribute registration;
* :mod:`repro.core.extractor` — the Extractor Manager: extraction schemas,
  mediator + per-source-type wrappers, the 4-step extraction process;
* :mod:`repro.core.query` — the Query Handler and the S2SQL language;
* :mod:`repro.core.instances` — the Instance Generator: ontology
  population, output serialization and the error channel;
* :mod:`repro.core.middleware` — the :class:`S2SMiddleware` facade, the
  "single point of entry".
"""

from .ingest import IngestReport, IngestTarget, ShardCoordinator
from .mapping.rules import ExtractionRule
from .middleware import S2SMiddleware
from .store import SemanticStore

__all__ = ["S2SMiddleware", "ExtractionRule", "IngestReport",
           "IngestTarget", "SemanticStore", "ShardCoordinator"]
