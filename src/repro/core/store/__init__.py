"""The materialized semantic store subsystem.

Materializes the Instance Generator's OWL instances ahead of query
time, serves repeat queries from the materialization, and refreshes
incrementally by re-extracting only the sources whose content
fingerprints changed.  See docs/store.md.
"""

from .delta import DeltaPlan, DeltaRefresher, RefreshResult
from .refresh import StoreRefresher
from .snapshot import fingerprint_source, load_store, save_store
from .store import (STORE, Materialization, SemanticStore, SourceSlice,
                    StoreServing)

__all__ = [
    "STORE",
    "DeltaPlan",
    "DeltaRefresher",
    "Materialization",
    "RefreshResult",
    "SemanticStore",
    "SourceSlice",
    "StoreRefresher",
    "StoreServing",
    "fingerprint_source",
    "load_store",
    "save_store",
]
