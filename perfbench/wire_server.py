"""The wire_fleet server process: partner world, shared fleet, S2SServer.

Started by :mod:`perfbench.wire` with ``--seed``; it generates the same
world the client checks against, serves it on a loopback port and then
obeys one JSON command per stdin line, answering one JSON line each:

* ``trace_on`` / ``trace_off`` — install / remove the layer wrappers;
  ``trace_off`` answers with the folded totals and writes the spans;
* ``writer_start`` / ``writer_stop`` — run / stop the partner writer
  thread, which rewrites one source's provider country at a fixed rate
  (``writer_stop`` answers with the write latencies, unscaled and scaled
  to nominal speed as in :mod:`perfbench.speed`, and the final values);
* ``stop`` — answer with this process's peak RSS, then shut down.

The first stdout line announces the port and when the generated sources
were ready (``time.monotonic``, comparable across processes).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

if __name__ == "__main__":
    ROOT = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.clock import SystemClock  # noqa: E402
from repro.config import ConcurrencyConfig, FleetConfig  # noqa: E402
from repro.core.cluster import QueryShardCoordinator  # noqa: E402
from repro.obs import DEFAULT_REGISTRY  # noqa: E402
from repro.server import (S2SServer, ServerThread, Tenant,  # noqa: E402
                          TenantRegistry)
from repro.sources.flaky import FlakySource  # noqa: E402

from perfbench.layers import LayerTrace, substrate_counts  # noqa: E402
from perfbench.report import peak_rss_mb  # noqa: E402
from perfbench.speed import SpeedReference  # noqa: E402
from perfbench.world import (WIRE_SHAPE, apply_write,  # noqa: E402
                             build_scenario, write_targets)

TENANT = "bench"
FLEET_WORKERS = 2
#: Simulated partner round trip paid by every extraction rule.
PARTNER_LATENCY = 0.001


class PartnerWriter:
    """Rewrites one source's provider country at a fixed rate, rotating
    over the source types, the way partners update their own data."""

    def __init__(self, scenario, seed: int) -> None:
        self.scenario = scenario
        self.targets = write_targets(scenario, seed)
        #: (seconds, index of the reference sample taken just before)
        self.writes: list[tuple[float, int]] = []
        self.speed = SpeedReference()
        self.countries: dict[str, str] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self, rate: float) -> None:
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, args=(rate,),
                                        name="partner-writer", daemon=True)
        self._thread.start()

    def _run(self, rate: float) -> None:
        started = time.perf_counter()
        while not self._stop.is_set():
            index = len(self.writes)
            delay = started + index / rate - time.perf_counter()
            if delay > 0 and self._stop.wait(delay):
                return
            org = self.targets[index % len(self.targets)]
            country = f"WZ{index:05d}"
            sample = self.speed.sample()
            began = time.perf_counter()
            apply_write(self.scenario, org, country)
            self.writes.append((time.perf_counter() - began, sample))
            self.countries[org.source_id] = country

    def stop(self) -> dict:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            if self._thread.is_alive():
                raise RuntimeError("partner writer did not stop")
        return {"latencies": [seconds for seconds, _ in self.writes],
                "scaled": [seconds / self.speed.factor_at(sample)
                           for seconds, sample in self.writes],
                "countries": self.countries}


def build(seed: int, trace: LayerTrace | None):
    scenario = build_scenario(WIRE_SHAPE, seed)
    generated_at = time.monotonic()
    if trace is not None:
        trace.install()
    fleet_config = FleetConfig(n_workers=FLEET_WORKERS)
    fleet = QueryShardCoordinator(clock=SystemClock(), fleet=fleet_config,
                                  metrics=DEFAULT_REGISTRY)
    s2s = scenario.build_middleware(
        concurrency=ConcurrencyConfig.sharded(fleet=fleet_config))
    for org in scenario.organizations:
        s2s.source_repository.register(
            FlakySource(scenario.connector(org), failure_rate=0.0,
                        latency=PARTNER_LATENCY), replace=True)
    s2s.attach_fleet(fleet, tenant=TENANT)
    registry = TenantRegistry()
    registry.add(Tenant(TENANT, s2s, owned=True))
    server = ServerThread(S2SServer(registry))
    _host, port = server.start()
    register = 0.0
    if trace is not None:
        register = trace.fold().get("incl:mapping.register", 0.0)
        trace.restore()
        trace.reset()
    return scenario, fleet, server, port, generated_at, register


def serve(seed: int, traced: bool, spans_path: str | None) -> None:
    trace = LayerTrace(server=True) if traced else None
    scenario, fleet, server, port, generated_at, register = build(seed,
                                                                  trace)
    writer = PartnerWriter(scenario, seed)
    baseline = {}
    try:
        _reply({"port": port, "generated_at": generated_at,
                "register_s": register})
        for line in sys.stdin:
            command = json.loads(line)
            name = command["cmd"]
            if name == "trace_on":
                trace.reset()
                trace.install()
                baseline = substrate_counts(scenario)
                _reply({"ok": True})
            elif name == "trace_off":
                trace.restore()
                if spans_path:
                    trace.recorder.dump(spans_path)
                totals = trace.fold()
                for name, value in substrate_counts(scenario).items():
                    totals[f"count:{name}"] = value - baseline[name]
                _reply({"totals": totals})
            elif name == "writer_start":
                writer.start(float(command["rate"]))
                _reply({"ok": True})
            elif name == "writer_stop":
                _reply(writer.stop())
            elif name == "stop":
                _reply({"peak_rss_mb": peak_rss_mb()})
                return
            else:
                _reply({"error": f"unknown command {name!r}"})
    finally:
        writer.stop()
        server.stop()
        fleet.shutdown()


def _reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="where trace_off writes the server's spans")
    args = parser.parse_args()
    serve(args.seed, bool(args.trace), args.spans)


if __name__ == "__main__":
    main()
