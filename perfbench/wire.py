"""wire_fleet: an open loop over two loopback connections.

The middleware runs in a server process of its own
(:mod:`perfbench.wire_server`), so client and server share no
interpreter lock.  Requests are due on a fixed schedule at each offered
rate; a connection that is free sends the next due request, and every
latency is timed from when the request was due, so a stall also charges
the requests queued behind it.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.server import S2SClient, ServerBusyError

from .layers import COUNTERS, per_layer
from .report import Outcomes, median, quantile
from .spans import SpanRecorder
from .world import (BATCH_CLASSES, SELECTIVITY, WIRE_SHAPE, AnswerChecker,
                    build_scenario, read_templates)

SERVER_SCRIPT = Path(__file__).resolve().with_name("wire_server.py")
TENANT = "bench"
FLEET_WORKERS = 2
CONNECTIONS = 2
SETUP_REPS = 3
#: Offered rates (requests per second), light load to past saturation,
#: and each rate's share of the run.
RATES = ((8.0, 0.5), (10.0, 0.25), (24.0, 0.25))
#: query_p90_ms limit a rate must meet to count for max_rate_qps.
LATENCY_LIMIT_MS = 250.0
#: Partner writes per second while the light rate runs.
WRITE_RATE = 20.0
#: Requests in the traced run's counting pass (one cycle).
COUNT_OPS = 12
#: Generator lag above which a run is reported as unreliable.
LAG_WARN_MS = 10.0
REPLY_TIMEOUT = 60.0


class ServerProcess:
    """The wire server child and its command pipe."""

    def __init__(self, seed: int, traced: bool, spans_path=None) -> None:
        command = [sys.executable, str(SERVER_SCRIPT), "--seed", str(seed),
                   "--trace", str(int(traced))]
        if spans_path is not None:
            command += ["--spans", str(spans_path)]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1)
        self.hello = self._read()

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("wire server exited early (exit code "
                               f"{self.process.wait(timeout=REPLY_TIMEOUT)})")
        return json.loads(line)

    def command(self, name: str, **fields) -> dict:
        self.process.stdin.write(json.dumps({"cmd": name, **fields}) + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        try:
            return self.command("stop")
        finally:
            self.close()

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=REPLY_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


@dataclass
class Phase:
    """One offered rate's results."""

    rate: float
    seconds: float
    outcomes: Outcomes = field(default_factory=Outcomes)
    #: (request id, kind, sent, answered) per request, perf_counter times
    requests: list[tuple] = field(default_factory=list)
    lag_ms: list[float] = field(default_factory=list)
    unsent: int = 0
    #: from the first due time to the last answer
    elapsed: float = 0.0

    @property
    def reads(self) -> list[float]:
        return self.outcomes.ms("query") + self.outcomes.ms("execute")

    @property
    def completed(self) -> int:
        return self.outcomes.attempted - self.outcomes.failed

    def meets_limit(self) -> bool:
        reads = self.reads
        return (self.outcomes.failed == 0 and self.unsent <= CONNECTIONS
                and bool(reads) and quantile(reads, 0.9) <= LATENCY_LIMIT_MS)

    def summary(self) -> str:
        reads = self.reads
        return (f"phase rate={self.rate:g}/s seconds={self.seconds:g} "
                f"attempted={self.outcomes.attempted} "
                f"failed={self.outcomes.failed} unsent={self.unsent} "
                f"read_p50_ms={median(reads):.3f} "
                f"read_p90_ms={quantile(reads, 0.9):.3f} "
                f"completed_per_s={self.completed / self.elapsed:.3f} "
                f"meets_limit={self.meets_limit()}")


class WireFleet:
    name = "wire_fleet"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        scenario = build_scenario(WIRE_SHAPE, seed)
        self.templates = read_templates(scenario, seed)
        self.checker = AnswerChecker(scenario)
        self.rng = random.Random(f"ops-{self.name}-{seed}")

    # -- set-up ---------------------------------------------------------

    def setup(self, traced: bool, spans_path=None
              ) -> tuple[ServerProcess, S2SClient, float]:
        """Start a server, connect, answer one read; the set-up time runs
        from the server's generated sources to that answer."""
        server = ServerProcess(self.seed, traced, spans_path)
        try:
            client = S2SClient("127.0.0.1", server.hello["port"],
                               tenant=TENANT)
            result = client.query(self.templates["all"].text)
            seconds = time.monotonic() - server.hello["generated_at"]
            if not self.checker.check(self.templates["all"], result):
                raise RuntimeError("wire_fleet: wrong first answer")
        except BaseException:
            server.close()
            raise
        return server, client, seconds

    # -- operations -----------------------------------------------------

    def cycle(self) -> list[tuple]:
        reads = ([("query", name) for name in SELECTIVITY]
                 + [("execute", name) for name in SELECTIVITY])
        self.rng.shuffle(reads)
        return reads[:5] + [("batch",)] + reads[5:] + [("batch",)]

    def schedule(self, count: int) -> list[tuple]:
        ops: list[tuple] = []
        while len(ops) < count:
            ops.extend(self.cycle())
        return ops[:count]

    def perform(self, connection: dict, op: tuple) -> bool:
        kind = op[0]
        if kind == "batch":
            results = connection["client"].query_many(
                [self.templates[name].text for name in BATCH_CLASSES])
            return len(results) == len(BATCH_CLASSES) and all(
                self.checker.check(self.templates[name], result)
                for name, result in zip(BATCH_CLASSES, results))
        template = self.templates[op[1]]
        if kind == "query":
            result = connection["client"].query(template.text)
        else:
            result = connection["prepared"][op[1]].execute()
        return self.checker.check(template, result)

    def connect(self, port: int) -> dict:
        client = S2SClient("127.0.0.1", port, tenant=TENANT)
        prepared = {name: client.prepare(f"read_{name}",
                                         self.templates[name].text)
                    for name in SELECTIVITY}
        return {"client": client, "prepared": prepared}

    # -- open loop ------------------------------------------------------

    def run_phase(self, connections: list[dict], rate: float,
                  seconds: float) -> Phase:
        phase = Phase(rate, seconds)
        ops = self.schedule(int(rate * seconds))
        lock = threading.Lock()
        cursor = [0]
        opened = time.perf_counter() + 0.05
        closes = opened + seconds

        def drive(connection: dict) -> None:
            free_since = opened
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(ops) or time.perf_counter() >= closes:
                        phase.unsent = max(phase.unsent, len(ops) - index)
                        return
                    cursor[0] += 1
                due = opened + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    ok = self.perform(connection, ops[index])
                except ServerBusyError:
                    ok = False
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    ok = False
                finished = time.perf_counter()
                if not ok:
                    print(f"wire_fleet: request {ops[index]} failed",
                          file=sys.stderr)
                with lock:
                    phase.outcomes.add(ops[index][0], finished - due, ok)
                    phase.requests.append((f"client-{rate:g}-{index}",
                                           ops[index][0], sent, finished))
                    phase.lag_ms.append(
                        (sent - max(due, free_since)) * 1e3)
                free_since = finished

        threads = [threading.Thread(target=drive, args=(connection,),
                                    name=f"loadgen-{n}")
                   for n, connection in enumerate(connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.elapsed = time.perf_counter() - opened
        return phase

    def run_counting(self, server: ServerProcess, connection: dict
                     ) -> dict[str, float]:
        """One cycle of requests, one at a time, with the layers traced:
        the counts depend on the seed only."""
        server.command("trace_on")
        outcomes = Outcomes()
        for op in self.schedule(COUNT_OPS):
            outcomes.add(op[0], 0.0, self.perform(connection, op))
        totals = server.command("trace_off")["totals"]
        counts = {name: totals.get(f"count:{name}", 0.0)
                  for name in COUNTERS}
        counts["store.refreshed_per_write"] = 0.0
        if outcomes.failed:
            raise RuntimeError("wire_fleet: counting pass answers wrong")
        return counts

    # -- runs -----------------------------------------------------------

    def _phases(self, server: ServerProcess, connections: list[dict],
                seconds: float, traced: bool
                ) -> tuple[list[Phase], dict, dict]:
        """Run every offered rate in turn; partner writes run during the
        lightest one.  The traced run splits the lightest rate into an
        untraced and a traced half (for trace.overhead_pct) and traces
        the rest."""
        phases = []
        totals: dict = {}
        for index, (rate, share) in enumerate(RATES):
            span = seconds * share
            if index == 0:
                server.command("writer_start", rate=WRITE_RATE)
                if traced:
                    phases.append(self.run_phase(connections, rate, span / 2))
                    server.command("trace_on")
                    span /= 2
                phases.append(self.run_phase(connections, rate, span))
                writes = server.command("writer_stop")
            else:
                phases.append(self.run_phase(connections, rate, span))
        if traced:
            totals = server.command("trace_off")["totals"]
        return phases, writes, totals

    def final_check(self, connection: dict, writes: dict) -> bool:
        """Every source the partner writer touched reads back with the
        value it wrote last."""
        self.checker.countries = dict(writes["countries"])
        result = connection["client"].query(self.templates["all"].text)
        return (self.checker.check(self.templates["all"], result)
                and all(self.checker.check_written(result, source_id)
                        for source_id in writes["countries"]))

    def run_untraced(self, seconds: float, *, smoke: bool):
        setups = []
        reps = 1 if smoke else SETUP_REPS
        for rep in range(reps):
            server, client, setup_seconds = self.setup(traced=False)
            setups.append(setup_seconds)
            client.close()
            if rep < reps - 1:
                server.stop()
        try:
            connections = [self.connect(server.hello["port"])
                           for _ in range(CONNECTIONS)]
            phases, writes, _ = self._phases(server, connections, seconds,
                                             traced=False)
            correct = self.final_check(connections[0], writes)
            for connection in connections:
                connection["client"].close()
            rss = server.stop()["peak_rss_mb"]
        finally:
            server.close()
        light, top = phases[0], phases[-1]
        passing = [phase for phase in phases if phase.meets_limit()]
        best = max(passing, key=lambda phase: phase.rate, default=None)
        # Writes are pure CPU in the server process: scale them to
        # nominal machine speed like the in-process workloads' times.
        write_ms = [seconds * 1e3 for seconds in writes["scaled"]]
        raw_write_ms = [seconds * 1e3 for seconds in writes["latencies"]]
        metrics = {
            "setup_s": median(setups),
            "query_p50_ms": median(light.reads),
            "query_p90_ms": quantile(light.reads, 0.9),
            "query_per_s": len(top.reads) / top.elapsed,
            "batch_p50_ms": median(light.outcomes.ms("batch")),
            "write_p50_ms": median(write_ms),
            "write_p90_ms": quantile(write_ms, 0.9),
            "max_rate_qps": (best.completed / best.elapsed
                             if best is not None else 0.0),
            "peak_rss_mb": rss,
        }
        lags = [lag for phase in phases for lag in phase.lag_ms]
        details = [phase.summary() for phase in phases]
        details.append(f"partner writes: {len(write_ms)}, unscaled "
                       f"write_p50_ms={median(raw_write_ms):.6g} "
                       f"write_p90_ms={quantile(raw_write_ms, 0.9):.6g}; "
                       f"latency limit {LATENCY_LIMIT_MS:g} ms on "
                       f"query_p90_ms")
        details.extend(_lag_warning(light.lag_ms))
        outcomes = _combined(phases)
        return correct, outcomes, metrics, details + [
            f"generator lag p90 {quantile(lags, 0.9):.3f} ms"]

    def run_traced(self, seconds: float, *, spans_path):
        server_spans = spans_path.with_name(
            spans_path.stem + "-server" + spans_path.suffix)
        server, client, _ = self.setup(traced=True, spans_path=server_spans)
        try:
            client.close()
            connections = [self.connect(server.hello["port"])
                           for _ in range(CONNECTIONS)]
            counters = self.run_counting(server, connections[0])
            phases, writes, totals = self._phases(server, connections,
                                                  seconds, traced=True)
            correct = self.final_check(connections[0], writes)
            remote = connections[0]["client"].metrics()["metrics"]
            for connection in connections:
                connection["client"].close()
            server.stop()
        finally:
            server.close()
        traced_phases = phases[1:]
        n_ops = sum(phase.outcomes.attempted for phase in traced_phases)
        metrics = per_layer(totals, n_ops,
                            fleet_workers=FLEET_WORKERS)
        metrics.update(counters)
        client_spans = SpanRecorder()
        for phase in traced_phases:
            for request_id, kind, sent, answered in phase.requests:
                client_spans.add(f"client.{kind}", sent, answered,
                                 request_id)
        client_spans.dump(spans_path)
        service = sum(client_spans.inclusive_times().values())
        untraced_p50 = median(phases[0].reads)
        traced_p50 = median(phases[1].reads)
        metrics.update({
            "query.queries_per_scan": _histogram_mean(
                remote["tenant"], "queries_per_scan"),
            "cluster.worker_restarts": _counter_total(
                remote["tenant"], "worker_restarts_total"),
            "server.wire_ms": service * 1e3 / max(n_ops, 1)
            - metrics["server.handle_ms"],
            "server.rejected": _counter_total(remote["server"],
                                              "server_rejected_total"),
            "mapping.register_ms": server.hello["register_s"] * 1e3,
            "loadgen.lag_p90_ms": quantile(
                [lag for phase in phases for lag in phase.lag_ms], 0.9),
            "trace.overhead_pct": ((traced_p50 / untraced_p50 - 1.0) * 100
                                   if untraced_p50 else 0.0),
        })
        details = [phase.summary() for phase in phases]
        details.append(f"spans written to {spans_path} and {server_spans}")
        return correct, _combined(phases), metrics, details


def _combined(phases: list[Phase]) -> Outcomes:
    outcomes = Outcomes()
    outcomes.attempted = sum(phase.outcomes.attempted for phase in phases)
    outcomes.failed = sum(phase.outcomes.failed for phase in phases)
    return outcomes


def _lag_warning(lags: list[float]) -> list[str]:
    lag = quantile(lags, 0.9)
    if lag <= LAG_WARN_MS:
        return []
    message = (f"generator lag p90 {lag:.1f} ms at the lightest rate "
               f"exceeds {LAG_WARN_MS:g} ms: latencies are unreliable")
    print(f"wire_fleet: {message}", file=sys.stderr)
    return [message]


def _series(exported: dict, name: str) -> list:
    return exported.get(name, {}).get("series", [])


def _counter_total(exported: dict, name: str) -> float:
    return float(sum(entry.get("value", 0.0)
                     for entry in _series(exported, name)))


def _histogram_mean(exported: dict, name: str) -> float:
    series = _series(exported, name)
    count = sum(entry.get("count", 0) for entry in series)
    total = sum(entry.get("sum", 0.0) for entry in series)
    return total / count if count else 0.0
