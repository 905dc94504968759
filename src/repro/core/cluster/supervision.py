"""Worker supervision: heartbeat death detection and restart backoff.

The fleet scheduler beats one supervisor per fleet: worker death is
detected by direct liveness checks and by heartbeat age on the
injectable clock, dead workers are restarted with jittered backoff,
and a shard that keeps dying exhausts a restart budget instead of
wedging the run.

The supervisor owns only the *policy state* (heartbeats, restart
counts, pending restart schedule); what a death *means* — releasing an
in-flight ingest job, re-dispatching a query sub-plan — is up to the
request whose item the dead worker held.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...clock import Clock
from ...obs import MetricsRegistry
from ..resilience import RetryPolicy
from .pool import WorkerPool


def default_restart_policy(max_restarts: int) -> RetryPolicy:
    """The fleet restart backoff the scheduler uses by default."""
    return RetryPolicy(max_attempts=max_restarts + 1, base_delay=0.05,
                       max_delay=1.0, seed=11)


@dataclass
class SupervisionVerdict:
    """One supervision tick's findings, in detection order.

    ``restarted`` — shards whose scheduled restart came due and was
    performed this tick (their pending work can be re-dispatched);
    ``deaths`` — shards newly detected dead or silent, each with a
    restart now scheduled (their in-flight work must be released);
    ``aborted`` — the shard that exceeded its restart budget, if any
    (its in-flight work must be released too; the scan stops there).
    """

    restarted: list[int] = field(default_factory=list)
    deaths: list[int] = field(default_factory=list)
    aborted: int | None = None


class WorkerSupervisor:
    """Heartbeat bookkeeping + restart scheduling for one worker pool."""

    def __init__(self, clock: Clock, *, heartbeat_timeout: float = 30.0,
                 restart_policy: RetryPolicy | None = None,
                 max_restarts: int = 3,
                 metrics: MetricsRegistry | None = None) -> None:
        self.clock = clock
        self.heartbeat_timeout = heartbeat_timeout
        self.max_restarts = max_restarts
        self.restart_policy = (restart_policy
                               or default_restart_policy(max_restarts))
        self.metrics = metrics
        self.heartbeats: dict[int, float] = {}
        self.restarts: dict[int, int] = {}
        self.restart_at: dict[int, float] = {}
        self._rng = self.restart_policy.make_rng()

    def reset(self, shards) -> None:
        """Stamp fresh heartbeats and clear budgets (fleet start, or a
        new query run reclaiming the per-run restart budget)."""
        now = self.clock.monotonic()
        self.heartbeats = {shard: now for shard in shards}
        self.restarts.clear()
        self.restart_at.clear()

    def beat(self, shard: int) -> None:
        """Stamp a liveness signal (any event counts as a heartbeat)."""
        self.heartbeats[shard] = self.clock.monotonic()

    @property
    def total_restarts(self) -> int:
        """Restarts scheduled so far (for run reports)."""
        return sum(self.restarts.values())

    def supervise(self, pool: WorkerPool, *, busy: set[int],
                  relevant: set[int]) -> SupervisionVerdict:
        """One supervision tick over the pool.

        ``busy`` — shards with work in flight (eligible for silence
        detection, and flagged so the coordinator releases their work);
        ``relevant`` — shards that matter at all (busy or with work
        routed to them).  A dead-but-idle worker outside ``relevant``
        must not burn the restart budget — and certainly must not abort
        the run — while other shards drain."""
        verdict = SupervisionVerdict()
        now = self.clock.monotonic()
        for shard in range(pool.n_workers):
            if shard not in relevant and shard not in self.restart_at:
                continue
            if shard in self.restart_at:
                if now >= self.restart_at[shard]:
                    pool.restart(shard)
                    del self.restart_at[shard]
                    self.heartbeats[shard] = self.clock.monotonic()
                    verdict.restarted.append(shard)
                continue
            is_busy = shard in busy
            dead = not pool.alive(shard)
            silent = (is_busy and now - self.heartbeats.get(shard, now)
                      > self.heartbeat_timeout)
            if not dead and not silent:
                continue
            count = self.restarts.get(shard, 0) + 1
            self.restarts[shard] = count
            if count > self.max_restarts:
                verdict.aborted = shard
                return verdict
            delay = self.restart_policy.delay_for(count, self._rng)
            self.restart_at[shard] = now + delay
            verdict.deaths.append(shard)
            if self.metrics is not None:
                self.metrics.counter(
                    "worker_restarts_total",
                    "fleet workers restarted after death or silence"
                ).inc(shard=shard)
        return verdict
