"""E17 — durable ingest: crash-and-resume cost vs unfinished work.

The durable pipeline's economic claim: a coordinator killed mid-run
resumes from its journal and pays only for the jobs the crash left
unfinished, not for the whole world.  Three measurements over a
24-source world with ~5 ms of injected per-rule latency:

* **Full ingest** — the baseline cost of journaled, staged ingest.
* **Crash at 25% / 75%** — abandon the run via the ``stop_after`` crash
  seam, then resume with a fresh coordinator on the same journal.
  Resume cost must shrink as the crash point moves later.
* **Exactness** — the resume's job claims equal the unfinished count
  (structural, from the journal itself — never from timing), and the
  final store matches a run that never crashed.

``E17_ITERATIONS=1`` puts the benchmark in CI smoke mode; the default
takes the best of 3 runs per cell.
"""

from __future__ import annotations

import os
import time

from repro.bench import ResultTable
from repro.config import FleetConfig
from repro.core.ingest import IngestJournal, IngestTarget, ShardCoordinator
from repro.core.query.parser import parse_s2sql
from repro.sources.flaky import FlakySource
from repro.workloads import B2BScenario

ITERATIONS = int(os.environ.get("E17_ITERATIONS", "3"))
N_SOURCES = 24
N_PRODUCTS = 24
N_WORKERS = 4
LATENCY = 0.005  # per-rule injected latency, SystemClock seconds

#: crash points as completed-job fractions of the 24-job run
CRASH_FRACTIONS = [0.25, 0.75]


def build_world(journal_dir):
    scenario = B2BScenario(n_sources=N_SOURCES, n_products=N_PRODUCTS,
                           seed=7)
    s2s = scenario.build_middleware(store=True)
    for source_id in s2s.source_repository.ids():
        s2s.source_repository.register(
            FlakySource(s2s.source_repository.get(source_id),
                        failure_rate=0.0, latency=LATENCY),
            replace=True)
    plan = s2s.query_handler.planner.plan(parse_s2sql("SELECT product"))
    target = IngestTarget(plan.class_name, list(plan.required_attributes))
    return scenario, s2s, target, str(journal_dir)


def coordinator(s2s, journal_dir, **kwargs) -> ShardCoordinator:
    kwargs.setdefault("fleet", FleetConfig(n_workers=N_WORKERS))
    return ShardCoordinator(s2s.store, s2s.manager,
                            s2s.query_handler.generator, journal_dir,
                            **kwargs)


def claims(journal_dir) -> int:
    return sum(1 for record in IngestJournal(journal_dir).records()
               if record.get("type") == "job"
               and record.get("event") == "claim")


def timed_run(s2s, journal_dir, target, **kwargs):
    started = time.perf_counter()
    runner = coordinator(s2s, journal_dir, **kwargs)
    report = runner.run([target])
    runner.close()
    return report, time.perf_counter() - started


def crash_then_resume(tmp_path, label, stop_after):
    """One crash/resume cell; returns (resume_report, resume_seconds,
    claims_during_resume)."""
    _scenario, s2s, target, journal_dir = build_world(tmp_path / label)
    crashed, _ = timed_run(s2s, journal_dir, target, stop_after=stop_after)
    assert crashed.aborted and crashed.completed == stop_after
    claims_before = claims(journal_dir)
    resumed, seconds = timed_run(s2s, journal_dir, target)
    assert not resumed.aborted
    return resumed, seconds, claims(journal_dir) - claims_before


def test_e17_ingest_report(tmp_path):
    table = ResultTable(
        f"E17: durable ingest crash/resume ({N_SOURCES} sources, "
        f"{LATENCY * 1e3:.0f} ms rule latency, {N_WORKERS} workers, "
        f"best of {ITERATIONS})",
        ["mode", "jobs_run", "replayed", "seconds"])

    full_seconds = []
    for iteration in range(ITERATIONS):
        _scenario, s2s, target, journal_dir = build_world(
            tmp_path / f"full{iteration}")
        report, seconds = timed_run(s2s, journal_dir, target)
        assert report.completed == N_SOURCES
        full_seconds.append(seconds)
    table.add_row("full ingest", N_SOURCES, 0, min(full_seconds))

    for fraction in CRASH_FRACTIONS:
        stop_after = int(N_SOURCES * fraction)
        cells = [crash_then_resume(tmp_path, f"c{fraction}i{i}", stop_after)
                 for i in range(ITERATIONS)]
        report, _seconds, _resume_claims = cells[0]
        table.add_row(f"resume after crash at {fraction:.0%}",
                      report.completed, report.replayed,
                      min(seconds for _r, seconds, _c in cells))
    table.print()


def test_e17_resume_runs_only_unfinished_jobs(tmp_path):
    """Acceptance criterion, structural half: the resume claims exactly
    the jobs the crash left unfinished — journaled-done work is never
    re-extracted."""
    stop_after = N_SOURCES // 2
    report, _seconds, resume_claims = crash_then_resume(
        tmp_path, "exact", stop_after)
    unfinished = N_SOURCES - stop_after
    assert report.completed == unfinished
    assert report.replayed == unfinished
    assert report.skipped_unchanged == stop_after
    # claims during the resume = one per unfinished job (the in-flight
    # jobs' re-delivery is the at-least-once contract, already counted
    # in `unfinished`)
    assert resume_claims == unfinished


def test_e17_resume_cost_proportional_to_unfinished(tmp_path):
    """Acceptance criterion, timing half (generous floor): crashing at
    75% leaves a quarter of the work, so its resume must be cheaper
    than the crash-at-25% resume — and both cheaper than full ingest."""
    _scenario, s2s, target, journal_dir = build_world(tmp_path / "full")
    full_report, full_seconds = timed_run(s2s, journal_dir, target)
    assert full_report.completed == N_SOURCES

    resumes = {}
    for fraction in CRASH_FRACTIONS:
        best = None
        for iteration in range(ITERATIONS):
            _report, seconds, _claims = crash_then_resume(
                tmp_path, f"p{fraction}i{iteration}",
                int(N_SOURCES * fraction))
            best = seconds if best is None else min(best, seconds)
        resumes[fraction] = best
    # generous floors: scheduling noise must not flake CI
    assert resumes[0.75] < resumes[0.25], (
        f"resume after 75% ({resumes[0.75]:.3f}s) should be cheaper than "
        f"after 25% ({resumes[0.25]:.3f}s)")
    assert resumes[0.75] < full_seconds, (
        f"resume of 6 jobs ({resumes[0.75]:.3f}s) should undercut a full "
        f"{N_SOURCES}-job ingest ({full_seconds:.3f}s)")
