"""The S2S benchmark: one command, three workloads, answers checked.

    python3 perfbench/run.py --workload live_mixed --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
same workload with the layer wrappers on for half of it and prints the
per-layer metrics instead.  ``--smoke`` skips the repeated set-ups so a
run takes about ``--seconds``.  The last stdout line is the JSON result;
the lines before it are a readable report.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("live_mixed", "wire_fleet", "store_churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up instead of several")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no middleware sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.inproc import LiveMixed, StoreChurn
    from perfbench.report import emit
    from perfbench.wire import WireFleet

    workload = {"live_mixed": LiveMixed, "wire_fleet": WireFleet,
                "store_churn": StoreChurn}[args.workload](args.seed)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        correct, outcomes, metrics, details = workload.run_traced(
            args.seconds, spans_path=spans)
    else:
        correct, outcomes, metrics, details = workload.run_untraced(
            args.seconds, smoke=args.smoke)
    emit(args.workload, bool(args.trace), correct, outcomes.attempted,
         outcomes.failed, metrics, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
