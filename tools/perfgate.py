#!/usr/bin/env python3
"""Work and speed gate for the repo benchmark.

Reads the output of `perfbench/run.py --trace 1` on standard input and
compares its last JSON line against the workload's entry in
BENCH_perfgate.json:

    python3 perfbench/run.py --workload W --trace 1 --seconds 1 \\
        | python3 tools/perfgate.py W

--record rewrites the workload's entry from the JSON lines of one or
more runs: their exact counts, which must agree, and the median
harness.run_s, so one slow or fast run does not set the floor:

    for i in 1 2 3 4 5; do
        python3 perfbench/run.py --workload W --trace 1 --seconds 1
    done | python3 tools/perfgate.py --record W

The gate fails when
  (a) any of the EXACT work counts differs from the committed value.
      They are deterministic, so a fast-forward or shard-skip
      regression fails here even though every modelled result, and so
      perfbench/expected.json, stays bit-identical;
  (b) the probe-scaled harness.run_s is more than 1/SPEED_FLOOR of the
      committed value, i.e. the simulator runs slower than SPEED_FLOOR
      times its committed speed.
Exit status: 0 on pass, 1 on a gate failure, 2 on unusable input.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_perfgate.json"
SEED = 1
EXACT = ("harness.core_ticks_run", "harness.ff_jumps",
         "harness.shard_skips", "sim.events_executed")
TIMED = "harness.run_s"
SPEED_FLOOR = 0.75
# Recorded for the README's fast-forward table; not gated.
SHOWN = ("harness.ff_skipped_frac",)


def metrics_of(line):
    """Metric name -> value from one run.py JSON line."""
    result = json.loads(line)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    missing = [k for k in EXACT + (TIMED,) + SHOWN if k not in metrics]
    if missing:
        raise ValueError("no " + ", ".join(missing) + " in the run.py "
                         "line (was it run with --trace 1?)")
    return result.get("correct") is True, metrics


def compare(metrics, committed):
    """Gate one run's metrics against a workload's committed entry.

    Returns (failures, speed): one message per failed check, and the
    speed ratio committed run_s / measured run_s.
    """
    failures = [f"{k} is {metrics[k]}, committed {committed[k]}"
                for k in EXACT if metrics[k] != committed[k]]
    speed = committed[TIMED] / metrics[TIMED]
    if speed < SPEED_FLOOR:
        failures.append(f"{TIMED} is {metrics[TIMED]:.4g} s, committed "
                        f"{committed[TIMED]:.4g} s: {speed:.2f}x is below "
                        f"the {SPEED_FLOOR}x floor")
    return failures, speed


def load():
    with open(COMMITTED) as f:
        return json.load(f)


def entry_of(runs):
    """The committed entry for the metrics of one or more runs."""
    bad = [k for k in EXACT + SHOWN
           if any(m[k] != runs[0][k] for m in runs)]
    if bad:
        raise ValueError("the runs disagree on " + ", ".join(bad))
    entry = {k: runs[0][k] for k in EXACT + SHOWN}
    entry[TIMED] = statistics.median(m[TIMED] for m in runs)
    return entry


def record(workload, results):
    if not all(correct for correct, _ in results):
        print(f"perfgate: a {workload} run is not correct; not recording",
              file=sys.stderr)
        return 2
    entry = entry_of([metrics for _, metrics in results])
    table = load() if COMMITTED.is_file() else {"seed": SEED}
    table[workload] = entry
    with open(COMMITTED, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"perfgate: wrote {workload} ({len(results)} runs) to "
          f"{COMMITTED}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("--record", action="store_true",
                    help="rewrite the workload's entry in "
                         "BENCH_perfgate.json from the runs")
    args = ap.parse_args()
    lines = [line for line in sys.stdin.read().splitlines()
             if line.startswith("{")]
    try:
        if not lines:
            raise ValueError("no run.py JSON line")
        results = [metrics_of(line) for line in lines]
        if args.record:
            return record(args.workload, results)
    except (ValueError, KeyError) as e:
        print(f"perfgate: {args.workload}: unusable input: {e}",
              file=sys.stderr)
        return 2
    _, metrics = results[-1]
    committed = load().get(args.workload)
    if committed is None:
        print(f"perfgate: BENCH_perfgate.json has no entry for "
              f"{args.workload}", file=sys.stderr)
        return 2
    failures, speed = compare(metrics, committed)
    verdict = "FAIL" if failures else "pass"
    print(f"perfgate {args.workload}: {verdict}: work "
          f"{sum(metrics[k] == committed[k] for k in EXACT)}/{len(EXACT)} "
          f"counts exact; speed {speed:.2f}x (floor {SPEED_FLOOR}x, "
          f"{TIMED} {metrics[TIMED]:.4g} s vs {committed[TIMED]:.4g} s)")
    for msg in failures:
        print(f"perfgate {args.workload}: FAIL {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
