#!/usr/bin/env python3
"""Repo benchmark: build the simulator, run one workload, check, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --record      # rewrite expected.json

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer table.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. README.md describes the
workloads, the metrics and the checks.
"""

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("apache16-spec", "oltp16-paper-conv", "zipfkv64-contended")
# The seed expected.json was recorded for. Any other seed is held out:
# its results are checked for repeatability and against runExperiment,
# but not against committed values.
DEFAULT_SEED = 1
DRIVER_TIMEOUT_S = 170
# Host times are reported in reference seconds: host seconds scaled by
# PROBE_REF_S / (the run's median probe time). The constant only fixes
# the unit; it is about the probe's time on the 4-vCPU Xeon VM the
# bounds in BENCHMARK.json were set on, so reference and host seconds
# read alike there.
PROBE_REF_S = 0.06

# Modelled results committed per point in expected.json.
DIGEST_KEYS = ("committed", "core_cycles", "busy", "other", "sb_full",
               "sb_drain", "violation", "commits", "aborts", "speculating",
               "events_executed", "messages")

# Trace passes, as the driver numbers them.
UNTRACED, SPANS, SAMPLED = 0, 1, 2

# Sampled self time is charged to the symbol the PC falls in, and each
# symbol to the layer of the source file that defines it (nm -l line
# info). Code inlined across modules is therefore charged to the
# caller's layer. Files of src/coh are split into the three coherence
# layers; every other src/<dir> is one layer.
COH_FILES = {
    "cache_agent": "coh.agent", "listener": "coh.agent",
    "directory": "coh.dir", "sharer_set": "coh.dir",
    "network": "coh.net", "message": "coh.net", "home_map": "coh.net",
}
SHARE_LAYERS = ("harness", "workload", "cpu", "core", "mem", "coh.agent",
                "coh.dir", "coh.net", "sim", "other")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help=f"rewrite expected.json for seed {DEFAULT_SEED}")
    args = ap.parse_args()
    if not args.record and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def check_environment():
    """Refuse settings that silently change the simulated program."""
    pinned = sorted(k for k in os.environ if k.startswith("INVISIFENCE_"))
    if pinned:
        die("refusing to run with " + ", ".join(pinned) + " set; these "
            "change the simulated program")
    if not (ROOT / "src" / "harness" / "runner.hh").is_file():
        die(f"simulator sources not found under {ROOT / 'src'}")
    for tool in ("cmake", "nm"):
        if shutil.which(tool) is None:
            die(f"{tool} not found")


def build():
    """Configure once (Release), then build incrementally."""
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", str(BUILD), "-j", jobs])


def run_build_step(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        die("build failed: " + " ".join(cmd))


def run_driver(workload, seed, seconds, trace):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0:
        die(f"driver exited with code {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    if not lines or lines[-1].get("kind") != "end":
        die("driver output is incomplete")
    return [r for r in lines if r["kind"] == "run"], lines[-1]


# ---------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------

def check_runs(workload, seed, runs):
    """Count point runs that fail a check; print why to stderr.

    A point run fails when its RunResult differs from runExperiment's for
    the same point, when any modelled result differs from the point's
    first run (repeat-equality, and traced == untraced), when the
    measure window committed nothing (the point wedged), or, for the
    default seed, when it differs from expected.json.
    """
    expected = None
    if seed == DEFAULT_SEED:
        expected = load_expected().get(workload)
        if expected is None:
            die(f"expected.json has no entry for {workload}")
    reference = {}
    failed = 0
    for r in runs:
        point, m = r["point"], r["m"]
        why = []
        if r["matches_run_experiment"] != 1:
            why.append("differs from runExperiment")
        if m != reference.setdefault(point, m):
            why.append(f"differs from the first run (trace pass "
                       f"{r['trace']})")
        if m["committed"] == 0:
            why.append("wedged: nothing committed in the measure window")
        if expected is not None:
            want = expected.get(point)
            if want is None:
                why.append("missing from expected.json")
            elif any(m[k] != want[k] for k in DIGEST_KEYS):
                bad = [k for k in DIGEST_KEYS if m[k] != want[k]]
                why.append("differs from expected.json in " + ", ".join(bad))
        if why:
            failed += 1
            print(f"perfbench: FAIL {workload}/{point} round {r['round']}: "
                  + "; ".join(why), file=sys.stderr)
    return failed


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def record_expected():
    out = {}
    for workload in WORKLOADS:
        runs, _ = run_driver(workload, DEFAULT_SEED, 1, 0)
        if check_runs(workload, None, runs):
            die(f"{workload}: runs disagree; not recording")
        out[workload] = {r["point"]: {k: r["m"][k] for k in DIGEST_KEYS}
                         for r in first_round(runs)}
    with open(EXPECTED, "w") as f:
        json.dump({"seed": DEFAULT_SEED, **out}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {EXPECTED}")


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------

def first_round(runs):
    """Untraced runs of round 1: one per point. Counts are exact, so
    any round would give the same values."""
    return [r for r in runs if r["round"] == 1 and r["trace"] == UNTRACED]


def probe_s(runs):
    """Median host seconds of the host-speed probe over the run."""
    return statistics.median(r["h"]["probe_s"] for r in runs)


def span(runs, trace, fn):
    """Host time in reference seconds: sum over points of the median
    over rounds of fn(run), rescaled by the run's host-speed probe.

    A per-point median drops the swings between consecutive runs of a
    point, and the sum keeps every point's weight fixed by its simulated
    work. The rescaling removes the slower drift of the whole host,
    which the probe sees as well (see README.md).
    """
    per_point = {}
    for r in runs:
        if r["trace"] == trace:
            per_point.setdefault(r["point"], []).append(fn(r))
    host_s = sum(statistics.median(v) for v in per_point.values())
    return host_s * PROBE_REF_S / probe_s(runs)


def h(key):
    return lambda r: r["h"][key]


def msum(runs, key):
    return sum(r["m"][key] for r in runs)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(runs, end):
    ref = first_round(runs)
    timed_s = span(runs, UNTRACED,
                   lambda r: r["h"]["warmup_run_s"] + r["h"]["run_s"])
    return {
        "sim_kcps": (msum(ref, "cycles_total") / timed_s / 1e3,
                     "kcycles/s"),
        "sim_kips": (msum(ref, "committed_total") / timed_s / 1e3,
                     "kinstr/s"),
        "setup_s": (span(runs, UNTRACED, lambda r: r["h"]["construct_s"] +
                         r["h"]["warm_s"]), "s"),
        "peak_rss_mb": (end["peak_rss_kb"] / 1024.0, "MB"),
        "sim_ipc": (ratio(msum(ref, "committed"), msum(ref, "core_cycles")),
                    "instr/cycle"),
    }


def layer_of(path):
    """Layer of a source file, or None when it is not simulator code."""
    try:
        rel = Path(path).resolve().relative_to(ROOT)
    except ValueError:
        return None
    parts = rel.parts
    if parts[0] == "perfbench":
        return "trace"
    if parts[0] != "src" or len(parts) < 3:
        return None
    if parts[1] == "coh":
        return COH_FILES.get(Path(parts[2]).stem, "coh.agent")
    if parts[1] == "cpu" and parts[2].startswith("consistency"):
        return "cpu.consistency"
    return parts[1]


def symbol_table():
    """Sorted (address, layer) of every text symbol of the driver."""
    out = subprocess.run(["nm", "-n", "-l", "--defined-only", str(DRIVER)],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    table = []
    for line in out.splitlines():
        head, _, where = line.partition("\t")
        fields = head.split()
        if len(fields) < 3 or fields[1] not in "tTwWiI":
            continue
        table.append((int(fields[0], 16), layer_of(where.rsplit(":", 1)[0])
                      if where else None))
    return table


def sampled_shares(samples):
    """Per-layer share of System::run samples, observer excluded.

    The observer (benchmark code: the sampler's handler, the counting
    operator new) is reported as trace.self_share of all samples; the
    layer shares are shares of the remaining samples, so together with
    other.self_share (libraries, std:: template code, src/aso) they sum
    to 1.
    """
    table = symbol_table()
    addrs = [a for a, _ in table]
    counts = dict.fromkeys(SHARE_LAYERS + ("cpu.consistency", "trace"), 0)
    for pc, n in samples["exe"].items():
        i = bisect.bisect_right(addrs, int(pc, 16)) - 1
        layer = table[i][1] if i >= 0 else None
        counts[layer if layer in counts else "other"] += n
    counts["other"] += samples["external"]
    counts["cpu"] += counts["cpu.consistency"]
    total = sum(counts[k] for k in SHARE_LAYERS) + counts["trace"]
    own = total - counts["trace"]
    shares = {k: ratio(counts[k], own) for k in SHARE_LAYERS}
    shares["cpu.consistency"] = ratio(counts["cpu.consistency"], own)
    shares["trace"] = ratio(counts["trace"], total)
    return shares, total


def per_layer(runs, end):
    ref = first_round(runs)

    def m(key):
        return msum(ref, key)

    spans = [r for r in runs if r["trace"] == SPANS and r["round"] == 1]
    fetches = sum(r["h"]["fetches"] for r in spans)
    restores = sum(r["h"]["restores"] for r in spans)
    cycles, core_cycles = m("cycles"), m("core_cycles")
    ticks = core_cycles - m("ff_cycles")
    run_s = span(runs, UNTRACED, h("run_s"))
    # Mean over points of each point's median calibration.
    timer_ns = span(runs, SPANS, h("timer_ns_per_span")) / len(spans)
    shares, nsamples = sampled_shares(end["samples"])
    commits, aborts = m("commits"), m("aborts")
    return {
        "harness.construct_s": (span(runs, UNTRACED, h("construct_s")),
                                "s"),
        "harness.warm_s": (span(runs, UNTRACED, h("warm_s")), "s"),
        "harness.run_s": (run_s, "s"),
        "harness.self_share": (shares["harness"], "ratio"),
        "harness.ff_skipped_frac": (ratio(m("ff_cycles"), core_cycles),
                                    "ratio"),
        "harness.ff_jumps": (m("ff_jumps"), "count"),
        "harness.shard_skips": (m("shard_skips"), "count"),
        "harness.core_ticks_run": (ticks, "count"),
        "harness.ns_per_core_tick": (ratio(run_s * 1e9, ticks), "ns"),
        "harness.allocs_per_kcycle": (ratio(
            sum(r["h"]["allocs"] for r in ref), cycles / 1e3),
            "count/kcycle"),
        "workload.fetches": (fetches, "count"),
        "workload.restores": (restores, "count"),
        "workload.fetch_s": (span(runs, SPANS, h("fetch_s")), "s"),
        "workload.fetch_timer_s": (span(runs, SPANS, lambda r: (
            r["h"]["fetches"] + r["h"]["restores"]) *
            r["h"]["timer_ns_per_span"] * 1e-9), "s"),
        "workload.self_share": (shares["workload"], "ratio"),
        "cpu.retired": (m("retired_raw"), "count"),
        "cpu.fetch_per_retired": (ratio(fetches, m("retired_raw")), "ratio"),
        "cpu.mispredicts": (m("mispredicts"), "count"),
        "cpu.lq_squashes": (m("lq_squashes"), "count"),
        "cpu.self_share": (shares["cpu"], "ratio"),
        "cpu.consistency_self_share": (shares["cpu.consistency"], "ratio"),
        "cpu.cycles_sb_full_frac": (ratio(m("sb_full"), core_cycles),
                                    "ratio"),
        "cpu.cycles_sb_drain_frac": (ratio(m("sb_drain"), core_cycles),
                                     "ratio"),
        "cpu.cycles_violation_frac": (ratio(m("violation"), core_cycles),
                                      "ratio"),
        "cpu.cycles_other_frac": (ratio(m("other"), core_cycles), "ratio"),
        "core.speculations": (m("speculations"), "count"),
        "core.commits": (commits, "count"),
        "core.aborts": (aborts, "count"),
        "core.commit_ratio": (ratio(commits, commits + aborts), "ratio"),
        "core.aborted_retired": (m("aborted_retired"), "count"),
        "core.spec_frac": (ratio(m("speculating"), core_cycles), "ratio"),
        "core.self_share": (shares["core"], "ratio"),
        "mem.mshr_allocations": (m("mshr_allocations"), "count"),
        "mem.mshr_full_stalls": (m("mshr_full_stalls"), "count"),
        "mem.mshr_waiter_dedups": (m("mshr_waiter_dedups"), "count"),
        "mem.self_share": (shares["mem"], "ratio"),
        "coh.agent.l1_fills_local": (m("l1_fills_local"), "count"),
        "coh.agent.l1_fills_remote": (m("l1_fills_remote"), "count"),
        "coh.agent.upgrades": (m("upgrades"), "count"),
        "coh.agent.external_served": (m("external_served"), "count"),
        "coh.agent.self_share": (shares["coh.agent"], "ratio"),
        "coh.dir.gets": (m("dir_gets"), "count"),
        "coh.dir.getm": (m("dir_getm"), "count"),
        "coh.dir.invalidations_sent": (m("dir_invalidations"), "count"),
        "coh.dir.queued_requests": (m("dir_queued_requests"), "count"),
        "coh.dir.self_share": (shares["coh.dir"], "ratio"),
        "coh.net.messages": (m("messages"), "count"),
        "coh.net.data_messages": (m("data_messages"), "count"),
        "coh.net.hops_per_msg": (ratio(m("hops"), m("messages")), "ratio"),
        "coh.net.self_share": (shares["coh.net"], "ratio"),
        "sim.events_executed": (m("events_executed"), "count"),
        "sim.events_scheduled": (m("events_scheduled"), "count"),
        "sim.ns_per_event": (ratio(run_s * 1e9, m("events_executed")),
                             "ns"),
        "sim.self_share": (shares["sim"], "ratio"),
        "other.self_share": (shares["other"], "ratio"),
        "trace.self_share": (shares["trace"], "ratio"),
        "trace.samples": (nsamples, "count"),
        "trace.overhead": (ratio(span(runs, SPANS, h("run_s")), run_s),
                           "ratio"),
        "trace.sampler_overhead": (ratio(span(runs, SAMPLED, h("run_s")),
                                         run_s), "ratio"),
        "trace.timer_ns_per_span": (timer_ns, "ns"),
        "host.probe_s": (probe_s(runs), "s"),
    }


def print_table(title, metrics, notes=()):
    print(title)
    for note in notes:
        print("  # " + note)
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:32s} {shown:>16s} {unit}")


def main():
    args = parse_args()
    check_environment()
    build()
    if args.record:
        record_expected()
        return
    runs, end = run_driver(args.workload, args.seed, args.seconds,
                           args.trace)
    failed = check_runs(args.workload, args.seed, runs)
    rounds = end["rounds"]
    if args.trace:
        metrics = per_layer(runs, end)
        print_table(
            f"per-layer table: {args.workload}, seed {args.seed}, "
            f"{rounds} rounds",
            metrics,
            notes=(
                "counts: exact, summed over the points' measure windows",
                "spans: host seconds, sum over points of the median over "
                "rounds",
                f"*.self_share: {metrics['trace.samples'][0]} PC samples "
                "at 4 kHz over the measure windows; symbol -> layer by "
                "the source file that defines the symbol (nm -l); code "
                "inlined across modules is charged to the caller",
            ))
    else:
        metrics = end_to_end(runs, end)
        print_table(f"end-to-end: {args.workload}, seed {args.seed}, "
                    f"{rounds} rounds (per-point medians over rounds)",
                    metrics)
    print(f"point runs: {len(runs)} attempted, {failed} failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
