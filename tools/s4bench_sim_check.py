#!/usr/bin/env python3
"""Checks that s4bench's modelled (sim-time) figures match a committed snapshot.

Every sim-time figure s4bench reports is deterministic for a seed, so a change
that only touches host-side code (data structures, allocation, copying) must
leave them bit-identical. This turns that claim into a gate.

    # after: python3 s4bench/run.py --workload W --seed 1 --seconds 3 --trace 0 > s4bench_W.out
    python3 tools/s4bench_sim_check.py             # compare ./s4bench_*.out to the snapshot
    python3 tools/s4bench_sim_check.py --update    # rewrite the snapshot from those outputs
    python3 tools/s4bench_sim_check.py --self-test

The last line of each s4bench_<workload>.out is the benchmark's JSON result.
Compared exactly: sim_ops_per_s, sim_p50_us, sim_p99_us, write_amp and
space_amp. recovery_sim_s is left out: mount's parallel scan threads make it
vary from run to run. Use --update only in a change that means to alter
modelled behaviour, and say so in that change.
"""
import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "bench", "baselines", "s4bench_sim_seed1.json")
WORKLOADS = ["smallfile", "timetravel", "array"]
METRICS = ["sim_ops_per_s", "sim_p50_us", "sim_p99_us", "write_amp", "space_amp"]


def read_result(path):
    """Returns {metric: value} from the last line of one s4bench output."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty output")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise ValueError(f"{path}: the run reports correct=false")
    metrics = result["metrics"]
    missing = [m for m in METRICS if m not in metrics]
    if missing:
        raise ValueError(f"{path}: missing metrics {missing}")
    return {m: metrics[m]["value"] for m in METRICS}


def read_outputs(out_dir):
    return {w: read_result(os.path.join(out_dir, f"s4bench_{w}.out")) for w in WORKLOADS}


def compare(baseline, current):
    """Returns one line per figure that differs from the snapshot."""
    problems = []
    for w in WORKLOADS:
        want = baseline["workloads"].get(w)
        if want is None:
            problems.append(f"{w}: not in the snapshot")
            continue
        for m in METRICS:
            if current[w][m] != want[m]:
                problems.append(f"{w}.{m}: snapshot {want[m]!r}, now {current[w][m]!r}")
    return problems


def write_baseline(path, current):
    snapshot = {
        "about": "s4bench sim-time figures at seed 1; checked exactly by "
                 "tools/s4bench_sim_check.py",
        "seed": 1,
        "metrics": METRICS,
        "workloads": current,
    }
    with open(path, "w") as f:
        json.dump(snapshot, f, indent=2, sort_keys=True)
        f.write("\n")


def check(out_dir, baseline_path, update):
    try:
        current = read_outputs(out_dir)
    except (OSError, ValueError, KeyError) as e:
        print(f"s4bench_sim_check: {e}", file=sys.stderr)
        return 1
    if update:
        write_baseline(baseline_path, current)
        print(f"s4bench_sim_check: wrote {baseline_path}")
        return 0
    with open(baseline_path) as f:
        baseline = json.load(f)
    problems = compare(baseline, current)
    for p in problems:
        print(f"MISMATCH {p}")
    if problems:
        print(f"s4bench_sim_check: {len(problems)} sim-time figure(s) moved; a host-only "
              "change must not move them (--update only for an intended model change)")
        return 1
    print(f"s4bench_sim_check: {len(WORKLOADS)} workloads x {len(METRICS)} sim-time figures "
          "match the snapshot")
    return 0


def self_test():
    def line(values, correct=True):
        metrics = {m: {"value": v, "unit": "x"} for m, v in values.items()}
        metrics["recovery_sim_s"] = {"value": 0.5, "unit": "s"}
        return json.dumps({"correct": correct, "attempted": 10, "failed": 0,
                           "metrics": metrics})

    def write_outputs(out_dir, per_workload):
        for w, text in per_workload.items():
            with open(os.path.join(out_dir, f"s4bench_{w}.out"), "w") as f:
                f.write("s4bench workload=" + w + "\n" + text + "\n")

    base = {w: {m: 1000.0 / (i + 1) + 0.125 * j for j, m in enumerate(METRICS)}
            for i, w in enumerate(WORKLOADS)}
    failures = 0

    def expect(name, got, want):
        nonlocal failures
        ok = got == want
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}")

    with tempfile.TemporaryDirectory() as d:
        snapshot = os.path.join(d, "snapshot.json")
        write_outputs(d, {w: line(base[w]) for w in WORKLOADS})
        expect("--update writes a snapshot", check(d, snapshot, update=True), 0)
        expect("identical figures pass", check(d, snapshot, update=False), 0)
        moved = dict(base["timetravel"])
        moved["sim_p99_us"] = moved["sim_p99_us"] * (1 + 1e-15)
        write_outputs(d, {"timetravel": line(moved)})
        expect("a mismatching line fails", check(d, snapshot, update=False), 1)
        write_outputs(d, {"timetravel": line(base["timetravel"], correct=False)})
        expect("an incorrect run fails", check(d, snapshot, update=False), 1)
        write_outputs(d, {"timetravel": line(base["timetravel"])})
        os.remove(os.path.join(d, "s4bench_array.out"))
        expect("a missing output fails", check(d, snapshot, update=False), 1)
    print("PASS" if failures == 0 else f"FAIL: {failures} case(s)")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the snapshot from the outputs")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return check(".", BASELINE, args.update)


if __name__ == "__main__":
    sys.exit(main())
