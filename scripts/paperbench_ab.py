#!/usr/bin/env python3
"""Interleaved paperbench A/B of this checkout against a base ref.

    python3 scripts/paperbench_ab.py origin/main
    python3 scripts/paperbench_ab.py origin/main --workload bcast_r0 --pairs 10 --seed 7

Checks the base ref out in a temporary git worktree, then runs
`paperbench/run.py --workload W` of both trees PAIRS times (5, or --pairs)
for every workload in BENCHMARK.json (or each --workload given),
alternating which side goes first in each pair. Each run lasts SECONDS
(10); --seed is passed to both trees' run.py.
Both trees build through their own run.py, so both get the same flags.
Prints, per workload and end-to-end metric, each side's median, the ratio
change / base and the pairs the change won. Exits 1 when the change reports
`correct: false`, fails a larger share of operations than the base, lacks a
metric, or has a median worse than the base's by more than the metric's
`bound` in BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 5
SECONDS = 10


def worse_by(better, base, change):
    """How much worse `change` is than `base`, relative to `base` (< 0: better)."""
    delta = base - change if better == "higher" else change - base
    return delta / base if base else (0.0 if delta <= 0 else float("inf"))


def failed_share(runs):
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def compare(end_to_end, base, change):
    """Compares one workload's paired results (run.py result dicts, in pair order).

    Returns (rows, failures): a table row per metric, (name, base median,
    change median, ratio, pairs won, verdict), and one line per failed check.
    """
    rows, failures = [], []
    if not all(r["correct"] for r in change):
        failures.append("correct: false")
    if failed_share(change) > failed_share(base):
        failures.append(f"failed share {failed_share(change):.3g} > base {failed_share(base):.3g}")
    for metric in end_to_end:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        if not all(name in r["metrics"] for r in change):
            failures.append(f"{name}: missing")
            continue
        c = [r["metrics"][name]["value"] for r in change]
        if not all(name in r["metrics"] for r in base):
            rows.append((name, None, statistics.median(c), None, "-", "new"))
            continue
        b = [r["metrics"][name]["value"] for r in base]
        mb, mc = statistics.median(b), statistics.median(c)
        won = sum(worse_by(better, x, y) < 0 for x, y in zip(b, c))
        worse = worse_by(better, mb, mc)
        verdict = "ok" if worse <= bound else "FAIL"
        if verdict == "FAIL":
            failures.append(f"{name}: {worse:.1%} worse than base ({better} is better), bound {bound:.0%}")
        rows.append((name, mb, mc, mc / mb if mb else None, f"{won}/{len(c)}", verdict))
    return rows, failures


def run_command(tree, workload, seed=None):
    """The run.py command line of one run of `workload` in `tree`."""
    cmd = [sys.executable, str(tree / "paperbench" / "run.py"), "--workload", workload,
           "--seconds", str(SECONDS)]
    return cmd if seed is None else cmd + ["--seed", str(seed)]


def run(tree, workload, seed):
    cmd = run_command(tree, workload, seed)
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True).stdout.splitlines()
    try:
        return json.loads(out[-1])
    except (IndexError, ValueError):
        sys.exit(f"paperbench_ab: {tree} printed no result for {workload}")


def positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def parse_args(argv, workloads):
    """The options, with every BENCHMARK.json workload when none is named.

    Exits 2, listing the valid names, on an unknown workload.
    """
    parser = argparse.ArgumentParser(prog="paperbench_ab.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git ref of the base tree")
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="a BENCHMARK.json workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, help="seed passed to both trees' run.py")
    parser.add_argument("--pairs", type=positive_int, default=PAIRS)
    args = parser.parse_args(argv)
    unknown = [w for w in args.workload or [] if w not in workloads]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; valid: {', '.join(workloads)}")
    args.workload = list(dict.fromkeys(args.workload or workloads))
    return args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        sys.exit(__doc__)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    workloads = args.workload
    results = {w: ([], []) for w in workloads}
    with tempfile.TemporaryDirectory(prefix="paperbench_ab.") as tmp:
        base_tree = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", str(base_tree),
                        args.base], stdout=sys.stderr, check=True)
        try:
            for i in range(args.pairs):
                for w in workloads:
                    for side in (0, 1) if i % 2 == 0 else (1, 0):
                        print(f"[ab] pair {i + 1}/{args.pairs} {w} {('base', 'change')[side]}",
                              file=sys.stderr, flush=True)
                        results[w][side].append(
                            run((base_tree, ROOT)[side], w, args.seed))
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(base_tree)])

    fmt = "{:<10} {:<22} {:>11} {:>11} {:>7} {:>5}  {}"
    print(fmt.format("workload", "metric", "base", "change", "ratio", "won", "verdict"))
    failures = []
    for w in workloads:
        rows, failed = compare(bench["end_to_end"], *results[w])
        for name, mb, mc, ratio, won, verdict in rows:
            print(fmt.format(w, name, "-" if mb is None else f"{mb:.4g}", f"{mc:.4g}",
                             "-" if ratio is None else f"{ratio:.3f}", won, verdict))
        failures += [f"{w}: {f}" for f in failed]
    seed = "" if args.seed is None else f", seed {args.seed}"
    print(f"base {args.base}: {args.pairs} interleaved pairs of {SECONDS}-s runs per "
          f"workload{seed}")
    if failures:
        print("paperbench_ab: FAILED\n  " + "\n  ".join(failures))
        return 1
    print("paperbench_ab: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
