"""Alternating pairs of benchmark runs at two checkouts, summarised per metric.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload spin \\
        --seed 7 --seconds 25 --pairs 10 [-o BENCH.json]

Each checkout runs its own `bench/run.py --trace 0` in a fresh interpreter,
once per pair; the side that runs first alternates from pair to pair, so a
drift of the host's speed falls on both sides alike. Several workloads may
be named; each gets its own pairs. For every end-to-end metric the summary
gives each side's median and quartiles and the number of pairs the change
wins (a strictly better value in the sense of BENCHMARK.json), and a
`verdict`, the first of these that holds:

  gain          the change wins at least 9/10 of the pairs, and its median
                is better than the parent's by more than the parent's
                quartile spread (q3 - q1);
  regression    the change's median is worse than the parent's by more than
                the metric's bound, a fraction of the parent's median;
  unresolved    the quartile spread of either side is wider than the bound
                and not every change run is better than every parent run;
  within bound  otherwise.

It also gives `correct`, `attempted` and `failed` of every run and the
`environment` block each checkout wrote to its bench_results/. Before the
first pair it deletes every __pycache__ under src/ and bench/ of both
checkouts, so that neither side starts with bytecode left by an earlier run;
apart from those caches, nothing under bench/ changes. The JSON summary goes
to stdout, or to FILE with -o; one line per workload and metric, with its
medians, wins and verdict, goes to stderr.
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def clear_bytecode(checkout):
    """Delete every __pycache__ directory under src/ and bench/ of a checkout."""
    for top in ("src", "bench"):
        for cache in list((checkout / top).rglob("__pycache__")):
            shutil.rmtree(cache)


def run_once(checkout, workload, seed, seconds):
    """Last-line JSON result of one bench/run.py call, with its environment block."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench/run.py failed in {checkout}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    record = checkout / "bench_results" / f"{workload}-seed{seed}-trace0.json"
    result["environment"] = json.loads(record.read_text())["environment"]
    return result


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def verdict(parent, change, wins, sign, bound):
    """gain, regression, unresolved or within bound (see the module docstring).

    sign is +1 where lower is better and -1 where higher is; bound is the
    metric's allowed worsening as a fraction of the parent's median.
    """
    gap = sign * (parent["median"] - change["median"])  # > 0 where the change is better
    allowed = bound * abs(parent["median"])
    if 10 * wins >= 9 * len(parent["values"]) and gap > parent["q3"] - parent["q1"]:
        return "gain"
    if -gap > allowed:
        return "regression"
    spread = max(side["q3"] - side["q1"] for side in (parent, change))
    every_run_better = (max(sign * v for v in change["values"])
                        < min(sign * v for v in parent["values"]))
    if spread > allowed and not every_run_better:
        return "unresolved"
    return "within bound"


def compare(runs, declared):
    """Per-metric medians, quartiles, change wins and verdict of paired runs."""
    out = {}
    for name, spec in declared.items():
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
        sign = 1.0 if spec["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = summarise(values["parent"]), summarise(values["change"])
        out[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                     "parent": parent, "change": change, "change_wins": wins,
                     "ratio": change["median"] / parent["median"],
                     "verdict": verdict(parent, change, wins, sign, spec["bound"])}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR")
    parser.add_argument("change", type=Path, metavar="CHANGE_DIR")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("-o", "--output", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"]}
    for checkout in checkouts.values():
        clear_bytecode(checkout)

    report = {"seed": args.seed, "seconds": args.seconds, "pairs": args.pairs, "workloads": {}}
    for workload in args.workload:
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(checkouts[side], workload, args.seed, args.seconds))
                print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                      f"run_s {runs[side][-1]['metrics']['run_s']['value']:.4g}",
                      file=sys.stderr)
        metrics = compare(runs, declared)
        for name, m in metrics.items():
            print(f"{workload} {name}: {m['parent']['median']:.4g} -> "
                  f"{m['change']['median']:.4g} {m['unit']} ({m['ratio']:.3f}), "
                  f"{m['change_wins']}/{args.pairs} wins: {m['verdict']}", file=sys.stderr)
        report["workloads"][workload] = {
            "metrics": metrics,
            **{key: {side: [run[key] for run in runs[side]] for side in SIDES}
               for key in ("correct", "attempted", "failed")},
            "environment": {side: runs[side][-1]["environment"] for side in SIDES},
        }
    text = json.dumps(report, indent=1) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        args.output.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
