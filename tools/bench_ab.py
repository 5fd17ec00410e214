"""Compare two checkouts on the benchmark: run ``bench/run.py`` in each, in
alternated pairs, and write every run and a summary to one JSON file.

Usage, from anywhere:

    python3 tools/bench_ab.py --base DIR_A --head DIR_B \
        --workload paper:10 --workload linear:5 --seconds 45 --seed 1 \
        --out BENCH_<n>.json

``--workload NAME:PAIRS`` runs PAIRS pairs of that workload.  Pair i runs
the base first when i is even and the head first when i is odd, so that a
drift of the machine's speed weighs on both sides alike.  Each run's final
JSON line is stored unchanged, with each operation's fast mean, read from
the block of ``bench/run.py``'s output that gives the seconds of each
operation.  The summary gives, per workload and metric, each side's median
and quartiles, the median's relative change, the pairs that the head won,
and whether the medians are apart by more than the base's interquartile
range; and, per operation, each side's median of the fast means.  A
metric's direction ("lower" or "higher" is better) is read from the head's
``BENCHMARK.json``.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "head")


def commit(checkout: Path) -> dict:
    """The checkout's commit, and whether its tree differs from it."""
    def git(*args):
        out = subprocess.run(["git", "-C", str(checkout), *args],
                             capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def per_operation(stdout: str) -> dict:
    """Each operation's fast mean, as bench/run.py takes it (the mean of
    the fastest three quarters), of its seconds at the reference speed:
    the second of each ``measured/reference`` pair that run.py prints
    after "seconds of each operation"."""
    out, inside = {}, False
    for line in stdout.splitlines():
        if line.startswith("seconds of each operation"):
            inside = True
        elif not line.startswith("  "):
            inside = False
        elif inside and not line.lstrip().startswith("FAILED"):
            tokens = line.split()
            k = len(tokens)
            while k and re.fullmatch(r"[0-9.]+/[0-9.]+|-", tokens[k - 1]):
                k -= 1
            times = sorted(float(t.split("/")[1]) for t in tokens[k:] if t != "-")
            if times:
                out[" ".join(tokens[:k])] = statistics.fmean(
                    times[:(3 * len(times) + 3) // 4])
    return out


def run(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One run of bench/run.py in the checkout: its final JSON line, and
    its operations' fast means (see ``per_operation``)."""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=checkout, capture_output=True, text=True)
    lines = [line for line in out.stdout.splitlines() if line.strip()]
    if out.returncode != 0 or not lines:
        raise SystemExit(f"bench/run.py failed in {checkout} (exit {out.returncode}):\n"
                         f"{out.stderr}")
    return json.loads(lines[-1]), per_operation(out.stdout)


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; all three equal for one value)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summary(runs: list[dict], better: dict) -> dict:
    """Per metric of one workload's runs: both sides' spread and the
    pairs that the head won."""
    by_pair: dict = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
    pairs = [p for p in by_pair.values() if all(s in p for s in SIDES)]
    out = {}
    for name in pairs[0]["base"]["metrics"] if pairs else ():
        lower = better.get(name, "lower") == "lower"
        values = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        base, head = spread(values["base"]), spread(values["head"])
        won = sum(1 for b, h in zip(values["base"], values["head"])
                  if (h < b if lower else h > b))
        gain = (base["median"] - head["median"]) * (1 if lower else -1)
        out[name] = {
            "better": "lower" if lower else "higher",
            "base": base,
            "head": head,
            "median_change": (head["median"] / base["median"] - 1
                              if base["median"] else None),
            "pairs_won": won,
            "pairs": len(pairs),
            "gain_exceeds_base_iqr": gain > base["q3"] - base["q1"],
        }
    out["failed_ratio"] = {
        s: sum(p[s]["failed"] for p in pairs) / max(1, sum(p[s]["attempted"] for p in pairs))
        for s in SIDES}
    ops = {s: [r["per_operation_s"] for r in runs if r["side"] == s] for s in SIDES}
    out["per_operation_s"] = {}
    for label in ops["base"][0] if ops["base"] else ():
        medians = {s: statistics.median(r[label] for r in ops[s] if label in r)
                   for s in SIDES}
        out["per_operation_s"][label] = {
            **medians, "median_change": medians["head"] / medians["base"] - 1}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--head", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True,
                    help="NAME:PAIRS, repeatable")
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    checkouts = {"base": args.base.resolve(), "head": args.head.resolve()}
    spec = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    result = {
        "sides": {s: commit(c) for s, c in checkouts.items()},
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    for item in args.workload:
        workload, pairs = item.split(":")
        runs = []
        for i in range(int(pairs)):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                r, per_op = run(checkouts[side], workload, args.seed, args.seconds)
                runs.append({"pair": i, "side": side, "result": r,
                             "per_operation_s": per_op})
                geomean = r["metrics"].get("op_geomean_s", {}).get("value")
                print(f"{workload} pair {i} {side}: op_geomean_s {geomean}", flush=True)
        result["workloads"][workload] = {"runs": runs, "summary": summary(runs, better)}
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    for workload, w in result["workloads"].items():
        for name, s in w["summary"].items():
            if name not in ("failed_ratio", "per_operation_s"):
                print(f"{workload:8s} {name:14s} base {s['base']['median']:.5g} "
                      f"head {s['head']['median']:.5g} "
                      f"({s['median_change']:+.1%}) won {s['pairs_won']}/{s['pairs']}")
        for label, s in w["summary"]["per_operation_s"].items():
            print(f"{workload:8s} {label:30s} base {s['base']:.5g} head {s['head']:.5g} "
                  f"({s['median_change']:+.1%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
