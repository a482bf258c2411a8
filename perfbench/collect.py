"""Run the benchmark over many seeds and summarise every metric.

Usage, from the root of a checkout:

    python3 perfbench/collect.py --seeds 10 --traced 2 --out perfbench/baseline.json
    python3 perfbench/collect.py --workloads mean_large_n --seeds 5 --against perfbench/baseline.json

Each workload runs once per seed with ``--trace 0`` (the seeds are the
default seed 20260815, then 1, 2, ...) and ``--traced`` times with
``--trace 1``; runs of different workloads alternate.  For every
end-to-end metric the summary holds the values, their median and
quartiles, and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json; for every per-layer value (including the workload-specific
ones run.py prints on its ``layers`` line) the same from the traced runs.
``--against`` compares the medians with an earlier summary and flags each
end-to-end metric that got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def _quartiles(values: list[float]) -> dict:
    ordered = sorted(values)
    median = statistics.median(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else (median,) * 3
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    tagged = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines[:-1] if " " in line}
    result = json.loads(lines[-1])
    result["host"] = json.loads(tagged["host"])
    result["layers"] = json.loads(tagged.get("layers", "{}"))
    result["outputs"] = json.loads(tagged["outputs"])
    result["problems"] = [line for line in lines if line.startswith("problem ")]
    return result


def collect(names, seeds, traced, seconds, spec) -> dict:
    raw = {name: {"plain": [], "traced": []} for name in names}
    for k, seed in enumerate(seeds):
        for name in names:
            raw[name]["plain"].append(run_once(name, seed, seconds, 0))
            if k < traced:
                raw[name]["traced"].append(run_once(name, seed, seconds, 1))
            print(f"ran {name} seed {seed}", file=sys.stderr)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summary = {"run_seconds": seconds, "seeds": seeds,
               "host": raw[names[0]]["plain"][0]["host"], "workloads": {}}
    for name in names:
        runs = raw[name]["plain"] + raw[name]["traced"]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "problems": sorted({p for r in runs for p in r["problems"]}),
            "outputs": raw[name]["plain"][0]["outputs"],  # the default seed's
            "end_to_end": {},
            "per_layer": {},
        }
        for metric, meta in bounds.items():
            stats = _quartiles([r["metrics"][metric]["value"] for r in raw[name]["plain"]])
            stats.update(unit=meta["unit"], better=meta["better"], bound=meta["bound"])
            entry["end_to_end"][metric] = stats
        layer_names = sorted({m for r in raw[name]["traced"] for m in r["layers"]})
        for metric in layer_names:
            values = [r["layers"][metric] for r in raw[name]["traced"] if metric in r["layers"]]
            entry["per_layer"][metric] = _quartiles(values)
        summary["workloads"][name] = entry
    return summary


def report(summary: dict, against: dict | None) -> bool:
    ok = True
    for name, entry in summary["workloads"].items():
        ok &= entry["correct"] and entry["failed"] == 0
        print(f"{name}: correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}")
        for metric, s in entry["end_to_end"].items():
            steady = metric == "setup_s" or s["spread"] <= s["bound"]
            ok &= steady
            line = (f"  {metric:16s} median {s['median']:.6g} {s['unit']:5s} "
                    f"spread {s['spread']:.3f} (bound {s['bound']}, third {s['bound'] / 3:.3f})")
            if against and name in against["workloads"]:
                old = against["workloads"][name]["end_to_end"][metric]["median"]
                change = (s["median"] - old) / old
                worse = change if s["better"] == "lower" else -change
                within = worse <= s["bound"]
                ok &= within
                line += f"  vs {old:.6g}: {change:+.3f}{'' if within else '  WORSE THAN BOUND'}"
            print(line + ("" if steady else "  SPREAD ABOVE BOUND"))
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=None, help="default: those in BENCHMARK.json")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    parser.add_argument("--record-hashes", action="store_true",
                        help="write the default seed's output digests to expected_hashes.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = [wl.DEFAULT_SEED] + list(range(1, args.seeds))
    summary = collect(names, seeds, args.traced, seconds, spec)
    if args.record_hashes:
        recorded = {"seed": wl.DEFAULT_SEED, "workloads": {
            name: entry["outputs"] for name, entry in summary["workloads"].items()}}
        (HERE / "expected_hashes.json").write_text(
            json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    against = json.loads(args.against.read_text(encoding="utf-8")) if args.against else None
    return 0 if report(summary, against) else 1


if __name__ == "__main__":
    sys.exit(main())
