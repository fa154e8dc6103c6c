"""Repeat run.py over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload NAME [--seeds 1-10] [--seconds 20]
                                [--trace 0|1] [--bench FILE]

Runs one process per seed, one after another, and prints for every
metric the median, the quartiles (statistics.quantiles, n=4) and the
spread, the distance between the quartiles as a share of the median.
With --bench, the summary is stored under the workload's key in FILE
(a BENCH_*.json file), next to any other workload already there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--bench", type=Path)
    args = p.parse_args()

    records, status = [], 0
    for seed in args.seeds:
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        status = status or proc.returncode
        path = WORK / f"result-{args.workload}-s{seed}-t{args.trace}.json"
        if proc.returncode != 0 or not path.exists():
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
            print(f"seed {seed}: exit {proc.returncode}")
            continue
        rec = json.loads(path.read_text())
        records.append(rec)
        print(
            f"seed {seed}: correct={rec['correct']} wall_s={rec['wall_s']:.1f} "
            + " ".join(f"{k}={m['value']:.5g}" for k, m in rec["metrics"].items()
                       if args.trace == 0)
        )
    if not records:
        return status or 1

    metrics = {
        k: summary([r["metrics"][k]["value"] for r in records])
        for k in records[0]["metrics"]
    }
    for k, m in metrics.items():
        m["unit"] = records[0]["metrics"][k]["unit"]
    numeric = [
        k for k, v in records[0]["details"].items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    ]
    details = {k: summary([r["details"][k] for r in records]) for k in numeric}
    for k, m in metrics.items():
        print(
            f"{k:<36} median={m['median']:<12.6g} q1={m['q1']:<12.6g} "
            f"q3={m['q3']:<12.6g} spread={m['spread']:.4f} {m['unit']}"
        )
    for k, m in details.items():
        print(f"  {k:<34} median={m['median']:<12.6g} spread={m['spread']:.4f}")

    if args.bench:
        bench = json.loads(args.bench.read_text()) if args.bench.exists() else {}
        entry = bench.setdefault(args.workload, {})
        entry["traced" if args.trace else "untraced"] = {
            "seeds": args.seeds,
            "seconds": args.seconds,
            "runs": len(records),
            "all_correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "environment": records[0]["environment"],
            "metrics": metrics,
            "details": details,
            "text_details": {
                k: sorted({str(r["details"][k]) for r in records})
                for k, v in records[0]["details"].items()
                if isinstance(v, str)
            },
        }
        args.bench.write_text(json.dumps(bench, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
