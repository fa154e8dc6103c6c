"""Benchmark of circulant-elgamal: three seeded, closed-loop, one-process workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root; the package is imported from ./src, nothing
is installed. With --trace 0 the last stdout line is one JSON object with
the end-to-end metrics of BENCHMARK.json; with --trace 1, a separate run
that wraps the library's public functions from outside, with the
per-layer metrics. The lines before it give each workload's own metrics
by name and unit. `--workload all` runs the three workloads in turn, one
process each, and prints every workload's metrics.

Every output is checked; any failed check or digest mismatch makes the
run report correct=false and exit 1. Temporary files and per-run result
files go to .perfbench_work/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Printed beside the gated metrics: the request and pass times in
# seconds, then each workload's own metrics; (name, unit).
RAW_METRICS = [("request_s_p50", "s"), ("request_s_tail", "s"), ("pass_s", "s")]
DETAIL_METRICS = {
    "paper-crypto": RAW_METRICS
    + [
        ("encrypt_bytes_per_s", "B/s"),
        ("decrypt_bytes_per_s", "B/s"),
        ("encrypt_block_s_p50", "s"),
        ("encrypt_block_s_tail", "s"),
        ("decrypt_block_s_p50", "s"),
        ("decrypt_block_s_tail", "s"),
    ],
    "desk-pipeline": RAW_METRICS
    + [
        ("encrypt_bytes_per_s", "B/s"),
        ("decrypt_bytes_per_s", "B/s"),
        ("params_gen_s", "s"),
        ("attack_s", "s"),
        ("pipeline_s", "s"),
    ],
    "table2-factor": RAW_METRICS
    + [
        ("table2_s", "s"),
        ("table2_rows_complete", "count"),
        ("table2_cofactor_bits", "bits"),
    ],
}
WORKLOADS = tuple(DETAIL_METRICS)


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in (SRC / "circulant_elgamal").glob("*.py")
    )
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "src_lines": src_lines,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path):
    import tracing
    import workloads as w

    plain, traced = w.WORKLOADS[name]
    if not trace:
        return plain(seed, seconds, work), None
    tracer = tracing.Tracer()
    out = traced(seed, seconds, work, tracer)
    passes = out.details["passes"]
    totals = tracing.span_totals(tracer.spans)
    layer = tracing.per_layer(totals, tracer.counters, passes)
    layer["cli.process_s"] = out.details.get("process_s", 0.0)
    layer["trace.overhead_ratio"] = out.details["overhead_ratio"]
    (top, share), by_kind = tracing.dominant(tracer.spans)
    out.details["dominant_self_time"] = top
    out.details["dominant_share"] = share
    out.details["dominant_by_request_kind"] = {
        kind: f"{fn} {100 * s:.1f}%" for kind, (fn, s) in by_kind.items()
    }
    out.metrics = {m: (layer[m], tracing.UNITS[m]) for m in tracing.PER_LAYER}
    return out, tracer


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU.

    The reference loop (workloads.Yardstick) measures the speed of the
    CPU it runs on, and on a shared host the CPUs drift apart; the work
    it calibrates must run on the same one.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main_one(args) -> int:
    pin_to_one_cpu()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    t0 = time.perf_counter()
    try:
        out, tracer = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall = time.perf_counter() - t0
    env = environment(args.seed)
    correct = out.failed == 0 and not out.problems

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    if tracer is not None:
        spans_path = WORK / f"spans-{tag}.json"
        tracer.dump(spans_path)
        out.details["spans_file"] = str(spans_path.relative_to(ROOT))
        out.details["spans"] = len(tracer.spans)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": wall,
        "environment": env,
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "fail_ratio": out.failed / max(out.attempted, 1),
        "problems": out.problems[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
        "details": out.details,
    }
    (WORK / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} wall_s={wall:.3f}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for problem in out.problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    if tracer is None:
        print(f"  {'fail_ratio':<34} {record['fail_ratio']:.6g} ratio")
        for name, unit in DETAIL_METRICS[args.workload]:
            print(f"  {name:<34} {out.details[name]:.6g} {unit}")
    else:
        print(
            f"  dominant self time: {out.details['dominant_self_time']} "
            f"({100 * out.details['dominant_share']:.1f}% of traced self time)"
        )
        for kind, top in out.details["dominant_by_request_kind"].items():
            print(f"    under {kind} requests: {top}")
        print(
            f"  tracing overhead: {out.details['overhead_ratio']:.3f}x "
            f"({out.details['trace_wall_s']:.3f} s traced / "
            f"{out.details['plain_wall_s']:.3f} s untraced per pass)"
        )
        print(
            "  circulant.power: "
            f"{out.metrics['circulant.power.self_s'][0]:.4f} s self, "
            f"{out.metrics['circulant.power.model_field_mults'][0]:.0f} field mults "
            "by the (popcount-1)*d^2 model"
        )
    for name, (value, unit) in out.metrics.items():
        print(f"  {name:<34} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def main_all(args) -> int:
    """Every workload in its own process; prints all their metrics."""
    rows, status = [], 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", "0",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        path = WORK / f"result-{name}-s{args.seed}-t0.json"
        if not path.exists():
            print(f"{name}: no result (exit {proc.returncode})")
            status = status or 1
            continue
        rec = json.loads(path.read_text())
        rows += [(name, k, m["value"], m["unit"]) for k, m in rec["metrics"].items()]
        rows.append((name, "fail_ratio", rec["fail_ratio"], "ratio"))
        rows += [(name, k, rec["details"][k], u) for k, u in DETAIL_METRICS[name]]
        if not rec["correct"]:
            status = status or 1
    for name, metric, value, unit in rows:
        print(f"{name:<14} {metric:<24} {value:>14.6g} {unit}")
    return status


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "circulant_elgamal" / "__init__.py").is_file():
        print(f"no package source at {SRC}/circulant_elgamal", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return main_all(args)
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
