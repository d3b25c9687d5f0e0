"""Repeat the benchmark over seeds and judge its spread, or compare two sweeps.

    python3 perfbench/sweep.py run --out DIR --seeds 1-10 [--workload W ...] [--trace 1]
    python3 perfbench/sweep.py summary DIR
    python3 perfbench/sweep.py compare BASE_DIR NEW_DIR

``run`` invokes ``perfbench/run.py`` once per (workload, seed), one at a
time, and keeps each run's full output in ``DIR``.  ``summary`` prints,
per workload and end-to-end metric, the median, the quartiles and the
interquartile range as a share of the median, marked ``STEADY`` when it
is below a third of the metric's bound.  ``compare`` prints each
median's change from BASE to NEW in the metric's "worse" direction
against its bound, and flags every run pair whose resolved backends
(fit, merge, assign, native) differ, since such a comparison measures
a different code path rather than a change.  Both print the median
host-speed probe reading of the runs (``run.host_speed``), the yardstick
the timings are normalised by.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import load_spec  # noqa: E402
from perfbench.stats import quartile_spread  # noqa: E402

def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_output(text: str) -> tuple[dict, dict]:
    """``(result line, provenance)`` from one run's standard output."""
    lines = text.strip().splitlines()
    result = json.loads(lines[-1])
    provenance = {}
    for line in lines:
        if line.startswith("provenance: "):
            provenance = json.loads(line[len("provenance: "):])
    return result, provenance


def load_runs(directory: Path) -> dict[str, list[tuple[int, dict, dict]]]:
    runs: dict[str, list[tuple[int, dict, dict]]] = {}
    for path in sorted(directory.glob("*.out")):
        workload, seed, _ = path.stem.rsplit("_", 2)
        try:
            result, prov = parse_output(path.read_text())
        except (ValueError, IndexError):
            print(f"unparseable run: {path}")
            continue
        runs.setdefault(workload, []).append((int(seed), result, prov))
    return runs


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    args.out.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            started = time.monotonic()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            wall = time.monotonic() - started
            out = args.out / f"{workload}_{seed}_t{args.trace}.out"
            out.write_text(done.stdout)
            (out.with_suffix(".err")).write_text(done.stderr)
            print(f"{workload} seed={seed} rc={done.returncode} wall={wall:.1f}s",
                  flush=True)
    return cmd_summary(argparse.Namespace(directory=args.out))


def cmd_summary(args: argparse.Namespace) -> int:
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, runs in sorted(load_runs(args.directory).items()):
        failed = sum(r["failed"] for _, r, _ in runs)
        print(f"== {workload}: {len(runs)} runs, failed ops {failed}, "
              f"all correct {all(r['correct'] for _, r, _ in runs)}")
        speeds = [p["host_speed"]["probe_median_ms"] for _, _, p in runs if "host_speed" in p]
        if speeds:
            print(f"  host speed: probe median {statistics.median(speeds):.2f} ms, "
                  f"min {min(speeds):.2f}, max {max(speeds):.2f}, "
                  f"spread {quartile_spread(speeds):.4f}")
        names = sorted({n for _, r, _ in runs for n in r["metrics"]})
        for name in names:
            values = [r["metrics"][name]["value"] for _, r, _ in runs if name in r["metrics"]]
            spread = quartile_spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "STEADY" if spread < bound / 3 else f"spread > bound/3 ({bound / 3:.3f})"
            print(f"  {name:30s} median {statistics.median(values):14.4f}  "
                  f"min {min(values):12.4f}  max {max(values):12.4f}  "
                  f"spread {spread:.4f}  {verdict}")
    return 0


def backend_key(prov: dict) -> tuple:
    native = prov.get("native", {})
    return (tuple(sorted(prov.get("backends", {}).items())), native.get("backend"))


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    return (new - base) / base if better == "lower" else (base - new) / base


def cmd_compare(args: argparse.Namespace) -> int:
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load_runs(args.base), load_runs(args.new)
    regressed = False
    for workload in sorted(set(base) & set(new)):
        keys = {backend_key(p) for _, _, p in base[workload] + new[workload]}
        if len(keys) > 1:
            print(f"!! {workload}: resolved backends differ between runs: {sorted(keys)}")
        print(f"== {workload}")
        speed = [
            statistics.median(p["host_speed"]["probe_median_ms"] for _, _, p in side)
            for side in (base[workload], new[workload])
        ]
        print(f"  host speed: probe {speed[0]:.2f} -> {speed[1]:.2f} ms "
              f"({speed[1] / speed[0] - 1:+.1%}); timings are normalised by it, "
              f"wall-clock ones in the run outputs are not")
        for name, m in metrics.items():
            a = [r["metrics"][name]["value"] for _, r, _ in base[workload]]
            b = [r["metrics"][name]["value"] for _, r, _ in new[workload]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = worse_by(ma, mb, m["better"])
            flag = "REGRESSED" if worse > m["bound"] else "ok"
            regressed |= worse > m["bound"]
            print(f"  {name:30s} {ma:14.4f} -> {mb:14.4f}  worse by {worse:+.4f} "
                  f"(bound {m['bound']})  {flag}")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--out", type=Path, required=True)
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--workload", action="append")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    summary = sub.add_parser("summary")
    summary.add_argument("directory", type=Path)
    compare = sub.add_parser("compare")
    compare.add_argument("base", type=Path)
    compare.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    handler = {"run": cmd_run, "summary": cmd_summary, "compare": cmd_compare}
    return handler[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
