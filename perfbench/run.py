"""The repository benchmark: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit-full --seed 1 --seconds 20 --trace 0

Workloads: ``fit-full``, ``paper-basket``, ``serve-assign``,
``stream-drift`` (see ``perfbench/README.md``).  The program under test
is imported from ``src/`` of the same checkout.  Everything the run
writes (native-kernel cache, model artifacts, server reports) stays
under ``.perfbench/`` in the checkout.

With ``--trace 0`` the last line of standard output is a JSON object
with every end-to-end metric; with ``--trace 1`` it carries every
per-layer metric instead.  Lines before it give the same figures under
the names used in the design notes, the correctness checks and the
provenance of the run (host, CPU affinity, native backend, resolved
backends, seed, host-speed probe readings).  Timings of in-process work
are expressed at a reference host speed (``perfbench/hostspeed.py``);
their wall-clock values are printed next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
DEFAULT_SEED = 1
DEADLINE_S = 170


def _timeout(signum: int, frame: object) -> None:
    raise TimeoutError(f"benchmark run exceeded {DEADLINE_S} s")


def provenance(seed: int, workload: str) -> dict:
    from repro.native import backend_info
    from repro.obs.manifest import host_metadata
    from repro.serve.index import resolve_assign_backend

    return {
        "workload": workload,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "host": host_metadata(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "native": backend_info(),
        "assign_backend_auto": resolve_assign_backend("auto")[0],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ROCK repository benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # the native kernels' build cache and every temporary file stay in the checkout
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(STATE / "cache")
    os.environ["TMPDIR"] = str(STATE / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    tempfile.tempdir = str(STATE / "tmp")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.hostspeed import HostSpeed, cpu_ticks, steal_share
    from perfbench.metrics import MOVES, units
    from perfbench.serving import serve_assign
    from perfbench.workloads import fit_full, paper_basket, stream_drift

    workloads = {
        "fit-full": fit_full,
        "paper-basket": paper_basket,
        "serve-assign": serve_assign,
        "stream-drift": stream_drift,
    }
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads)}")

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(DEADLINE_S)
    speed = HostSpeed()
    ticks = cpu_ticks()
    with tempfile.TemporaryDirectory(prefix="run-") as work:
        result = workloads[args.workload](
            args.seed, args.seconds, bool(args.trace), Path(work), speed
        )
    signal.alarm(0)

    prov = provenance(args.seed, args.workload)
    prov.update(result.provenance, host_speed=speed.summary(),
                steal_share=steal_share(ticks, cpu_ticks()))
    spec = units("per_layer" if args.trace else "end_to_end")
    values = result.layers if args.trace else result.metrics
    if set(values) != set(spec):
        raise RuntimeError(
            f"measured metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(spec) - set(values))}, unknown {sorted(set(values) - set(spec))}"
        )

    print(f"== {args.workload} seed={args.seed} trace={args.trace}")
    for name, unit in spec.items():
        moves = f"   -> {MOVES.get(name, '')}" if args.trace else ""
        print(f"  {name:32s} {values[name]:14.4f} {unit}{moves}")
    for name, value in result.details.items():
        print(f"  {name}: {json.dumps(value, default=str)}")
    print("provenance: " + json.dumps(prov, default=str))
    print(json.dumps({
        "correct": not result.failed_checks,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in spec.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
