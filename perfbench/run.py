"""DPC benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload kvfs-buffered --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload in a fresh process per repetition, one
after another, until ``--seconds`` of wall time have passed (at least
three repetitions), and prints the end-to-end metrics.  The simulated
metrics must come out identical in every repetition; the simulator's own
speed, memory and set-up time are reported as medians.

``--trace 1`` runs the workload once untraced and once with layer spans
recorded, both at the same seed, and prints the per-layer metrics.  The two
runs must agree on every simulated metric and every count.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
ops that raised and reads the verifier found stale.  When a benchmark-level
check fails (a determinism mismatch, a worker that crashed, a verifier that
checked nothing) no result is printed: the check is named on standard error
and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import PER_LAYER, PREDICTIONS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: end-to-end metric -> unit.  The median latency is printed but is not one
#: of them: on kvfs-buffered it is the modelled cache-hit cost, the same
#: 2.2 us at every seed, so it cannot show a change in the system.
END_TO_END = {
    "sim_kiops": "kops/s",
    "p99_us": "us",
    "host_cpu_us_per_op": "us",
    "host_ops_per_cpu_s": "ops/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: worker outputs that must repeat exactly at a fixed seed
DETERMINISTIC = (
    "sim_kiops",
    "p50_us",
    "p99_us",
    "host_cpu_us_per_op",
    "ops_attempted",
    "ops_failed",
    "stale_reads",
    "raised_ops",
    "timed_ops",
    "sim_events",
    "verify",
    "dup_live_pages",
    "layer_counts",
)
MIN_REPS = 3
MAX_REPS = 15
#: a run must end well inside the 180 s it is allowed
DEADLINE_S = 165.0


class BenchError(RuntimeError):
    """A benchmark-level fault: the run cannot produce a trustworthy result."""


def _worker(root: str, workload: str, seed: int, traced: bool, timeout: float) -> dict:
    env = dict(os.environ)
    for var in ("REPRO_SEED", "REPRO_TRACE"):
        env.pop(var, None)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--traced", str(int(traced)),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, timeout=max(1.0, timeout), text=True
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker for {workload} seed {seed} timed out after {e.timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} seed {seed} exited with {proc.returncode}")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        raise BenchError(f"worker for {workload} seed {seed} printed no result")
    return json.loads(lines[-1])


def _first_mismatch(a, b, path: str):
    """Name of the first value that differs between two results, else None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            bad = _first_mismatch(a.get(key), b.get(key), f"{path}.{key}" if path else key)
            if bad:
                return bad
        return None
    return None if a == b else f"{path} ({a!r} != {b!r})"


def _check_same(results: list, what: str) -> None:
    ref = {k: results[0][k] for k in DETERMINISTIC}
    for r in results[1:]:
        bad = _first_mismatch(ref, {k: r[k] for k in DETERMINISTIC}, "")
        if bad:
            raise BenchError(f"determinism gate ({what}): {bad}")


def _check_verified(r: dict) -> None:
    if r["verify"]["pages_checked"] <= 0:
        raise BenchError("verifier checked no page")


def _end_to_end(root: str, workload: str, seed: int, seconds: float, t_start: float):
    results = []
    while len(results) < MAX_REPS:
        elapsed = time.monotonic() - t_start
        if len(results) >= MIN_REPS and elapsed >= seconds:
            break
        if results:
            per_rep = elapsed / len(results)
            if elapsed + per_rep > DEADLINE_S:
                if len(results) < MIN_REPS:
                    raise BenchError(f"only {len(results)} repetitions fit in {DEADLINE_S:.0f} s")
                break
        results.append(
            _worker(root, workload, seed, False, DEADLINE_S - (time.monotonic() - t_start))
        )
    _check_same(results, f"{len(results)} processes")
    ref = results[0]
    _check_verified(ref)
    metrics = {k: ref[k] for k in ("sim_kiops", "p99_us", "host_cpu_us_per_op")}
    notes = []
    for k in ("host_ops_per_cpu_s", "peak_rss_mb", "setup_s", "setup_wall_s"):
        vals = [r[k] for r in results]
        notes.append(f"{k} per process: " + " ".join(f"{v:.6g}" for v in vals))
        metrics[k] = statistics.median(vals)
    return ref, notes, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}


def _per_layer(root: str, workload: str, seed: int, t_start: float):
    plain = _worker(root, workload, seed, False, DEADLINE_S - (time.monotonic() - t_start))
    traced = _worker(root, workload, seed, True, DEADLINE_S - (time.monotonic() - t_start))
    _check_same([plain, traced], "traced vs untraced")
    _check_verified(plain)
    values = dict(plain["layer_counts"])
    for layer, us in traced["self_us_per_op"].items():
        values[f"{layer}.self_us_per_op"] = us
    values["cache.dup_live_pages"] = plain["dup_live_pages"]
    plain_cpu = plain["timed_norm_cpu_s"]
    values["sim.host_us_per_event"] = plain_cpu / plain["sim_events"] * 1e6
    values["trace.overhead_pct"] = (traced["timed_norm_cpu_s"] / plain_cpu - 1.0) * 100.0
    metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    notes = ["2 processes: untraced, then traced"]
    for layer, (moves, workloads) in PREDICTIONS.items():
        if workload in workloads:
            notes.append(f"prediction: {layer} layer metrics should move {', '.join(moves)}")
    return plain, notes, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description="DPC closed-loop benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t_start = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "core", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    try:
        if args.trace:
            ref, notes, metrics = _per_layer(root, args.workload, args.seed, t_start)
        else:
            ref, notes, metrics = _end_to_end(
                root, args.workload, args.seed, args.seconds, t_start
            )
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    v = ref["verify"]
    read_pages = v["pages_checked"] + v["pages_overlapped"]
    print(f"workload {args.workload}  seed {args.seed}  clients 16, closed loop  "
          f"timed ops {ref['timed_ops']}")
    for line in notes:
        print(line)
    print(f"ops_attempted {ref['ops_attempted']}  ops_failed {ref['ops_failed']} "
          f"(stale reads {ref['stale_reads']}, raised {ref['raised_ops']})")
    print(f"read pages verified {v['pages_checked']}/{read_pages} "
          f"({v['pages_checked'] / read_pages:.1%}), overlapped {v['pages_overlapped']}, "
          f"stale pages {v['pages_stale']}")
    print(f"p50_us {ref['p50_us']:.6g} us, p99 over {ref['p99_samples']} samples")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    # Every check that can fail raised BenchError above, so a printed result
    # is a verified one; stale reads and raised ops are its failed ops.
    print(json.dumps({
        "correct": True,
        "attempted": ref["ops_attempted"],
        "failed": ref["ops_failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
