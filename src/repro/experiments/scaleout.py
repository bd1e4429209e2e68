"""Scale-out: N DPC clients (host/DPU pairs) against one shared backend.

Sweeps the cluster size and drives every node with the same Zipf-skewed
70/30 random mix over a shared file set (the classic multi-client
scale-out experiment): aggregate throughput should grow close to linearly
while the shared KV shards have headroom, then saturate — the knee shows
up as rising per-op latency and shard queue wait.

Per sweep point the run records aggregate and per-node IOPS, p50/p99
latency, total KV shard queue wait, and host/DPU busy cores, and writes
``results/BENCH_scaleout.json`` with the same envelope the benchmark
suite uses (:func:`repro.experiments.bench.envelope`).

CLI::

    python -m repro.experiments.scaleout [--hosts 1,2,4,8] [--ops 40]
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Optional

from ..core.topology import build_cluster
from ..metrics.stats import ResultTable
from ..params import SystemParams
from ..workload.runner import ClusterJobSpec, run_cluster_job
from .bench import RESULTS_DIR, SCHEMA_VERSION, write_envelope  # noqa: F401  (re-exports)
from .bench import git_sha as _git_sha  # noqa: F401  (re-export)

__all__ = ["run", "run_point", "write_bench", "main", "DEFAULT_HOSTS"]

DEFAULT_HOSTS = (1, 2, 4, 8)


def run_point(
    n_hosts: int,
    params: Optional[SystemParams] = None,
    nthreads: int = 12,
    ops_per_thread: int = 30,
    nfiles: int = 16,
    file_size: int = 2 << 20,
    zipf_s: float = 1.1,
) -> dict:
    """One sweep point: build an ``n_hosts`` cluster, run the shared mix."""
    cluster = build_cluster(n_hosts=n_hosts, params=params)
    spec = ClusterJobSpec(
        name="scaleout",
        mode="randrw",
        mount="/kvfs",
        block_size=8192,
        nthreads=nthreads,
        ops_per_thread=ops_per_thread,
        nfiles=nfiles,
        file_size=file_size,
        read_fraction=0.7,
        zipf_s=zipf_s,
    )
    res = run_cluster_job(cluster, spec)
    return {
        "n_hosts": n_hosts,
        "aggregate_iops": res.iops,
        "per_node_iops": res.per_node_iops,
        "lat_p50_us": res.lat_p50_us,
        "lat_p99_us": res.lat_p99_us,
        "kv_queue_wait_us": cluster.kv_cluster.total_queue_wait() * 1e6,
        "host_cores": res.host_cores,
        "dpu_cores": res.dpu_cores,
        "elapsed_s": res.elapsed,
        "errors": res.errors,
    }


def run(
    hosts=DEFAULT_HOSTS,
    params: Optional[SystemParams] = None,
    nthreads: int = 12,
    ops_per_thread: int = 30,
) -> list[dict]:
    """Full sweep; returns one record per cluster size."""
    return [
        run_point(n, params=params, nthreads=nthreads, ops_per_thread=ops_per_thread)
        for n in hosts
    ]


def table(points: list[dict]) -> ResultTable:
    t = ResultTable(
        "Scale-out: aggregate throughput vs cluster size (randrw 70/30, Zipf 1.1)",
        ["n_hosts", "agg_iops", "p50_us", "p99_us", "kv_qwait_us", "host_cores", "dpu_cores"],
    )
    for p in points:
        t.add_row(
            p["n_hosts"],
            p["aggregate_iops"],
            p["lat_p50_us"],
            p["lat_p99_us"],
            p["kv_queue_wait_us"],
            sum(p["host_cores"]),
            sum(p["dpu_cores"]),
        )
    t.note("per-node thread count fixed; aggregate offered load grows with n_hosts")
    return t


def saturation_point(points: list[dict]) -> int:
    """Smallest cluster size past which aggregate IOPS stops improving by
    >10 % per doubling (the knee); the largest size if it never saturates."""
    for a, b in zip(points, points[1:]):
        if b["aggregate_iops"] < a["aggregate_iops"] * 1.10:
            return a["n_hosts"]
    return points[-1]["n_hosts"]


def write_bench(points: list[dict], path: Optional[Path] = None) -> Path:
    """Write ``BENCH_scaleout.json`` (same envelope as benchmarks/conftest)."""
    metrics: dict = {"saturation_n_hosts": saturation_point(points)}
    for p in points:
        n = p["n_hosts"]
        metrics[f"n{n}/aggregate_iops"] = round(p["aggregate_iops"], 1)
        metrics[f"n{n}/lat_p50_us"] = round(p["lat_p50_us"], 2)
        metrics[f"n{n}/lat_p99_us"] = round(p["lat_p99_us"], 2)
        metrics[f"n{n}/kv_queue_wait_us"] = round(p["kv_queue_wait_us"], 1)
        metrics[f"n{n}/host_cores_total"] = round(sum(p["host_cores"]), 3)
        metrics[f"n{n}/dpu_cores_total"] = round(sum(p["dpu_cores"]), 3)
        metrics[f"n{n}/errors"] = p["errors"]
    return write_envelope("scaleout", metrics, path=path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments.scaleout",
        description="Multi-client scale-out sweep over cluster size.",
    )
    ap.add_argument("--hosts", default=",".join(str(n) for n in DEFAULT_HOSTS),
                    help="comma-separated cluster sizes (default 1,2,4,8)")
    ap.add_argument("--threads", type=int, default=12, help="threads per node")
    ap.add_argument("--ops", type=int, default=30, help="ops per thread")
    ap.add_argument("--no-json", action="store_true",
                    help="skip writing results/BENCH_scaleout.json")
    args = ap.parse_args(argv)
    hosts = [int(x) for x in args.hosts.split(",") if x]
    points = run(hosts, nthreads=args.threads, ops_per_thread=args.ops)
    print(table(points).render())
    print(f"saturation point: n_hosts={saturation_point(points)}")
    if not args.no_json:
        out = write_bench(points)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI
    raise SystemExit(main())
