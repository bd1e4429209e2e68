"""Per-layer counters, read from outside the program.

:func:`sample` reads the node registry (``Cluster.snapshot()``) plus the
public counter attributes of the layer objects ``DpcSystem`` exposes;
:func:`deltas` turns two samples around the timed phase into the per-layer
metrics.  Count-type metrics repeat exactly at a fixed seed.

:data:`PREDICTIONS` records, per layer metric, which end-to-end metric it
should move and on which workload, so later changes can cite them by name.
"""

from __future__ import annotations

__all__ = ["PREDICTIONS", "PER_LAYER", "sample", "deltas"]

#: layer -> (end-to-end metrics it should move, workloads where it should)
PREDICTIONS = {
    "host": (("host_cpu_us_per_op", "p50_us"), ("kvfs-buffered", "kvfs-smallfile", "dfs-direct")),
    "proto": (("p50_us", "host_cpu_us_per_op"), ("kvfs-smallfile", "dfs-direct")),
    "pcie": (("p50_us",), ("kvfs-buffered", "kvfs-smallfile", "dfs-direct")),
    "cache": (("p50_us", "p99_us", "sim_kiops"), ("kvfs-buffered",)),
    "dpu": (("sim_kiops",), ("kvfs-smallfile", "dfs-direct")),
    "kvfs": (("p50_us", "p99_us"), ("kvfs-smallfile", "kvfs-buffered")),
    "kv": (("p50_us", "p99_us"), ("kvfs-smallfile",)),
    "dfs": (("p50_us", "p99_us"), ("dfs-direct",)),
    "ec": (("p99_us",), ("dfs-direct",)),
    "net": (("p50_us",), ("dfs-direct", "kvfs-smallfile")),
    "sim": (("host_ops_per_cpu_s",), ("kvfs-buffered", "kvfs-smallfile", "dfs-direct")),
    "trace": ((), ()),
}

#: every per-layer metric -> unit; all but the last two repeat exactly at a
#: fixed seed (those two are host-time measurements)
PER_LAYER = {
    "host.cpu_us_per_op": "us",
    "host.self_us_per_op": "us",
    "proto.nvme_cmds_per_op": "count",
    "proto.doorbells_per_op": "count",
    "proto.irqs_per_op": "count",
    "proto.ini_cpu_us_per_op": "us",
    "proto.tgt_cpu_us_per_op": "us",
    "proto.self_us_per_op": "us",
    "pcie.dma_per_op": "count",
    "pcie.bytes_per_op": "B",
    "pcie.atomics_per_op": "count",
    "cache.hit_rate": "ratio",
    "cache.evictions_per_op": "count",
    "cache.evict_waits": "count",
    "cache.prefetched_pages_per_op": "count",
    "cache.flushed_pages_per_op": "count",
    "cache.cpu_us_per_op": "us",
    "cache.dup_live_pages": "count",
    "cache.self_us_per_op": "us",
    "dpu.standalone_ops_per_op": "count",
    "dpu.distributed_ops_per_op": "count",
    "dpu.cpu_us_per_op": "us",
    "dpu.self_us_per_op": "us",
    "kvfs.cpu_us_per_op": "us",
    "kvfs.kv_ops_per_op": "count",
    "kvfs.self_us_per_op": "us",
    "kv.gets_per_op": "count",
    "kv.puts_per_op": "count",
    "kv.deletes_per_op": "count",
    "kv.queue_wait_us_per_op": "us",
    "kv.retries": "count",
    "kv.compactions": "count",
    "kv.self_us_per_op": "us",
    "dfs.cpu_us_per_op": "us",
    "dfs.deleg_hit_rate": "ratio",
    "dfs.mds_ops_per_op": "count",
    "dfs.ds_reads_per_op": "count",
    "dfs.ds_writes_per_op": "count",
    "dfs.retries": "count",
    "dfs.self_us_per_op": "us",
    "ec.units_read_per_op": "count",
    "ec.units_written_per_op": "count",
    "ec.degraded_stripes": "count",
    "ec.self_us_per_op": "us",
    "net.msgs_per_op": "count",
    "net.dropped": "count",
    "net.self_us_per_op": "us",
    "sim.events_per_op": "count",
    "sim.host_us_per_event": "us",
    "trace.overhead_pct": "%",
}


def sample(system) -> dict:
    """Flat counter sample: registry snapshot plus layer attributes."""
    snap = dict(system.cluster.snapshot()["dpc"])
    ctrl = system.cache_ctrl
    snap["x.cache.evictions"] = ctrl.evictions
    snap["x.cache.prefetched_pages"] = ctrl.prefetched_pages
    snap["x.cache.flushed_pages"] = ctrl.flushed_pages
    snap["x.kv.queue_wait"] = system.kv_cluster.total_queue_wait()
    snap["x.dfs.mds_ops"] = system.mds.total_ops()
    snap["x.dfs.ds_reads"] = sum(ds.reads for ds in system.dataservers)
    snap["x.dfs.ds_writes"] = sum(ds.writes for ds in system.dataservers)
    fabric = system.fabric
    snap["x.net.msgs"] = sum(ep.messages_out for ep in fabric.endpoints.values())
    snap["x.net.dropped"] = fabric.messages_dropped
    return snap


def _busy(s: dict, pool: str, prefix: str = "") -> float:
    head = f"cpu.{pool}.busy."
    return sum(v for k, v in s.items() if k.startswith(head + prefix))


def deltas(before: dict, after: dict, ops: int, events: int) -> dict:
    """Count-type per-layer metrics over the interval between two samples."""

    def d(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    def per_op(x: float) -> float:
        return x / ops

    us = 1e6
    hits, misses = d("cache.read_hits"), d("cache.read_misses")
    dfs_ops = d("dfs.ops")
    cache_cpu = (
        _busy(after, "host", "cache") - _busy(before, "host", "cache")
        + _busy(after, "dpu", "cache") - _busy(before, "dpu", "cache")
    )
    return {
        "host.cpu_us_per_op": per_op(d("cpu.host.busy.syscall") + d("cpu.host.busy.fs-adapter")) * us,
        "proto.nvme_cmds_per_op": per_op(d("nvme.commands_processed")),
        "proto.doorbells_per_op": per_op(d("pcie.doorbells")),
        "proto.irqs_per_op": per_op(d("pcie.interrupts")),
        "proto.ini_cpu_us_per_op": per_op(d("cpu.host.busy.nvme-ini")) * us,
        "proto.tgt_cpu_us_per_op": per_op(d("cpu.dpu.busy.nvme-tgt")) * us,
        "pcie.dma_per_op": per_op(d("pcie.ops")),
        "pcie.bytes_per_op": per_op(d("pcie.bytes_read") + d("pcie.bytes_written")),
        "pcie.atomics_per_op": per_op(d("pcie.atomics")),
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions_per_op": per_op(d("x.cache.evictions")),
        "cache.evict_waits": d("cache.evict_waits"),
        "cache.prefetched_pages_per_op": per_op(d("x.cache.prefetched_pages")),
        "cache.flushed_pages_per_op": per_op(d("x.cache.flushed_pages")),
        "cache.cpu_us_per_op": per_op(cache_cpu) * us,
        "dpu.standalone_ops_per_op": per_op(d("dispatch.standalone_ops")),
        "dpu.distributed_ops_per_op": per_op(d("dispatch.distributed_ops")),
        "dpu.cpu_us_per_op": per_op(d("cpu.dpu.busy")) * us,
        "kvfs.cpu_us_per_op": per_op(d("cpu.dpu.busy.kvfs")) * us,
        "kvfs.kv_ops_per_op": per_op(d("kv.client.ops_issued")),
        "kv.gets_per_op": per_op(d("kv.engine.gets")),
        "kv.puts_per_op": per_op(d("kv.engine.puts")),
        "kv.deletes_per_op": per_op(d("kv.engine.deletes")),
        "kv.queue_wait_us_per_op": per_op(d("x.kv.queue_wait")) * us,
        "kv.retries": d("kv.client.retries"),
        "kv.compactions": d("kv.engine.compactions"),
        "dfs.cpu_us_per_op": per_op(d("cpu.dpu.busy.dpc-dfs")) * us,
        "dfs.deleg_hit_rate": d("dfs.deleg_hits") / dfs_ops if dfs_ops else 0.0,
        "dfs.mds_ops_per_op": per_op(d("x.dfs.mds_ops")),
        "dfs.ds_reads_per_op": per_op(d("x.dfs.ds_reads")),
        "dfs.ds_writes_per_op": per_op(d("x.dfs.ds_writes")),
        "dfs.retries": d("dfs.retries") + d("dfs.stripe.retries"),
        "ec.units_read_per_op": per_op(d("dfs.stripe.units_read")),
        "ec.units_written_per_op": per_op(d("dfs.stripe.units_written")),
        "ec.degraded_stripes": d("dfs.stripe.degraded_stripes"),
        "net.msgs_per_op": per_op(d("x.net.msgs")),
        "net.dropped": d("x.net.dropped"),
        "sim.events_per_op": per_op(events),
    }
