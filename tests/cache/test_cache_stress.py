"""Concurrency stress: parallel host readers/writers against the sharded
flusher/evictor.

Invariants checked (satellite of the scale-out cache PR):

* **no torn reads** — every page a reader observes is a value some writer
  actually wrote in full (writers use self-describing uniform payloads);
* **no lost dirty pages** — after the writers finish and ``flush_all``
  returns, every key's final version is bit-exact in the cache or in the
  backend;
* **metadata stays consistent** — free-count conservation and no duplicate
  live keys, even with eviction pressure across shard boundaries;
* **no stale reads under demand fills** — a read never returns a version
  older than the newest write that completed before it began, when missed
  pages are fetched and installed by the DPU while writers race them.
"""

import random

import pytest

from repro.cache.control import CacheControlPlane
from repro.cache.hostplane import HostCachePlane
from repro.cache.layout import CacheLayout, LOCK_FREE, ST_CLEAN, ST_DIRTY
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool
from repro.sim.memory import MemoryArena
from repro.sim.pcie import PcieLink
from repro.sim.resources import Store

PAGE = 4096


class FakeBackend:
    def __init__(self, env):
        self.env = env
        self.store = {}
        self.writebacks = 0

    def writeback(self, inode, lpn, data):
        yield self.env.timeout(5e-6)
        self.store[(inode, lpn)] = data
        self.writebacks += 1

    def fetch(self, inode, lpn):
        yield self.env.timeout(5e-6)
        data = self.store.get((inode, lpn))
        return None if data is None else [(lpn, data)]


def build(pages, buckets, shards, seqlock=True):
    env = Environment()
    p = default_params().with_overrides(
        cache_pages=pages,
        cache_buckets=buckets,
        cache_ctrl_shards=shards,
        cache_seqlock=seqlock,
        cache_flush_period=50e-6,  # aggressive flushing = more interleaving
    )
    arena = MemoryArena(pages * 5000 + (1 << 20))
    link = PcieLink(env, arena, latency=p.pcie_latency, bandwidth=p.pcie_bandwidth)
    host_cpu = CpuPool(env, 16, switch_cost=0)
    dpu_cpu = CpuPool(env, 16, switch_cost=0)
    layout = CacheLayout(arena, pages, PAGE, buckets)
    mailbox = Store(env)
    host = HostCachePlane(env, layout, host_cpu, p, mailbox)
    backend = FakeBackend(env)
    ctrl = CacheControlPlane(
        env, link, dpu_cpu, p, layout, mailbox,
        writeback=backend.writeback, fetch=backend.fetch,
        prefetch_enabled=False,
    )
    return env, layout, host, ctrl, backend


def payload(inode, lpn, ver):
    """Self-describing page: a uniform byte derived from (inode, lpn, ver).

    Uniformity makes tearing detectable (a torn copy mixes two byte values);
    the recorded version log makes every observed value attributable.
    """
    return bytes([(inode * 89 + lpn * 31 + ver * 7) % 251]) * PAGE


@pytest.mark.parametrize("shards,seqlock", [(1, False), (4, True), (8, True)])
def test_concurrent_readers_writers_flushers(shards, seqlock):
    n_inodes, n_lpns, versions = 3, 8, 6
    # 24 distinct keys through a 16-page cache: constant eviction pressure.
    env, lay, host, ctrl, backend = build(
        pages=16, buckets=4, shards=shards, seqlock=seqlock
    )
    written = {}  # key -> list of versions written so far
    torn = []
    unattributed = []

    def writer(inode):
        for ver in range(versions):
            for lpn in range(n_lpns):
                data = payload(inode, lpn, ver)
                yield from host.write(inode, lpn, data)
                written.setdefault((inode, lpn), []).append(ver)
                yield env.timeout(2e-6)

    def reader(inode, seed):
        for i in range(versions * n_lpns):
            lpn = (seed + i * 5) % n_lpns
            data = yield from host.read(inode, lpn)
            if data is None:
                yield env.timeout(3e-6)
                continue
            if len(set(data)) != 1:
                torn.append((inode, lpn))
            else:
                vers = written.get((inode, lpn), [])
                if not any(data == payload(inode, lpn, v) for v in vers):
                    unattributed.append((inode, lpn, data[0]))
            yield env.timeout(1e-6)

    procs = []
    for inode in range(1, n_inodes + 1):
        procs.append(env.process(writer(inode)))
        procs.append(env.process(reader(inode, inode)))
    env.run(until=env.all_of(procs))

    assert not torn, f"torn reads observed: {torn[:3]}"
    assert not unattributed, f"phantom values observed: {unattributed[:3]}"

    # Writers are done: flush everything and verify durability.
    final = env.process(ctrl.flush_all())
    env.run(until=final)
    env.run(until=env.now + 0.01)  # drain stragglers (evictions in flight)

    for inode in range(1, n_inodes + 1):
        for lpn in range(n_lpns):
            expect = payload(inode, lpn, versions - 1)
            idx = host._find(inode, lpn)
            if idx is not None:
                assert lay.read_page(idx) == expect, (
                    f"cache holds stale data for {(inode, lpn)}"
                )
                assert lay.entry_status(idx) == ST_CLEAN
            else:
                assert backend.store.get((inode, lpn)) == expect, (
                    f"final version of {(inode, lpn)} lost on eviction"
                )

    # Metadata invariants at quiescence.
    live = [
        i for i in range(lay.pages) if lay.entry_status(i) in (ST_CLEAN, ST_DIRTY)
    ]
    assert lay.free_count() + len(live) == lay.pages
    keys = [lay.entry_key(i) for i in live]
    assert len(keys) == len(set(keys)), "duplicate live keys after stress"
    assert all(
        lay.read_entry(i)["lock"] == LOCK_FREE for i in range(lay.pages)
    ), "a lock word leaked"
    assert all(
        lay.entry_gen(i) % 2 == 0 for i in range(lay.pages)
    ), "an odd (mid-mutation) generation leaked"


def test_stress_with_prefetch_and_read_back_bit_exact():
    """Sequential readers + writers on disjoint inodes with prefetch on:
    prefetched pages must be bit-exact against the backend."""
    env, lay, host, ctrl, backend = build(pages=64, buckets=8, shards=4)
    ctrl.prefetch_enabled = True
    for lpn in range(32):
        backend.store[(9, lpn)] = payload(9, lpn, 0)
    mismatched = []

    def seq_reader():
        for lpn in range(32):
            data = yield from host.read(9, lpn)
            if data is None:
                yield env.timeout(20e-6)  # demand-fetch think time
            elif data != payload(9, lpn, 0):
                mismatched.append(lpn)
            yield env.timeout(5e-6)

    def writer():
        for ver in range(5):
            for lpn in range(6):
                yield from host.write(2, lpn, payload(2, lpn, ver))
                yield env.timeout(4e-6)

    procs = [env.process(seq_reader()), env.process(writer())]
    env.run(until=env.all_of(procs))
    assert not mismatched, f"prefetched pages corrupt: {mismatched}"
    assert ctrl.prefetched_pages > 0

    final = env.process(ctrl.flush_all())
    env.run(until=final)
    for lpn in range(6):
        expect = payload(2, lpn, 4)
        idx = host._find(2, lpn)
        got = lay.read_page(idx) if idx is not None else backend.store.get((2, lpn))
        assert got == expect


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_demand_fills_racing_writers_serve_no_stale_data(seed):
    """Readers that miss read the backend and install the page with a demand
    fill, as the DPU dispatcher does, while writers keep rewriting the same
    pages through a cache too small to hold them.  A fill must never install
    a second live copy of a page, and never data older than a write that
    landed while its backend read was in flight."""
    rng = random.Random(seed)
    env, lay, host, ctrl, backend = build(pages=16, buckets=4, shards=2)
    keys = [(inode, lpn) for inode in (1, 2) for lpn in range(12)]
    for key in keys:
        backend.store[key] = payload(*key, 0)
    latest = {key: 0 for key in keys}  # newest version whose write completed
    stale, dups = [], []

    def live_copies(key):
        return sum(
            1
            for i in lay.chain(lay.bucket_of(*key))
            if lay.entry_status(i) in (ST_CLEAN, ST_DIRTY) and lay.entry_key(i) == key
        )

    def writer(mine):
        # One writer per key, so a key's versions complete in order.
        for _ in range(120):
            key = rng.choice(mine)
            yield from host.write(*key, payload(*key, latest[key] + 1))
            latest[key] += 1
            yield env.timeout(rng.uniform(0, 4e-6))

    def reader():
        for _ in range(200):
            key = rng.choice(keys)
            floor = latest[key]
            data = yield from host.read(*key)
            if data is None:
                # Miss: a backend read that samples the page midway, then an
                # off-critical-path fill carrying the write count it began at.
                since = ctrl.backend_writes
                yield env.timeout(rng.uniform(1e-6, 15e-6))
                data = backend.store[key]
                yield env.timeout(rng.uniform(1e-6, 15e-6))
                env.process(ctrl.fill(*key, data, since))
            # latest + 1 may be a write still in flight: it is visible early
            fresh = range(floor, latest[key] + 2)
            if not any(data == payload(*key, v) for v in fresh):
                stale.append((key, floor, data[0]))
            if live_copies(key) > 1:
                dups.append(key)
            yield env.timeout(rng.uniform(0, 2e-6))

    procs = [env.process(writer(keys[w::3])) for w in range(3)] + [
        env.process(reader()) for _ in range(4)
    ]
    env.run(until=env.all_of(procs))
    env.run(until=env.now + 0.01)  # let the last fills land
    dups += [key for key in keys if live_copies(key) > 1]
    assert not stale, f"stale reads (key, floor version, byte): {stale[:3]}"
    assert not dups, f"pages with two live entries: {sorted(set(dups))[:3]}"
