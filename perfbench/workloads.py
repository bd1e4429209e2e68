"""The three closed-loop DPC workloads and the in-process runner.

Each workload drives one ``build_dpc_system(with_dfs=True)`` at default
params (only ``seed`` overridden) with 16 simulated clients.  A client is
a DES process that issues its next 8 KiB operation only when the previous
one completed.  All inputs derive from the seed: per-client RNGs are
seeded from ``(seed, workload, client)``, and the seed is also the
system's ``params.seed``.

Every run has the same shape: build, prep (files pre-written with
O_DIRECT), an untimed warm-up, then the timed phase.  Each phase is a fixed
budget of ops shared by the clients, so every client stays busy until the
budget is spent.  The budgets are constants here, identical on every
commit, because the simulator's host cost per op grows with run length.

Build, prep and the timed phase run under a :class:`~hostclock.RefClock`,
which drives the simulation in slices of simulated time; the layer counters
are sampled at the end of the slice in which the last timed op completed.
"""

from __future__ import annotations

import random
import resource
import time
from bisect import bisect_left

from hostclock import RefClock
from verify import PAGE, Shadow, payload

__all__ = ["WORKLOADS", "CLIENTS", "BLOCK", "run_workload"]

CLIENTS = 16
BLOCK = 8192
BLOCK_PAGES = BLOCK // PAGE
PREP_CHUNK = 1 << 20


def _client_rng(seed: int, name: str, cid: int) -> random.Random:
    return random.Random(f"perfbench:{seed}:{name}:{cid}")


def _prewrite(vfs, path: str, file_id: int, size: int, shadow: Shadow, flags_create: int):
    """Create ``path`` and fill it with token-0 content using O_DIRECT."""
    from repro.host.vfs import O_DIRECT

    f = yield from vfs.open(path, flags_create | O_DIRECT)
    per = PREP_CHUNK // PAGE
    for off in range(0, size, PREP_CHUNK):
        yield from vfs.write(f, off, payload(0, file_id, off // PAGE, per))
    yield from vfs.close(f)
    shadow.seed(file_id, 0, size // PAGE, 0)


class _SharedFiles:
    """Random 8 KiB reads/writes over a set of shared, pre-written files."""

    mount = ""
    nfiles = 0
    file_size = 0
    direct = True
    read_fraction = 0.7
    zipf_s = 0.0

    def __init__(self, system, seed: int, shadow: Shadow):
        self.system = system
        self.shadow = shadow
        self.handles: list = []
        self.nblocks = self.file_size // BLOCK
        total = self.nfiles * self.nblocks
        self._cdf = None
        if self.zipf_s > 0:
            weights = [1.0 / (r ** self.zipf_s) for r in range(1, total + 1)]
            acc, cdf = 0.0, []
            s = sum(weights)
            for w in weights:
                acc += w
                cdf.append(acc / s)
            cdf[-1] = 1.0
            self._cdf = cdf
            # Popularity rank -> global block, scattered so the hot set is
            # spread over every file and cache bucket.
            self._rank_block = list(range(total))
            random.Random(f"perfbench:{seed}:{self.name}:ranks").shuffle(self._rank_block)
        self._token = 0

    def prep(self):
        from repro.host.vfs import O_CREAT, O_DIRECT

        vfs = self.system.vfs
        for k in range(self.nfiles):
            yield from _prewrite(vfs, self._path(k), k, self.file_size, self.shadow, O_CREAT)
        flags = O_DIRECT if self.direct else 0
        for k in range(self.nfiles):
            f = yield from vfs.open(self._path(k), flags)
            self.handles.append(f)

    def _path(self, k: int) -> str:
        return f"{self.mount}/{self.name}-{k}"

    def _pick(self, rng: random.Random) -> tuple[int, int]:
        if self._cdf is None:
            return rng.randrange(self.nfiles), rng.randrange(self.nblocks)
        g = self._rank_block[bisect_left(self._cdf, rng.random())]
        return divmod(g, self.nblocks)

    def op(self, cid: int, rng: random.Random):
        """One op; returns False when a read came back stale."""
        k, b = self._pick(rng)
        is_read = rng.random() < self.read_fraction
        vfs, sh, page = self.system.vfs, self.shadow, b * BLOCK_PAGES
        if is_read:
            snap = sh.read_begin(k, page, BLOCK_PAGES)
            data = yield from vfs.read(self.handles[k], b * BLOCK, BLOCK)
            return sh.read_end(k, page, snap, data)
        self._token += 1
        token = self._token
        sh.write_begin(k, page, BLOCK_PAGES, token)
        try:
            yield from vfs.write(self.handles[k], b * BLOCK, payload(token, k, page, BLOCK_PAGES))
        finally:
            sh.write_end(k, page, BLOCK_PAGES)
        return True


class KvfsBuffered(_SharedFiles):
    name = "kvfs-buffered"
    mount = "/kvfs"
    nfiles = 12
    file_size = 8 << 20
    direct = False
    zipf_s = 0.9
    warmup_ops = 3200
    timed_ops = 9600


class DfsDirect(_SharedFiles):
    name = "dfs-direct"
    mount = "/dfs"
    nfiles = 4
    file_size = 4 << 20
    direct = True
    warmup_ops = 320
    timed_ops = 1920


class KvfsSmallFile:
    """O_DIRECT small-file churn, each client in its own directory."""

    name = "kvfs-smallfile"
    slots = 128
    initial_files = 32
    warmup_ops = 320
    timed_ops = 1920

    def __init__(self, system, seed: int, shadow: Shadow):
        self.system = system
        self.shadow = shadow
        #: per client: slot -> (file id, token) of the live file
        self.live: list[dict[int, tuple[int, int]]] = [{} for _ in range(CLIENTS)]
        self._next_file = 0
        self._token = 0

    def _path(self, cid: int, slot: int) -> str:
        return f"/kvfs/c{cid}/s{slot}"

    def _create(self, cid: int, slot: int):
        from repro.host.vfs import O_CREAT, O_DIRECT

        self._next_file += 1
        self._token += 1
        fid, token = self._next_file, self._token
        vfs = self.system.vfs
        f = yield from vfs.open(self._path(cid, slot), O_CREAT | O_DIRECT)
        yield from vfs.write(f, 0, payload(token, fid, 0, BLOCK_PAGES))
        yield from vfs.close(f)
        self.live[cid][slot] = (fid, token)
        self.shadow.seed(fid, 0, BLOCK_PAGES, token)

    def prep(self):
        vfs = self.system.vfs
        for cid in range(CLIENTS):
            yield from vfs.mkdir(f"/kvfs/c{cid}")
            for slot in range(self.initial_files):
                yield from self._create(cid, slot)

    def op(self, cid: int, rng: random.Random):
        """One op; returns False when a read came back stale or mis-sized."""
        from repro.host.vfs import O_DIRECT

        live = self.live[cid]
        r = rng.random()
        kind = "read" if r < 0.5 else "create" if r < 0.8 else "unlink"
        if kind == "create" and len(live) == self.slots:
            kind = "read"
        if kind != "create" and not live:
            kind = "create"
        vfs = self.system.vfs
        if kind == "create":
            free = [s for s in range(self.slots) if s not in live]
            yield from self._create(cid, rng.choice(free))
            return True
        slot = rng.choice(sorted(live))
        path = self._path(cid, slot)
        fid, _token = live[slot]
        if kind == "unlink":
            del live[slot]
            self.shadow.forget(fid, 0, BLOCK_PAGES)
            yield from vfs.unlink(path)
            return True
        attr = yield from vfs.stat(path)
        f = yield from vfs.open(path, O_DIRECT)
        snap = self.shadow.read_begin(fid, 0, BLOCK_PAGES)
        data = yield from vfs.read(f, 0, BLOCK)
        yield from vfs.close(f)
        fresh = self.shadow.read_end(fid, 0, snap, data)
        return fresh and attr.size == BLOCK


WORKLOADS = {w.name: w for w in (KvfsBuffered, KvfsSmallFile, DfsDirect)}


class _Phase:
    """Latencies and outcomes of one closed-loop phase."""

    def __init__(self):
        self.lat: list[float] = []
        self.attempted = 0
        self.raised = 0
        self.stale = 0
        #: simulated time the last op completed
        self.t_end = 0.0


def _start_clients(system, workload, rngs, budget: int):
    """Start the clients on a shared budget of ``budget`` ops.

    Each client takes the next op as soon as its previous one completed, so
    every client stays busy until the budget is spent.  Returns the phase
    record and the event that fires when all clients are done.
    """
    env = system.env
    ph = _Phase()

    def client(cid: int):
        rng = rngs[cid]
        while ph.attempted < budget:
            t0 = env.now
            ph.attempted += 1
            try:
                fresh = yield from workload.op(cid, rng)
            except Exception:  # an op that raised is a failed op, not a crash
                ph.raised += 1
            else:
                if not fresh:
                    ph.stale += 1
            ph.lat.append(env.now - t0)
            ph.t_end = env.now

    procs = [env.process(client(c), name=f"perfbench-c{c}") for c in range(CLIENTS)]
    return ph, env.all_of(procs)


def _percentile(sorted_vals: list, q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_vals) * q // 100))
    return sorted_vals[int(rank) - 1]


def _dup_live_pages(layout) -> int:
    """Pages held by more than one CLEAN/DIRTY cache entry."""
    from repro.cache.layout import ST_CLEAN, ST_DIRTY

    seen: dict = {}
    for idx in range(layout.pages):
        if layout.entry_status(idx) in (ST_CLEAN, ST_DIRTY):
            key = layout.entry_key(idx)
            seen[key] = seen.get(key, 0) + 1
    return sum(1 for n in seen.values() if n > 1)


def run_workload(name: str, seed: int, traced: bool) -> dict:
    """Build, prep, warm up and run one workload; return raw measurements."""
    import layers
    from repro.core import build_dpc_system
    from repro.params import default_params
    from repro.sim.core import LOOP_STATS

    recorder = None
    if traced:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    t_setup = time.perf_counter()
    setup = RefClock()
    params = default_params().with_overrides(seed=seed)
    system = setup.call(build_dpc_system, params, with_dfs=True, trace=False)
    shadow = Shadow()
    workload = WORKLOADS[name](system, seed, shadow)
    setup.run(system.env, system.env.process(workload.prep(), name="perfbench-prep"))
    setup_wall_s = time.perf_counter() - t_setup
    rngs = [_client_rng(seed, name, c) for c in range(CLIENTS)]
    warm, done = _start_clients(system, workload, rngs, workload.warmup_ops)
    system.env.run(until=done)

    before = layers.sample(system)
    events0 = LOOP_STATS.events
    sim0 = system.env.now
    if recorder is not None:
        recorder.start(system.env)
    timed, done = _start_clients(system, workload, rngs, workload.timed_ops)
    clock = RefClock()
    clock.run(system.env, done)
    if recorder is not None:
        recorder.stop()
    sim_s = timed.t_end - sim0
    events = LOOP_STATS.events - events0
    after = layers.sample(system)

    ops = timed.attempted
    lat = sorted(timed.lat)
    out = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "ops_attempted": warm.attempted + timed.attempted,
        "ops_failed": warm.raised + warm.stale + timed.raised + timed.stale,
        "stale_reads": warm.stale + timed.stale,
        "raised_ops": warm.raised + timed.raised,
        "timed_ops": ops,
        "p99_samples": len(lat),
        "sim_kiops": ops / sim_s / 1e3,
        "p50_us": _percentile(lat, 50) * 1e6,
        "p99_us": _percentile(lat, 99) * 1e6,
        "host_cpu_us_per_op": (after["cpu.host.busy"] - before["cpu.host.busy"]) / ops * 1e6,
        "host_ops_per_cpu_s": ops / clock.norm_cpu_s,
        "timed_cpu_s": clock.sim_cpu_s,
        "timed_norm_cpu_s": clock.norm_cpu_s,
        "setup_s": setup.norm_cpu_s,
        "setup_wall_s": setup_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_events": events,
        "verify": shadow.counts(),
        "dup_live_pages": _dup_live_pages(system.cache_layout),
        "layer_counts": layers.deltas(before, after, ops, events),
    }
    if recorder is not None:
        out["self_us_per_op"] = {
            layer: s / ops * 1e6 for layer, s in recorder.self_time_by_layer().items()
        }
    return out
