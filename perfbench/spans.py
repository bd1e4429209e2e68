"""Span recording around the public entry points of each DPC layer.

The traced run patches the layer classes *before* the system is built, so
the bound methods that constructors capture (the nvme-fs target's backend,
the cache control plane's fetch/writeback hooks) are the wrapped ones too.
A wrapper is a generator that delegates with ``yield from``: it adds no
simulation event, so a traced run's simulated results equal the untraced
run's, which the benchmark checks.

Spans live in simulated time and nest per simulated process.  A span opened
in a process with no open span takes as parent the span that was open in
the process which created it, so fan-out legs (stripe units, KV block
gets) are children of the call that spawned them.  The nvme-fs queue is
crossed the same way: the span open when the host packs a submission queue
entry becomes the parent of the DPU dispatch of that entry, matched on the
entry's command id and write buffer address.  Servers behind the fabric
(KV shards, MDS, data servers) are not wrapped, so a ``Fabric.rpc`` span's
self time includes their queueing and service.  A span's *self time* is
its duration minus the union of its children's intervals clipped to it;
under fan-out this never goes negative, unlike subtracting child durations.
"""

from __future__ import annotations

import functools
import inspect

__all__ = ["LAYER_ENTRY_POINTS", "SpanRecorder"]


def _entry_points() -> dict:
    """layer -> [(class, method names)], imported lazily from the program."""
    from repro.cache.control import CacheControlPlane
    from repro.cache.hostplane import HostCachePlane
    from repro.dfs.clients import OffloadedDfsClient
    from repro.dfs.stripeio import StripeIO
    from repro.dpu.dispatch import IoDispatch
    from repro.host.vfs import Vfs
    from repro.kv.client import KvClient
    from repro.kvfs.fs import Kvfs
    from repro.proto.nvme.ini import NvmeFsInitiator
    from repro.sim.network import Fabric

    return {
        "host": [(Vfs, ("read", "write", "open", "stat", "unlink"))],
        "proto": [(NvmeFsInitiator, ("submit", "submit_many"))],
        "dpu": [
            (IoDispatch, ("backend", "cache_fetch", "cache_fetch_run", "cache_writeback"))
        ],
        "cache": [
            (HostCachePlane, ("read", "write")),
            (CacheControlPlane, ("fill", "fill_run")),
        ],
        "kvfs": [(Kvfs, ("read", "write", "create", "lookup", "unlink"))],
        "kv": [(KvClient, ("get", "put", "cas", "delete"))],
        "dfs": [(OffloadedDfsClient, ("read", "write", "create"))],
        "ec": [(StripeIO, ("read", "write"))],
        "net": [(Fabric, ("rpc",))],
    }


#: the layers spans are recorded for, in report order
LAYER_ENTRY_POINTS = ("host", "proto", "dpu", "cache", "kvfs", "kv", "dfs", "ec", "net")


class SpanRecorder:
    """Records layer spans while :attr:`active`; one instance per process."""

    def __init__(self):
        self.env = None
        self.active = False
        #: span -> [layer, start, end or None, parent span or None]
        self.spans: list[list] = []
        self._stacks: dict = {}
        self._proc_parent: dict = {}
        #: (command id, write buffer) of a queued SQE -> span that queued it
        self._sqe_parent: dict = {}

    # -- installation -------------------------------------------------------------
    def install(self) -> None:
        """Patch every layer entry point and process creation, before building."""
        from repro.sim.core import Process

        for layer, targets in _entry_points().items():
            for cls, names in targets:
                for name in names:
                    orig = cls.__dict__[name]
                    if not inspect.isgeneratorfunction(orig):
                        raise TypeError(f"{cls.__name__}.{name} is not a generator function")
                    setattr(cls, name, self._wrap(layer, orig))
        from repro.proto.nvme.sqe import Sqe

        init = Process.__init__
        pack = Sqe.pack
        rec = self

        @functools.wraps(init)
        def process_init(proc, env, generator, name=""):
            if rec.active:
                stack = rec._stacks.get(env.active_process)
                if stack:
                    rec._proc_parent[proc] = stack[-1]
            init(proc, env, generator, name)

        @functools.wraps(pack)
        def sqe_pack(sqe):
            if rec.active:
                stack = rec._stacks.get(rec.env.active_process)
                if stack:
                    rec._sqe_parent[(sqe.cid, sqe.prp_write1)] = stack[-1]
            return pack(sqe)

        Process.__init__ = process_init
        Sqe.pack = sqe_pack

    def _wrap(self, layer: str, orig):
        rec = self
        takes_sqe = orig.__name__ == "backend"

        @functools.wraps(orig)
        def wrapper(obj, *args, **kwargs):
            sqe = args[0] if takes_sqe else None
            return rec._span(layer, orig(obj, *args, **kwargs), sqe)

        return wrapper

    def _span(self, layer: str, gen, sqe=None):
        if not self.active:
            return (yield from gen)
        env = self.env
        proc = env.active_process
        stack = self._stacks.setdefault(proc, [])
        if stack:
            parent = stack[-1]
        elif sqe is not None:
            parent = self._sqe_parent.pop((sqe.cid, sqe.prp_write1), None)
        else:
            parent = self._proc_parent.get(proc)
        idx = len(self.spans)
        self.spans.append([layer, env.now, None, parent])
        stack.append(idx)
        try:
            return (yield from gen)
        finally:
            stack.pop()
            if not stack:
                del self._stacks[proc]
            self.spans[idx][2] = env.now

    # -- recording window ---------------------------------------------------------
    def start(self, env) -> None:
        self.env = env
        self.active = True

    def stop(self) -> None:
        """Stop recording; spans still open end at the current simulated time."""
        self.active = False
        now = self.env.now
        for sp in self.spans:
            if sp[2] is None:
                sp[2] = now
        self._proc_parent.clear()
        self._sqe_parent.clear()

    # -- analysis -----------------------------------------------------------------
    def self_time_by_layer(self) -> dict:
        """Seconds of self time per layer over the recorded spans."""
        children: dict[int, list[int]] = {}
        for idx, sp in enumerate(self.spans):
            if sp[3] is not None:
                children.setdefault(sp[3], []).append(idx)
        out = {layer: 0.0 for layer in LAYER_ENTRY_POINTS}
        for idx, (layer, start, end, _parent) in enumerate(self.spans):
            covered = 0.0
            kids = children.get(idx)
            if kids:
                ivs = sorted(
                    (max(self.spans[k][1], start), min(self.spans[k][2], end))
                    for k in kids
                )
                cur_s, cur_e = None, None
                for s, e in ivs:
                    if e <= s:
                        continue
                    if cur_e is None or s > cur_e:
                        if cur_e is not None:
                            covered += cur_e - cur_s
                        cur_s, cur_e = s, e
                    elif e > cur_e:
                        cur_e = e
                if cur_e is not None:
                    covered += cur_e - cur_s
            out[layer] += (end - start) - covered
        return out
