"""SLO burn-rate sweep over the fault-ablation schedules.

Runs the fault ablation's scripted failure scenarios (healthy /
no-recovery / degraded / full — see :mod:`repro.experiments.fault_ablation`)
with the streaming sketch hub enabled and an :class:`~repro.obsv.slo.SloEngine`
tapped into it.  Per variant the sweep reports the read SLO's multi-window
burn rate, remaining error budget, breach count, and the *attributed
bottleneck* — the layer whose cumulative sketch time grew the most across
the breaching evaluation windows.

Expected shape: ``healthy`` stays within budget (bottleneck attribution
idle) and ``no-recovery`` does too — its reads *fail fast* with EHOSTDOWN,
so availability drops but the latency SLO never fires (exactly why an
availability SLO would be paired with this one).  ``degraded`` and ``full``
burn hot and attribute to the data-server layer: reconstruction reads the
survivor units over ``ds.rpc``, and the silent-crash variant's RPC
deadline waits accrue inside the same layer.

Writes ``results/BENCH_slo.json`` with the shared envelope.

CLI::

    python -m repro.experiments.slo [--threads 8] [--ops 25] [--no-json]
"""

from __future__ import annotations

import argparse
from typing import Optional

from ..metrics.stats import ResultTable
from ..obsv.slo import SloEngine, SloSpec, sketch_layer_sources
from ..params import SystemParams, default_params
from .bench import write_envelope
from .fault_ablation import VARIANTS, _run_variant

__all__ = ["run", "run_variant", "LAYERS", "DEFAULT_SPEC", "write_bench", "main"]

#: bottleneck-attribution layers over the host-DFS testbed's sketch names;
#: each is (include_totals, exclude_totals) — include minus exclude
#: telescopes out the nested layer, mirroring the flight recorder's
#: exclusive-time rollup.
LAYERS = {
    "client-retry": (("client.read",), ("stripe.read", "stripe.write", "mds.rpc")),
    "ec-reconstruct": (("stripe.read", "stripe.write"), ("ds.rpc",)),
    "dataserver": (("ds.rpc",), ("net.send",)),
    "mds": (("mds.rpc",), ()),
    "network": (("net.send",), ()),
}

#: the read objective: p95 of 8K random DFS reads under 80us.  The healthy
#: baseline's p99 sits around 60us, so a healthy run keeps the bad fraction
#: near zero while every fault variant pushes reads past the threshold.
DEFAULT_SPEC = SloSpec(
    name="read",
    endpoint="client.read",
    threshold_us=80.0,
    target_quantile=0.95,
    windows=(200e-6, 1e-3),
)


def run_variant(
    variant: str,
    params: Optional[SystemParams] = None,
    nthreads: int = 8,
    ops_per_thread: int = 25,
    spec: SloSpec = DEFAULT_SPEC,
) -> dict:
    """One fault schedule with the SLO engine attached; returns the merged
    availability + burn-rate record."""
    p = (params or default_params()).with_overrides(obsv_sketches=True)
    attached: dict = {}

    def hook(_variant: str, tb) -> None:
        hub = tb.sketches
        engine = SloEngine(
            [spec],
            now_fn=lambda: tb.env.now,
            eval_interval=50e-6,
            sources=sketch_layer_sources(hub, LAYERS),
        )
        engine.connect(hub)
        tb.registry.collect(engine.collect)
        attached["engine"] = engine
        attached["tb"] = tb

    row = _run_variant(variant, p, nthreads, ops_per_thread, on_testbed=hook)
    engine, tb = attached["engine"], attached["tb"]
    engine.finish(tb.env.now)
    s = engine.summary()[spec.name]
    return {
        "variant": variant,
        "availability": row[1],
        "p50_us": row[2],
        "p99_us": row[3],
        "observations": s["observations"],
        "bad": s["bad"],
        "burn_rate": s["burn_rate"],
        "max_burn_rate": s["max_burn_rate"],
        "budget_remaining": s["budget_remaining"],
        "breaches": s["breaches"],
        "bottleneck": s["bottleneck"],
        "sketch_p99_us": round(tb.sketches.quantile(spec.endpoint, 0.99) * 1e6, 2),
    }


def run(
    params: Optional[SystemParams] = None,
    nthreads: int = 8,
    ops_per_thread: int = 25,
    variants=VARIANTS,
) -> list[dict]:
    return [
        run_variant(v, params=params, nthreads=nthreads, ops_per_thread=ops_per_thread)
        for v in variants
    ]


def table(points: list[dict]) -> ResultTable:
    t = ResultTable(
        "SLO burn rates under the fault ablation (read p95 < "
        f"{DEFAULT_SPEC.threshold_us:.0f}us)",
        [
            "variant",
            "availability",
            "p99_us",
            "sketch_p99_us",
            "max_burn",
            "budget_rem",
            "breaches",
            "bottleneck",
        ],
    )
    for p in points:
        t.add_row(
            p["variant"],
            p["availability"],
            p["p99_us"],
            p["sketch_p99_us"],
            p["max_burn_rate"],
            p["budget_remaining"],
            p["breaches"],
            p["bottleneck"],
        )
    t.note(
        "burn rate = (bad fraction)/(error budget) per window; a breach"
        " needs every window hot, and names the layer whose sketch time"
        " grew most that interval"
    )
    return t


def write_bench(points: list[dict], path=None):
    metrics: dict = {}
    for p in points:
        v = p["variant"]
        metrics[f"{v}/availability"] = round(p["availability"], 4)
        metrics[f"{v}/p99_us"] = round(p["p99_us"], 2)
        metrics[f"{v}/sketch_p99_us"] = p["sketch_p99_us"]
        metrics[f"{v}/burn_rate"] = p["burn_rate"]
        metrics[f"{v}/max_burn_rate"] = p["max_burn_rate"]
        metrics[f"{v}/budget_remaining"] = p["budget_remaining"]
        metrics[f"{v}/breaches"] = p["breaches"]
        metrics[f"{v}/bottleneck"] = p["bottleneck"]
    return write_envelope("slo", metrics, path=path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments.slo",
        description="SLO burn-rate tracking over the fault-ablation schedules.",
    )
    ap.add_argument("--threads", type=int, default=8)
    ap.add_argument("--ops", type=int, default=25)
    ap.add_argument("--no-json", action="store_true",
                    help="skip writing results/BENCH_slo.json")
    args = ap.parse_args(argv)
    points = run(nthreads=args.threads, ops_per_thread=args.ops)
    print(table(points).render())
    if not args.no_json:
        out = write_bench(points)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI
    raise SystemExit(main())
