"""Hedged-request ablation over the fault schedules.

Re-runs the fault ablation's ``healthy`` and ``full`` scenarios (silent
data-server crash + lossy fabric — see
:mod:`repro.experiments.fault_ablation`) with the unified request engine's
hedging + adaptive-retry policies toggled, and reports what hedging buys on
the tail:

* ``healthy/off`` — the no-fault baseline p50/p99 and goodput.
* ``full/off`` — the crash scenario on the legacy retry path: reads that
  land on the silent server burn the full RPC deadline (plus backoff)
  before falling back, so p99 blows out by ~50x.
* ``full/hedged`` — same schedule with ``req_hedging`` +
  ``req_adaptive_retry`` on (sketches feed the hedge delay): a read stuck
  past the live p99 issues a tied hedge — for stripe units, an EC-degraded
  reconstruction from the survivors — and the first answer wins while the
  loser is cancelled on the wire.

The headline metrics are the p99 ratios of the two ``full`` points against
``healthy``, the hedge win rate, and the extra-attempt fraction (hedges
issued per primary attempt — the bandwidth price of the tail cut).

Writes ``results/BENCH_hedge.json`` with the shared envelope.

CLI::

    python -m repro.experiments.hedge [--threads 8] [--ops 25] [--no-json]
"""

from __future__ import annotations

import argparse
from typing import Optional

from ..metrics.stats import ResultTable
from ..params import SystemParams, default_params
from .bench import write_envelope
from .fault_ablation import _run_variant

__all__ = ["run", "run_point", "POINTS", "table", "write_bench", "main"]

#: (fault variant, hedging on) sweep points
POINTS = (("healthy", False), ("full", False), ("full", True))

#: request-engine counters summed across endpoints per point
_REQ_STATS = ("attempts", "hedges", "hedge_wins", "cancels", "budget_exhausted")


def _label(variant: str, hedged: bool) -> str:
    return f"{variant}-{'hedged' if hedged else 'off'}"


def run_point(
    variant: str,
    hedged: bool,
    params: Optional[SystemParams] = None,
    nthreads: int = 8,
    ops_per_thread: int = 25,
) -> dict:
    """One fault schedule with the request-engine policies set; returns the
    availability/latency row merged with the summed ``req.*`` counters."""
    p = params or default_params()
    if hedged:
        # Hedging needs the live quantiles: the sketch hub feeds the
        # per-endpoint hedge delay and the adaptive attempt deadline.
        p = p.with_overrides(
            obsv_sketches=True, req_hedging=True, req_adaptive_retry=True
        )
    attached: dict = {}

    def hook(_variant: str, tb) -> None:
        attached["tb"] = tb

    row = _run_variant(variant, p, nthreads, ops_per_thread, on_testbed=hook)
    snap = attached["tb"].registry.snapshot()
    req = {k: 0.0 for k in _REQ_STATS}
    for key, v in snap.items():
        if key.startswith("req."):
            stat = key.rsplit(".", 1)[1]
            if stat in req:
                req[stat] += v
    primaries = max(1.0, req["attempts"] - req["hedges"])
    return {
        "label": _label(variant, hedged),
        "variant": variant,
        "hedged": hedged,
        "availability": row[1],
        "p50_us": row[2],
        "p99_us": row[3],
        "goodput_iops": row[4],
        "retries": row[5],
        "degraded_stripes": row[6],
        "errors": row[7],
        **req,
        "win_rate": req["hedge_wins"] / req["hedges"] if req["hedges"] else 0.0,
        "extra_attempt_frac": req["hedges"] / primaries,
    }


def run(
    params: Optional[SystemParams] = None,
    nthreads: int = 8,
    ops_per_thread: int = 25,
    points=POINTS,
) -> list[dict]:
    return [
        run_point(v, h, params=params, nthreads=nthreads, ops_per_thread=ops_per_thread)
        for v, h in points
    ]


def table(points: list[dict]) -> ResultTable:
    t = ResultTable(
        "Hedged requests under the fault ablation (8K random DFS reads,"
        " silent crash + lossy fabric)",
        [
            "point",
            "availability",
            "p50_us",
            "p99_us",
            "goodput_iops",
            "retries",
            "hedges",
            "hedge_wins",
            "cancels",
            "extra_att",
        ],
    )
    for p in points:
        t.add_row(
            p["label"],
            p["availability"],
            p["p50_us"],
            p["p99_us"],
            p["goodput_iops"],
            p["retries"],
            int(p["hedges"]),
            int(p["hedge_wins"]),
            int(p["cancels"]),
            round(p["extra_attempt_frac"], 3),
        )
    healthy = next((p for p in points if p["label"] == "healthy-off"), None)
    if healthy and healthy["p99_us"] > 0:
        ratios = ", ".join(
            f"{p['label']} p99 = {p['p99_us'] / healthy['p99_us']:.1f}x healthy"
            for p in points
            if p["variant"] != "healthy"
        )
        t.note(ratios)
    t.note(
        "a hedge fires when an attempt outlives the endpoint's live p99;"
        " the loser is cancelled on the wire (tied requests)"
    )
    return t


def write_bench(points: list[dict], path=None):
    metrics: dict = {}
    for p in points:
        lbl = p["label"]
        metrics[f"{lbl}/availability"] = round(p["availability"], 4)
        metrics[f"{lbl}/p50_us"] = round(p["p50_us"], 2)
        metrics[f"{lbl}/p99_us"] = round(p["p99_us"], 2)
        metrics[f"{lbl}/goodput_iops"] = round(p["goodput_iops"], 1)
        metrics[f"{lbl}/retries"] = p["retries"]
        metrics[f"{lbl}/hedges"] = p["hedges"]
        metrics[f"{lbl}/hedge_wins"] = p["hedge_wins"]
        metrics[f"{lbl}/cancels"] = p["cancels"]
        metrics[f"{lbl}/win_rate"] = round(p["win_rate"], 4)
        metrics[f"{lbl}/extra_attempt_frac"] = round(p["extra_attempt_frac"], 4)
    healthy = next((p for p in points if p["label"] == "healthy-off"), None)
    if healthy and healthy["p99_us"] > 0:
        for p in points:
            if p["variant"] != "healthy":
                metrics[f"{p['label']}/p99_vs_healthy"] = round(
                    p["p99_us"] / healthy["p99_us"], 2
                )
    return write_envelope("hedge", metrics, path=path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments.hedge",
        description="Hedged/tied-request ablation over the fault schedules.",
    )
    ap.add_argument("--threads", type=int, default=8)
    ap.add_argument("--ops", type=int, default=25)
    ap.add_argument("--no-json", action="store_true",
                    help="skip writing results/BENCH_hedge.json")
    args = ap.parse_args(argv)
    points = run(nthreads=args.threads, ops_per_thread=args.ops)
    print(table(points).render())
    if not args.no_json:
        out = write_bench(points)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI
    raise SystemExit(main())
