"""Shared BENCH_*.json envelope writer.

Every benchmark artifact in ``results/`` uses one envelope shape::

    {"schema": 3, "seed": ..., "git_sha": ...,
     "wall_clock_s": ..., "events_per_sec": ..., "peak_rss_mb": ...,
     "metrics": {...}}

Schema 2 adds the two wall-clock fields: how long the producing process
spent inside ``Environment.run`` and how many simulation events per
wall-second it sustained (from :data:`repro.sim.core.LOOP_STATS`).
Schema 3 adds ``peak_rss_mb``, the producing process's peak resident set
(``ru_maxrss``) up to the moment the envelope is built.  These fields
describe the *simulator*, not the simulated system — a regression there
is a DES speed or memory regression, which is exactly what
``repro.experiments.simspeed`` tracks in depth.
"""

from __future__ import annotations

import json
import resource
import subprocess
from pathlib import Path
from typing import Optional

from ..sim.core import LOOP_STATS

__all__ = ["SCHEMA_VERSION", "RESULTS_DIR", "git_sha", "envelope", "write_envelope"]

#: bump when the BENCH_*.json envelope shape changes
SCHEMA_VERSION = 3

RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent,
            timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def envelope(metrics: dict, seed: Optional[int] = None) -> dict:
    """Wrap ``metrics`` in the envelope, stamping loop-speed and memory data."""
    if seed is None:
        from ..params import default_params

        seed = default_params().seed
    return {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "git_sha": git_sha(),
        "wall_clock_s": round(LOOP_STATS.wall_s, 4),
        "events_per_sec": round(LOOP_STATS.events_per_sec(), 1),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "metrics": metrics,
    }


def write_envelope(
    name: str, metrics: dict, path: Optional[Path] = None, seed: Optional[int] = None
) -> Path:
    """Write ``results/BENCH_<name>.json``; returns the path written."""
    if path is None:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(envelope(metrics, seed), indent=2, sort_keys=True) + "\n")
    return path
