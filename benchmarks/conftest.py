"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's tables/figures on the
simulated testbed and asserts the *shape* claims (who wins, by what rough
factor, where crossovers/saturation sit).  Absolute wall-clock time of the
benchmark measures how fast the simulator reproduces the experiment; the
simulated metrics are printed as tables.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

import json
from pathlib import Path

import pytest

from repro.experiments.bench import envelope

#: machine-readable benchmark output lands here (CI uploads BENCH_*.json)
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def _run(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return _run


class BenchRecorder:
    """Collects ``metric -> value`` pairs per group and writes them to
    ``results/BENCH_<group>.json`` (merged over existing content, so several
    benchmark files/selections can contribute to one group).

    Files use the :func:`repro.experiments.bench.envelope` shape, so a
    results directory is self-describing about which commit and simulation
    seed produced it and how fast and large the simulator ran; pre-envelope
    flat files are migrated on the next merge.
    """

    def __init__(self) -> None:
        self._groups: dict[str, dict] = {}

    def record(self, group: str, metric: str, value) -> None:
        self._groups.setdefault(group, {})[metric] = value

    def flush(self) -> None:
        if not self._groups:
            return
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        for group, metrics in self._groups.items():
            path = RESULTS_DIR / f"BENCH_{group}.json"
            existing = {}
            if path.exists():
                try:
                    existing = json.loads(path.read_text())
                except ValueError:
                    existing = {}
            if isinstance(existing.get("metrics"), dict):
                merged = existing["metrics"]
            else:  # legacy flat file: everything in it was a metric
                merged = {k: v for k, v in existing.items()
                          if k not in ("schema", "seed", "git_sha")}
            merged.update(metrics)
            path.write_text(json.dumps(envelope(merged), indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def bench_json():
    """Session-wide recorder: ``bench_json(group, metric, value)``."""
    # Create results/ up front: benchmarks that write BENCH_*.json directly
    # (bypassing the recorder) must not fail on a fresh clone, where the
    # directory does not exist yet.
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    rec = BenchRecorder()
    yield rec.record
    rec.flush()
