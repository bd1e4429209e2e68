"""Peak resident memory of system builds stays bounded.

Every simulated host owns a :class:`~repro.sim.memory.MemoryArena` whose
modelled capacity (``host_arena_bytes``, 512 MiB by default) is far larger
than what a build allocates from it.  The arena is lazily backed, so a
build's resident set tracks the pages it touches, not that capacity.  The
builds run in a fresh interpreter so pytest's own heap does not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

#: peak RSS ceiling for the whole script below; an eagerly backed 512 MiB
#: arena exceeds it on the first build
MAX_RSS_MB = 256

_SCRIPT = """
import json, resource
from repro.core import build_cluster, build_dpc_system

for _ in range(20):
    build_dpc_system(with_dfs=True)
build_cluster(n_hosts=8, with_dfs=True)
build_cluster(n_hosts=32, with_dfs=True)
print(json.dumps({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def test_sequential_builds_and_large_clusters_fit_in_bounded_rss():
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    peak = json.loads(out.stdout.strip().splitlines()[-1])["peak_rss_mb"]
    assert peak < MAX_RSS_MB, f"peak RSS {peak:.1f} MB >= {MAX_RSS_MB} MB"
