"""bench.py driver contract: prints exactly ONE JSON line with the
required keys, honors GRAFT_SF_DIR / RAY_GRAFT_CPUS / GRAFT_AMPLIFY.
Runs at tiny scale in a fresh process (bench owns its own Ray
session, per the contract). Its timed names all resolve."""

import json
import os
import subprocess
import sys


def test_bench_json_contract():
    env = dict(
        os.environ,
        GRAFT_SF_DIR="/root/testdata/sf0.001",
        RAY_GRAFT_CPUS="4",
        GRAFT_AMPLIFY="1",
        GRAFT_SKIP_QUERIES="1",
    )
    out = subprocess.run(
        [sys.executable, "bench.py"], env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-500:]
    lines = [l for l in out.stdout.strip().splitlines() if l.strip()]
    assert len(lines) == 1, f"expected ONE json line, got {len(lines)}"
    d = json.loads(lines[0])
    assert {"metric", "value", "unit", "queries", "sf", "num_cpus",
            "rows", "docs_per_sec"} <= set(d)
    assert d["unit"] == "sec" and d["num_cpus"] == 4
    assert d["rows"] == 500 and d["value"] > 0


def test_timed_queries_resolve_without_ray():
    """Every TIMED_QUERIES name resolves to a callable through
    queries() or _extra_timed(), and _extra_timed() times nothing
    outside TIMED_QUERIES, so no removed operator can leave a dangling
    bench key."""
    import __ray_entry__
    import bench

    extra = bench._extra_timed()
    resolved = {**__ray_entry__.queries(), **extra}
    assert len(set(bench.TIMED_QUERIES)) == len(bench.TIMED_QUERIES)
    missing = [n for n in bench.TIMED_QUERIES if not callable(resolved.get(n))]
    assert not missing, missing
    assert set(extra) <= set(bench.TIMED_QUERIES), sorted(
        set(extra) - set(bench.TIMED_QUERIES))
