"""Session-scoped Ray fixture — ONE ray.init per pytest session
(library code never inits Ray), restarted only when the cluster has
lost CPUs to a leaked worker lease."""

from __future__ import annotations

import gc
import time

import pytest

# how long a finished pipeline's actors may take to hand their CPUs
# back on their own, then after a ``gc.collect()``, before the missing
# CPUs count as leaked
_SETTLE_WAIT_S = 2.0
_RELEASE_WAIT_S = 20.0

# (test id, "before"/"after", "gc" or "restart"): every time CPUs came
# back only through the collector or a cluster restart, so that leaks
# show in the session summary instead of being absorbed
_RECLAIMS: list[tuple[str, str, str]] = []


def pytest_configure(config):
    # dev lane: ``pytest -m "not slow"``; the full run still runs these
    config.addinivalue_line(
        "markers", "slow: codec-fuzz family")


def _start_ray():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    return ray


def pytest_terminal_summary(terminalreporter):
    if not _RECLAIMS:
        return
    tr = terminalreporter
    tr.section("Ray CPUs reclaimed between tests")
    for nodeid, when, how in _RECLAIMS:
        what = ("came back only after gc.collect()" if how == "gc"
                else "leaked; cluster restarted")
        tr.write_line(f"{how:7s} {when:6s} {nodeid}: {what}")
    tr.write_line(
        f"{sum(h == 'gc' for _, _, h in _RECLAIMS)} came back after "
        f"gc.collect(), {sum(h == 'restart' for _, _, h in _RECLAIMS)} "
        "cluster restarts")


def _cpus_all_free(ray, wait_s: float) -> bool:
    total = ray.cluster_resources().get("CPU", 0)
    deadline = time.monotonic() + wait_s
    while ray.available_resources().get("CPU", 0) < total:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.1)
    return True


@pytest.fixture(scope="session")
def ray_session():
    ray = _start_ray()
    yield ray
    ray.shutdown()


@pytest.fixture(autouse=True)
def _ray_cpus_back(request):
    """Between tests no pipeline runs, so every CPU of the cluster must
    come back, or the next plan may wait forever for one. Two things
    keep CPUs: a finished Dataset whose executor sits in a reference
    cycle keeps its actors until the collector runs (collected here),
    and Ray 2.49 can keep a lease for good: when Ray Data cancels an
    actor whose worker lease was just granted, the worker ignores the
    kill ("Mismatched ActorID") and the raylet keeps the lease. The
    suite shares one 4-CPU cluster, so such leaks add up; restart the
    cluster then. Checked before and after each test that uses Ray,
    so module fixtures built between two tests start on a whole
    cluster too. Each collect that was needed and each restart is
    listed in the session summary."""
    if "ray_session" not in request.fixturenames:
        yield
        return
    ray = request.getfixturevalue("ray_session")

    def reclaim(when):
        if _cpus_all_free(ray, _SETTLE_WAIT_S):
            return
        # a finished Dataset's executor, kept by a reference cycle,
        # holds its actors until the collector runs
        gc.collect()
        if _cpus_all_free(ray, _RELEASE_WAIT_S):
            _RECLAIMS.append((request.node.nodeid, when, "gc"))
            return
        _RECLAIMS.append((request.node.nodeid, when, "restart"))
        ray.shutdown()
        _start_ray()

    reclaim("before")
    yield
    reclaim("after")
