"""Session-scoped Ray fixture — ONE ray.init per pytest session
(driver instruction; library code never inits Ray)."""

from __future__ import annotations

import pytest


def pytest_configure(config):
    # dev lane: ``pytest -m "not slow"``; the full run still runs these
    config.addinivalue_line(
        "markers", "slow: seen-index spill and codec-fuzz families")


@pytest.fixture(scope="session")
def ray_session():
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
    yield ray
    ray.shutdown()
