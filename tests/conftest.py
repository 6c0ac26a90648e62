import functools

import pytest

from ncplane.verify import run_suite


@pytest.fixture(scope="session")
def cached_run_suite():
    """``run_suite`` memoized per ``RunConfig`` for the whole session.

    The suite is deterministic in its config, so tests that only read a
    report can share one run. A test that checks the determinism itself, or
    that patches the suite, calls ``run_suite`` directly.
    """
    return functools.cache(run_suite)
