import logging

import numpy as np
import pytest
from hypothesis import settings


# every property draws the same examples on every run, keeps no example database and has no
# per-example deadline, so Tier-1 stays deterministic; a property sets only its max_examples
settings.register_profile("ddsim", derandomize=True, database=None, deadline=None)
settings.load_profile("ddsim")


@pytest.fixture
def rng():
    """Fresh seeded generator per test so draws never couple across tests."""
    return np.random.default_rng(20260819)


@pytest.fixture(autouse=True)
def _ddsim_log_level():
    """Restore the ddsim logger's level after each test: cli.main sets it from DDSIM_LOG on every call."""
    logger = logging.getLogger("ddsim")
    level = logger.level
    yield
    logger.setLevel(level)
