import logging

import numpy as np
import pytest
from hypothesis import settings


# every property seeds its draws from the test itself, keeps no example database and has no per-example
# deadline; a property sets only its max_examples.  The draws are not always the same from run to run:
# Hypothesis (6.155) also draws constants that it collects from the loaded local modules, and which ones it
# takes varies with the process's memory layout (the 1000 examples of a property differed between runs in a
# few or in hundreds of examples; with that pool emptied, or address randomization off, every run drew the
# same), and no setting turns that pool off
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
