import numpy as np
import pytest

from mgquant.synth import regression_fixture
from mgquant.training import train


@pytest.fixture(scope="session")
def fixture_layers():
    """The 8-layer 256x256 regression fixture (shared across tests)."""
    layers, calibs = regression_fixture(seed=7)
    return layers, calibs


@pytest.fixture(scope="session")
def fixture_records(fixture_layers):
    """``train``'s log records on the regression fixture, stored by config.

    Training is bit-reproducible, so a run one test made is read back by the
    next that asks for the same config. ``fresh=True`` trains even when a run
    is stored, and stores the new one.
    """
    runs = {}

    def records(cfg, fresh=False):
        key = repr(cfg)
        if fresh or key not in runs:
            runs[key] = train(fixture_layers[0], cfg)[1]
        return runs[key]

    return records


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
