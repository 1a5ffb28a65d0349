import warnings

import pytest

from frontlab import (certify_front, closed_form_burgers, make_grid,
                      newton_front, preset, shoot_local_front)


@pytest.fixture(scope="session")
def grid_std():
    return make_grid(1024, 80.0)


@pytest.fixture(scope="session")
def burgers_front(grid_std):
    return closed_form_burgers(grid_std)


@pytest.fixture(scope="session")
def burgers_cert(burgers_front):
    return certify_front(burgers_front)


@pytest.fixture(scope="session")
def kdvb_front(grid_std):
    return shoot_local_front(-6.0 / 25.0, grid_std)


@pytest.fixture(scope="session")
def frac_half_front(grid_std):
    return newton_front(preset("frac", terms=[(0.5, 0.5)]), grid_std, tol=1e-9)


@pytest.fixture(scope="session")
def frac_one_front(grid_std):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return newton_front(preset("frac", terms=[(1.0, 0.5)]), grid_std, tol=1e-9)


@pytest.fixture
def serial_pool(monkeypatch):
    """Replaces `concurrent.futures.ProcessPoolExecutor` with a pool that
    starts no process and maps in this one; returns the list of the
    `max_workers` each pool was asked for."""
    import concurrent.futures

    asked = []

    class SerialPool:
        def __init__(self, max_workers=None):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return asked
