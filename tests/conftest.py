import multiprocessing

import numpy as np
import pytest

import norts
from norts import RngStream, Series

norts.TestReport.__test__ = False  # result type, not a test class

# Frozen fixture vectors (drawn once from RngStream(314159), rounded to 6 dp).
V20 = [
    2.175605, 2.806629, 1.744701, -1.104435, -0.355883, 1.890168, -1.229328,
    -0.973346, -2.383247, 0.547859, 0.637483, 1.816965, -0.504279, -1.390276,
    -1.520141, 0.349151, 1.604882, 0.144307, -0.039088, -0.972258,
]

V50 = [
    -2.239765, -0.230477, 0.185078, -0.925234, 1.26504, -0.292244, 0.401371,
    -0.093301, 0.614864, -0.318234, -0.2743, 0.209452, -0.719223, 0.25897,
    -0.858922, -1.008469, -0.42656, -0.145717, 0.418982, 0.690093, -1.736826,
    0.116707, 0.235432, 0.224212, -0.82315, -0.146623, -0.865501, -0.755298,
    -1.262899, 0.095413, 0.673864, 1.760958, -0.190953, -0.350831, 0.057957,
    0.712875, -0.294284, 0.918543, -0.282786, 0.174729, -1.334188, 0.560498,
    -0.172927, 0.24389, 0.913295, -0.981599, 1.249226, -0.183415, -0.339926,
    -0.123798,
]


@pytest.fixture(autouse=True)
def no_stray_children():
    """Fail any test after which a worker process is still running."""
    yield
    children = multiprocessing.active_children()
    assert not children, f"child processes left running: {children}"


@pytest.fixture
def s20():
    return Series(np.array(V20))


@pytest.fixture
def s50():
    return Series(np.array(V50))


def gaussian_series(n, seed, stream_id=0):
    """i.i.d. standard normal series from a named stream."""
    from norts import ArmaSpec, simulate_arma

    return simulate_arma(ArmaSpec(), n, 0, RngStream(seed, stream_id))
