import numpy as np
import pytest

from hypdet import maps, orbits


class PointSets(dict):
    """Fix(T^m) of one map as the {m: PeriodicPointSet} mapping the library
    takes, each period computed on first use.  A session fixture holding one
    lets the tests share the sets, as a command run shares its own."""

    def __init__(self, sys_):
        super().__init__()
        self.sys = sys_

    def __missing__(self, m):
        self[m] = orbits.periodic_points(self.sys, m)
        return self[m]


@pytest.fixture(scope="session")
def cat():
    return maps.builtin_cat_map()


@pytest.fixture(scope="session")
def cat_pts(cat):
    return PointSets(cat)


@pytest.fixture(scope="session")
def pcat():
    return maps.builtin_perturbed_cat(0.01)


@pytest.fixture(scope="session")
def pcat_pts(pcat):
    return PointSets(pcat)


@pytest.fixture(scope="session")
def point_sets():
    """PointSets, for the maps a test builds itself."""
    return PointSets


@pytest.fixture(scope="session")
def chart():
    return maps.builtin_chart_model(0.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
