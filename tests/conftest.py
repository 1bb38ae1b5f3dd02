import numpy as np
import pytest

from levyhedge import (
    FourierConfig,
    LevyModel,
    c2_split,
    char_fn,
    compute_mu_s,
    to_mmm,
)
from levyhedge.benchmarks import (
    HORIZON,
    bs_benchmark,
    merton_benchmark,
    vg_benchmark,
)
from levyhedge.models import MertonMeasure, merton_model, vg_model


@pytest.fixture(scope="session")
def merton_params():
    return merton_benchmark()


@pytest.fixture(scope="session")
def vg_params():
    return vg_benchmark()


@pytest.fixture(scope="session")
def merton_mmm(merton_params):
    return to_mmm(merton_model(merton_params))


@pytest.fixture(scope="session")
def vg_mmm(vg_params):
    return to_mmm(vg_model(vg_params))


@pytest.fixture(scope="session")
def bs_mmm():
    return to_mmm(bs_benchmark())


@pytest.fixture(scope="session")
def pure_jump_merton(merton_params):
    # the benchmark jumps without the Brownian part: compound Poisson, so the
    # law of L has an atom; the drift puts mu_s mid-range of (-C2, 0]
    p = merton_params
    jumps = MertonMeasure(p.gamma, p.m, p.delta)
    probe = LevyModel(mu=0.0, sigma=0.0, measure=jumps)
    mu = -compute_mu_s(probe) - 0.5 * sum(c2_split(probe))
    return to_mmm(LevyModel(mu=mu, sigma=0.0, measure=jumps))


@pytest.fixture(scope="session")
def phi_merton(merton_mmm):
    return char_fn(merton_mmm, HORIZON)


@pytest.fixture(scope="session")
def phi_vg(vg_mmm):
    return char_fn(vg_mmm, HORIZON)


@pytest.fixture(scope="session")
def phi_bs(bs_mmm):
    return char_fn(bs_mmm, HORIZON)


@pytest.fixture(scope="session")
def cfg():
    return FourierConfig()


@pytest.fixture()
def rng():
    return np.random.default_rng(20160420)
