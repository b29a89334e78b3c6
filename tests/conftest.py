import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
# the suite's sweeps at ten times the examples, still derandomised: `pytest --hypothesis-profile=deep`
settings.register_profile("deep", parent=settings.get_profile("suite"), max_examples=400)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20240822)


def random_spectrum(rng, d, beta=None):
    from thermocone import EnergySpectrum

    energies = np.sort(rng.uniform(0.0, 2.0, d))
    if beta is None:
        beta = float(rng.uniform(0.0, 2.0))
    return EnergySpectrum(tuple(energies), beta)


def random_dist(rng, d):
    return rng.dirichlet(np.ones(d))
