import pytest
from hypothesis import HealthCheck, settings

from entrocut import build_energy_function, fit_growth_constants, model_dims, spectra

settings.register_profile(
    "det",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


@pytest.fixture(scope="session")
def ef075():
    return build_energy_function(0.75)


@pytest.fixture(scope="session")
def u1_small():
    return model_dims("u1", 40)


@pytest.fixture(scope="session")
def u1_3000():
    return model_dims("u1", 3000)


@pytest.fixture(scope="session")
def u1_fit(u1_3000):
    return fit_growth_constants(u1_3000, 0.6)


@pytest.fixture
def cold_tables():
    """Empty the shared spectrum tables, so the test grows them from nothing."""
    with spectra._TABLES_LOCK:
        spectra._TABLES.clear()
