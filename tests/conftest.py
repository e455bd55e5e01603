import pytest
from hypothesis import HealthCheck, settings

from nilpow import AlgebraSpec, Field
from nilpow.linalg import Subspace

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# the default suite presentations; D chosen so dims stay in the hundreds
SUITE_PARAMS = [
    (2, (2, 2), 12),
    (2, (3, 3), 8),
    (3, (2, 2, 2), 8),
    (1, (4,), 8),
]


def make_suite_specs(field=None):
    field = field or Field.prime(32003)
    return [AlgebraSpec(m=m, nil=nil, field=field, max_degree=d) for m, nil, d in SUITE_PARAMS]


def full_space(spec, layout):
    """A in the given layout, with the fill of `Subspace.full_space`."""
    return Subspace(spec, layout)._lazy(Subspace.full_space(spec)._fill)


@pytest.fixture(scope="session")
def suite_specs():
    return make_suite_specs()


@pytest.fixture(scope="session")
def suite_specs_q():
    return make_suite_specs(Field.rationals())


@pytest.fixture(scope="session")
def spec22():
    return AlgebraSpec(m=2, nil=(2, 2), max_degree=12)
