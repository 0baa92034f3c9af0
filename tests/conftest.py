import pytest

from fullgroup_lab import (
    ConvolutionCache,
    SubstitutionFixedPoint,
    ball,
    fibonacci_generators,
    fibonacci_spec,
    uniform_measure,
)


@pytest.fixture(scope="session")
def fib_spec():
    return fibonacci_spec()


@pytest.fixture(scope="session")
def fib_gens(fib_spec):
    return fibonacci_generators(fib_spec)


@pytest.fixture(scope="session")
def fib_measure(fib_gens):
    return uniform_measure(fib_gens)


@pytest.fixture(scope="session")
def fib_cache(fib_measure, fib_gens):
    return ConvolutionCache(fib_measure, ball(fib_gens, 0))


@pytest.fixture(scope="session")
def fib_point(fib_spec):
    return SubstitutionFixedPoint(fib_spec, validate=True)
