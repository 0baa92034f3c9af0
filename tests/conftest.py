from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from fullgroup_lab import (
    ConvolutionCache,
    SubstitutionFixedPoint,
    ball,
    fibonacci_generators,
    fibonacci_spec,
    uniform_measure,
)
from fullgroup_lab.cocycles import increment_table

# Every run draws the same hypothesis examples and keeps none: a failure
# replays on the next run, and a pass means the same inputs passed.
settings.register_profile("replay", derandomize=True, database=None)
settings.load_profile("replay")


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
    return SubstitutionFixedPoint(fib_spec)


def naive_iterate(rules, word, k):
    """Reference: psi^k(word), one whole image of every letter at a time."""
    for _ in range(k):
        word = "".join(rules[c] for c in word)
    return word


def _sturmian_rules(cf):
    """theta_{a_1} o ... o theta_{a_m} over one period of the continued
    fraction, theta_c being a -> a^c b, b -> a: its k-th iterate of a is the
    (k m)-th standard word (Lothaire, Algebraic Combinatorics on Words,
    ch. 2), and the fixed point of its square is the Sturmian point."""
    rules = {"a": "a", "b": "b"}
    for m in cf:
        rules = {"a": naive_iterate(rules, "a" * m + "b", 1), "b": rules["a"]}
    return rules


@pytest.fixture(scope="session")
def sturmian_rules():
    return _sturmian_rules


def _oracle_draws(measure, n, trials, seed):
    """The atoms of every draw as a (trials, n) array, each trial from a new
    Philox(key=[seed mod 2^64, t]) and one search of the cumulative weights,
    the last of them set to 1."""
    cum = np.cumsum([float(p) for _, _, p in measure.atoms])
    cum[-1] = 1.0
    # an exact uint64 key: numpy reads a list holding 2^63 or more through float64
    return np.array([
        np.searchsorted(cum, np.random.Generator(np.random.Philox(
            key=np.array([seed % 2**64, t], dtype=np.uint64))).random(n), side="right")
        for t in range(trials)
    ])


def _walk_matrix(measure, point, n, trials, seed):
    """Matrix oracle of `sample_orbit_walks`: its own draws walked into the
    whole step-major (n+1, trials) offset array, then summarized from it.

    Each step reads the 2-D increment table at (atom, offset + span), not
    the sampler's flat table, and every summary row is taken from a float64
    copy of the finished matrix's row; `offsets` is the (trials, n+1) view."""
    span = measure.max_shift * n + 1
    table = increment_table(measure.generator_set(), point, span, np.int64)
    moves = _oracle_draws(measure, n, trials, seed).T
    steps = np.zeros((n + 1, trials), dtype=np.int64)
    for j in range(n):
        steps[j + 1] = steps[j] + table[moves[j], steps[j] + span]
    summary = []
    for j, step in enumerate(steps):
        offs = step.astype(np.float64)
        summary.append((j, float(offs.mean()), float(offs.std()), float(np.abs(offs).mean()),
                        int(np.abs(step).max())))
    return SimpleNamespace(offsets=steps.T, summary=summary,
                           max_abs=np.abs(steps).max(axis=0), final=steps[-1])


@pytest.fixture(scope="session")
def oracle_draws():
    return _oracle_draws


@pytest.fixture(scope="session")
def walk_matrix():
    return _walk_matrix
