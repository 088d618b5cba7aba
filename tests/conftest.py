from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def _fraction_grover(n, solutions, steps):
    N = 1 << n
    amps = [Fraction(1)] * N
    for _ in range(steps):
        for s in solutions:
            amps[s] = -amps[s]
        avg = sum(amps) / N
        amps = [2 * avg - a for a in amps]
    return amps


@pytest.fixture
def fraction_grover():
    """Exact-arithmetic oracle: fraction_grover(n, solutions, steps) is the list
    of amplitudes scaled by sqrt(N) after `steps` Grover iterations.

    The scaled amplitudes stay rational under both reflections, so every
    amplitude, and the solution probability, is an exact fraction.
    """
    return _fraction_grover
