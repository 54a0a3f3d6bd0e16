import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicgl.common import PRIME_TEST_BOUND, is_prime, power
from padicgl.qexact import GaussianRational


def test_is_prime_matches_a_sieve():
    # the sieve of Eratosthenes is trial division by every prime at once
    limit = 2 * 10 ** 5
    sieve = [False, False] + [True] * (limit - 2)
    for d in range(2, int(limit ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, limit, d))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


@pytest.mark.parametrize("n", [561, 2047, 1373653, 25326001, 3215031751, 3825123056546413051])
def test_is_prime_rejects_pseudoprimes(n):
    # a Carmichael number, then the least strong pseudoprimes to the first
    # 1, 2, 3, 4 and 9 prime bases
    assert not is_prime(n)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(81)
    draws = [rng.randrange(2 ** 81) for _ in range(1000)]
    draws += [int(sympy.nextprime(rng.randrange(2 ** 80))) for _ in range(1000)]
    assert [is_prime(n) for n in draws] == [sympy.isprime(n) for n in draws]


def test_is_prime_refuses_at_the_bound():
    # the largest prime below the bound (sympy.prevprime) and the composites
    # after it are decided; the bound, a strong pseudoprime to all 13 bases,
    # is refused
    assert is_prime(PRIME_TEST_BOUND - 168)
    assert not any(is_prime(n) for n in range(PRIME_TEST_BOUND - 167, PRIME_TEST_BOUND))
    with pytest.raises(ValueError, match=str(PRIME_TEST_BOUND)):
        is_prime(PRIME_TEST_BOUND)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=st.integers(0, 10 ** 6), e=st.integers(0, 300), m=st.integers(2, 10 ** 6))
def test_power_is_square_and_multiply_without_one(x, e, m):
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b % m

    one = object()  # a product with one would raise
    out = power(x % m, e, mul, one)
    if e == 0:
        assert out is one and not calls
    else:
        assert out == pow(x, e, m)
        assert len(calls) == (e.bit_length() - 1) + (bin(e).count("1") - 1)


def test_power_refuses_a_negative_exponent():
    with pytest.raises(ValueError, match="exponent >= 0"):
        power(2, -1, lambda a, b: a * b, 1)


@pytest.mark.parametrize("n", range(-4, 13))
def test_gaussian_power_matches_repeated_product(n):
    z = GaussianRational(Fraction(2, 3), Fraction(-5, 7))
    factor = z if n >= 0 else z.inverse()
    expected = GaussianRational.of(1)
    for _ in range(abs(n)):
        expected = expected * factor
    assert z ** n == expected
