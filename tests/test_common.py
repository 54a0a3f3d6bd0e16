import random

import pytest

from padicgl.common import PRIME_TEST_BOUND, is_prime


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
