"""Seeded randomness primitives shared by every randomized operation.

All sampling in this package is driven by CPython's Mersenne Twister
(MT19937) as exposed by ``random.Random``, consumed exclusively through
``getrandbits``.  The three helpers below define the complete draw
protocol, so identical seeds reproduce identical outputs bit for bit on
any platform:

* ``rand_below(rng, n)``   -- rejection sampling on ``getrandbits(n.bit_length())``
* ``sample_ordered``       -- partial Fisher-Yates drawing as ``rand_below`` does,
  kept sparse: only the swapped positions are stored, so a draw of k
  vertices from [1..n] costs O(k), not O(n)
* ``bernoulli``            -- exact rational coin: ``rand_below(den) < num``

Nothing here ever calls ``random()``, ``sample`` or ``choice``, whose
draw orders are not pinned by the language reference.
"""

from __future__ import annotations

import random
from fractions import Fraction

__all__ = ["new_generator", "rand_below", "sample_ordered", "bernoulli", "rademacher"]


def new_generator(seed: int) -> random.Random:
    """Return a fresh MT19937 generator initialised with ``seed``."""
    if not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return random.Random(seed)


def rand_below(rng: random.Random, n: int) -> int:
    """Uniform integer in [0, n) via unbiased rejection on getrandbits."""
    if n <= 0:
        raise ValueError(f"rand_below needs a positive bound, got {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def sample_ordered(rng: random.Random, n: int, k: int) -> list[int]:
    """Ordered sample of k distinct vertices from [1..n].

    Partial Fisher-Yates (Durstenfeld's shuffle) on the pool 1..n:
    position i swaps with j = i + rand_below(n - i) and then holds the
    i-th output (the rejection loop of ``rand_below`` is inlined, with the
    same ``getrandbits`` calls).  The pool is never built; ``moved`` holds
    the value of each position that a swap has changed, and every other
    position j still holds j + 1.  The returned order is part of the draw protocol
    (couplings consume it pairwise), so callers that need a set must
    discard it themselves.
    """
    if not 0 <= k <= n:
        raise ValueError(f"cannot sample {k} distinct vertices from [1..{n}]")
    getrandbits = rng.getrandbits
    moved: dict[int, int] = {}
    out: list[int] = []
    for i in range(k):
        m = n - i
        bits = m.bit_length()
        x = getrandbits(bits)
        while x >= m:
            x = getrandbits(bits)
        j = i + x
        out.append(moved.get(j, j + 1))
        moved[j] = moved.get(i, i + 1)
    return out


def bernoulli(rng: random.Random, p: Fraction) -> bool:
    """Exact Bernoulli(p) draw for rational p in [0, 1]."""
    if not isinstance(p, Fraction):
        p = Fraction(p)
    num, den = p.numerator, p.denominator
    if not 0 <= num <= den:
        raise ValueError(f"Bernoulli parameter must lie in [0, 1], got {p}")
    return num > 0 and rand_below(rng, den) < num


def rademacher(rng: random.Random) -> int:
    """Uniform sign: getrandbits(1) == 1 maps to +1, else -1."""
    return 1 if rng.getrandbits(1) else -1
