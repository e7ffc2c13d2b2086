"""Independent arithmetic for generating inputs and expected answers.

Nothing here imports nilcert: every expected answer the benchmark checks
the program against is computed from first principles in this module.
"""

from __future__ import annotations

import json
import random
from math import comb, prod

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def convolve_mod(f: list[int], g: list[int], modulus: int) -> list[int]:
    """Coefficients of f*g in Z/modulus, lowest degree first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] = (out[i + j] + fi * gj) % modulus
    return out


def is_one(poly: list[int]) -> bool:
    """True iff the coefficient list is the constant polynomial 1."""
    return poly[0] == 1 and not any(poly[1:])


def trial_division(value: int) -> list[tuple[int, int]]:
    """Prime factorization of value >= 1 as (prime, exponent) pairs."""
    factors = []
    p = 2
    while p * p <= value:
        if value % p == 0:
            e = 0
            while value % p == 0:
                value //= p
                e += 1
            factors.append((p, e))
        p += 1
    if value > 1:
        factors.append((value, 1))
    return factors


def radical(value: int) -> int:
    return prod(p for p, _ in trial_division(value))


def nilpotency_index(u: int, modulus: int) -> int | None:
    """Least k >= 1 with u^k = 0 in Z/modulus, by brute force; None if u is
    not nilpotent.  Exponents never exceed log2(modulus) for nilpotents."""
    for k in range(1, modulus.bit_length() + 1):
        if pow(u, k, modulus) == 0:
            return k
    return None


def random_nilpotent_modulus(rng: random.Random, limit: int) -> int:
    """A composite modulus <= limit, a product of prime powers over primes
    <= 13 that is not squarefree, so nonzero nilpotents exist."""
    while True:
        primes = rng.sample(SMALL_PRIMES, rng.randint(1, 3))
        modulus = prod(p ** rng.randint(1, 4) for p in primes)
        if modulus <= limit and radical(modulus) != modulus:
            return modulus


def inverse_pair(rng: random.Random, degree: int, limit: int = 10**5):
    """A seeded inverse pair (modulus, f, g) over Z/modulus with deg f = degree.

    f = 1 + r*h(T) with r a nonzero multiple of the radical of the modulus,
    hence nilpotent, and g is the truncated geometric series
    sum_{k < K} (-r*h)^k, where r^K = 0.  The pair is checked with this
    module's own convolution before it is returned.
    """
    modulus = random_nilpotent_modulus(rng, limit)
    rad = radical(modulus)
    r = rad * rng.randrange(1, modulus // rad)
    h = [rng.randrange(modulus) for _ in range(degree + 1)]
    while r * h[-1] % modulus == 0:
        h[-1] = rng.randrange(1, modulus)
    rh = [r * c % modulus for c in h]
    f = [(1 + rh[0]) % modulus] + rh[1:]
    step = [-c % modulus for c in rh]
    g, power = [1], [1]
    for _ in range(1, nilpotency_index(r, modulus)):
        power = convolve_mod(power, step, modulus)
        g = [
            ((g[k] if k < len(g) else 0) + power[k]) % modulus for k in range(len(power))
        ]
    while len(g) > 1 and g[-1] == 0:
        g.pop()
    product = convolve_mod(f, g, modulus)
    if not is_one(product):
        raise AssertionError(f"generated pair is not inverse over Z/{modulus}: {f} * {g}")
    return modulus, f, g


def generic_exponent(n: int, m: int, early_stop_target: int | None = None) -> int:
    """Root exponent of the generic digraph, from the closure rules alone.

    Every label the digraph reaches generates the top x..n of the a's and
    the top y..m of the b's.  Under the convolution rules a_1 and b_1 each
    need the other, so the closure adds nothing unless one side is
    complete, and then it adds the whole other side.  The node with x
    a's and y b's still missing is therefore a leaf iff x == 0 or y == 0
    (or, with early stopping at target i0, x < i0), and a branch sums its
    two children (x-1, y) and (x, y-1).
    """
    stop = 1 if early_stop_target is None else early_stop_target
    grid = [[1] * (m + 1) for _ in range(n + 1)]
    for x in range(stop, n + 1):
        for y in range(1, m + 1):
            grid[x][y] = grid[x - 1][y] + grid[x][y - 1]
    return grid[n][m]


def pascal_grid(n: int, m: int) -> list[list[str]]:
    """Expected cells of `nilcert pascal --n n --m m`.

    Row added_a, column added_b holds the exponent of the label with the
    top added_a a's and added_b b's, which is binomial(x+y, x) for the
    x = n - added_a, y = m - added_b still missing, or "." if the digraph
    never reaches that label.  A label is reached from a parent that is a
    branch, i.e. one with both x and y positive.
    """
    reached = [[False] * (m + 1) for _ in range(n + 1)]
    reached[n][m] = True
    for x in range(n, -1, -1):
        for y in range(m, -1, -1):
            if not reached[x][y] or x == 0 or y == 0:
                continue
            reached[x - 1][y] = True
            reached[x][y - 1] = True
    return [
        [str(comb(x + y, x)) if reached[x][y] else "." for y in range(m, -1, -1)]
        for x in range(n, -1, -1)
    ]


def random_divisor(rng: random.Random, value: int) -> int:
    return prod(p ** rng.randint(0, e) for p, e in trial_division(value))


def mutate_dump(text: str, rng: random.Random) -> str:
    """Change one coefficient of one term of a certificate dump.

    The identity u^e = sum rel_k*c_k + unit*(a0*b0 - 1) then gains the
    nonzero term delta*monomial*c_k (or *(a0*b0 - 1)), so a sound
    checker must reject the result.  The new coefficient is never 0, so
    the dump stays in the canonical text form.
    """
    doc = json.loads(text)
    slots = [("rel_coeffs", key) for key in doc["rel_coeffs"]] + [(None, "unit_coeff")]
    weighted = []
    for section, key in slots:
        poly = doc[section][key] if section else doc[key]
        if poly != "0":
            weighted.extend((section, key, t) for t in range(len(poly.split(" + "))))
    section, key, index = rng.choice(weighted)
    container = doc[section] if section else doc
    terms = container[key].split(" + ")
    coeff, sep, rest = terms[index].partition("*")
    old = int(coeff)
    new = old
    while new in (old, 0):
        new = old + rng.choice((-2, -1, 1, 2))
    terms[index] = f"{new}{sep}{rest}"
    container[key] = " + ".join(terms)
    return json.dumps(doc, indent=2) + "\n"
