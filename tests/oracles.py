"""Independent reference implementations used to cross-check the library.

Nothing in this module imports from ``degenbell``.  Every function is
written directly from first principles (brute-force enumeration, naive
convolution, order-by-order inversion) so that agreement with the
library is real evidence, not a tautology.

Polynomials in the deformation parameter are represented as bare tuples
of Fractions with trailing zeros stripped — the same canonical shape as
``LambdaPoly.coeffs`` — so tests can compare without conversion helpers.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial

Poly = tuple  # tuple of Fractions, trailing zeros stripped


def pstrip(coeffs) -> Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return pstrip(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def pneg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return pstrip(out)


def pfalling(w: Poly, n: int) -> Poly:
    """(w)_{n,λ} = w(w-λ)···(w-(n-1)λ) for a λ-polynomial w."""
    out = (Fraction(1),)
    for i in range(n):
        out = pmul(out, padd(w, (0, -i)))
    return out


# ----------------------------------------------------------------------
# Set partitions and permutation cycles, by honest enumeration
# ----------------------------------------------------------------------

def iter_set_partitions(n: int):
    """Yield every partition of {0, …, n-1} as a list of blocks."""
    if n == 0:
        yield []
        return
    for part in iter_set_partitions(n - 1):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [n - 1]] + part[i + 1 :]
        yield part + [[n - 1]]


def stirling2_count(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k blocks, counted."""
    return sum(1 for part in iter_set_partitions(n) if len(part) == k)


def bell_count(n: int) -> int:
    """Number of partitions of an n-set, counted."""
    return sum(1 for _ in iter_set_partitions(n))


def stirling1_unsigned_count(n: int, k: int) -> int:
    """Number of permutations of n elements with exactly k cycles, counted."""
    total = 0
    for perm in permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if not seen[start]:
                cycles += 1
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        if cycles == k:
            total += 1
    return total


# ----------------------------------------------------------------------
# Classical Bernoulli numbers by series inversion of (e^t - 1)/t
# ----------------------------------------------------------------------

def classical_bernoulli(n_max: int) -> list[Fraction]:
    """B_0..B_{n_max} from inverting (e^t-1)/t with plain Fractions."""
    a = [Fraction(1, factorial(k + 1)) for k in range(n_max + 1)]
    b = [Fraction(1)]
    for n in range(1, n_max + 1):
        b.append(-sum(a[j] * b[n - j] for j in range(1, n + 1)))
    return [b[n] * factorial(n) for n in range(n_max + 1)]


# ----------------------------------------------------------------------
# Naive series tools
# ----------------------------------------------------------------------

def cauchy(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Naive Cauchy product of scalar coefficient lists, truncated like
    the library: the result keeps min(len(a), len(b)) coefficients."""
    n = min(len(a), len(b))
    return [sum(a[k] * b[i - k] for k in range(i + 1)) for i in range(n)]


def conv_trunc(a: list[Poly], b: list[Poly], order: int) -> list[Poly]:
    out = [()] * (order + 1)
    for i in range(min(len(a), order + 1)):
        if not a[i]:
            continue
        for j in range(min(len(b), order + 1 - i)):
            out[i + j] = padd(out[i + j], pmul(a[i], b[j]))
    return out


def compose_prefix(f: list[Poly], g: list[Poly], order: int) -> list[Poly]:
    """f(g(t)) truncated at t^order; g must have zero constant term."""
    assert not g[0:1] or g[0] == ()
    acc = [()] * (order + 1)
    if f:
        acc[0] = f[0]
    power = [()] * (order + 1)
    power[0] = (Fraction(1),)
    for k in range(1, min(len(f), order + 1)):
        power = conv_trunc(power, g, order)
        if f[k]:
            for i in range(order + 1):
                acc[i] = padd(acc[i], pmul(f[k], power[i]))
    return acc


def revert_series(f: list[Poly], order: int) -> list[Poly]:
    """Compositional inverse of f, solved one coefficient at a time.

    Requires f[0] = 0 and f[1] = 1 (true for e_λ(t) - 1).  At each step
    the candidate inverse g is extended with the unique t^m coefficient
    that cancels the t^m defect of f(g(t)) - t.
    """
    assert f[0] == () and f[1] == (Fraction(1),)
    g: list[Poly] = [(), (Fraction(1),)]
    for m in range(2, order + 1):
        h = compose_prefix(f, g + [()], m)
        g.append(pneg(h[m]))
    return g


# ----------------------------------------------------------------------
# Bivariate polynomial product, dict form
# ----------------------------------------------------------------------

def poly_mul_2d(a: dict, b: dict) -> dict:
    """Multiply {(x_deg, λ_deg): Fraction} maps, dropping zero entries."""
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            val = out.get(key, Fraction(0)) + c1 * c2
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out
