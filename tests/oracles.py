"""Independent reference implementations used to cross-check the library.

Nothing in this module imports from ``degenbell``.  Every function is
written directly from first principles (brute-force enumeration, naive
convolution, order-by-order inversion, three-term recurrences, closed forms
over classical integer tables) so that agreement with the library is real
evidence, not a tautology.

Polynomials in the deformation parameter are represented as bare tuples
of Fractions with trailing zeros stripped — the same canonical shape as
``LambdaPoly.coeffs`` — so tests can compare without conversion helpers.
"""

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

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
# Deformed tables: S₂ and S₁ by their three-term recurrences, β in closed
# form over classical integer Stirling numbers
# ----------------------------------------------------------------------

def classical_stirling(n_max: int) -> tuple[list[list[int]], list[list[int]]]:
    """Signed s(n, k) and S(n, k) for 0 ≤ k ≤ n ≤ n_max, by their classical
    integer recurrences s(n,k) = s(n-1,k-1) - (n-1)s(n-1,k) and
    S(n,k) = S(n-1,k-1) + kS(n-1,k)."""
    s, S = [[1]], [[1]]
    for n in range(1, n_max + 1):
        s_prev, S_prev = s[-1] + [0], S[-1] + [0]
        s.append([(s_prev[k - 1] if k else 0) - (n - 1) * s_prev[k] for k in range(n + 1)])
        S.append([(S_prev[k - 1] if k else 0) + k * S_prev[k] for k in range(n + 1)])
    return s, S


def _three_term_rows(n_max: int, factor) -> list[list[Poly]]:
    """T(n, k) for k ≤ n ≤ n_max on Fraction tuples, from T(0, 0) = 1 by
    T(n,k) = T(n-1,k-1) + factor(n,k)·T(n-1,k), where factor is a λ-polynomial."""
    rows = [[(Fraction(1),)]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [()]
        rows.append([
            padd(prev[k - 1] if k else (), pmul(factor(n, k), prev[k])) for k in range(n + 1)
        ])
    return rows


def stirling2_deg_rows(n_max: int) -> list[list[Poly]]:
    """S_{2,λ}(n, k) for k ≤ n ≤ n_max by S(n,k) = S(n-1,k-1) + (k-(n-1)λ)·S(n-1,k).

    (x)_{n,λ} = (x)_{n-1,λ}·(x-(n-1)λ) and x·(x)_k = (x)_{k+1} + k·(x)_k.
    """
    return _three_term_rows(n_max, lambda n, k: (Fraction(k), Fraction(1 - n)))


def stirling1_deg_rows(n_max: int) -> list[list[Poly]]:
    """S_{1,λ}(n, k) for k ≤ n ≤ n_max by S(n,k) = S(n-1,k-1) + (kλ-(n-1))·S(n-1,k).

    (x)_n = (x)_{n-1}·(x-(n-1)) and x·(x)_{k,λ} = (x)_{k+1,λ} + kλ·(x)_{k,λ}.
    """
    return _three_term_rows(n_max, lambda n, k: (Fraction(1 - n), Fraction(k)))


def bell_deg_at(n: int, x: Fraction, lam: Fraction) -> Fraction:
    """Bel_{n,λ}(x) = Σ_k S_{2,λ}(n,k)·x^k at rational x and λ, from the recurrence rows."""
    return sum(
        (sum(c * lam**d for d, c in enumerate(entry)) * x**k
         for k, entry in enumerate(stirling2_deg_rows(n)[n])),
        Fraction(0),
    )


def gregory(n_max: int) -> list[Fraction]:
    """G_0..G_{n_max} with t/log(1+t) = Σ G_m t^m, by inverting log(1+t)/t."""
    a = [Fraction((-1) ** m, m + 1) for m in range(n_max + 1)]
    g = [Fraction(1)]
    for m in range(1, n_max + 1):
        g.append(-sum(a[j] * g[m - j] for j in range(1, m + 1)))
    return g


def bernoulli_deg_rows(n_max: int) -> list[Poly]:
    """β_{n,λ} for n ≤ n_max: the λ^d coefficient is
    B_{n-d}·Σ_{m≤d} C(n,m)·m!·G_m·s(n-m, n-d).

    With u = log(1+λt)/λ, t/(e_λ(t)-1) = [λt/log(1+λt)]·[u/(e^u-1)];
    expand both factors in t.
    """
    s, _ = classical_stirling(n_max)
    b, g = classical_bernoulli(n_max), gregory(n_max)
    return [
        pstrip(
            b[n - d]
            * sum(comb(n, m) * factorial(m) * g[m] * s[n - m][n - d] for m in range(d + 1))
            for d in range(n + 1)
        )
        for n in range(n_max + 1)
    ]


def bernoulli_deg_by_inversion(n_max: int) -> list[Poly]:
    """β_{n,λ} for n ≤ n_max: n!·[t^n] of the reciprocal of (e_λ(t)-1)/t.

    (e_λ(t)-1)/t = Σ_k (1)_{k+1,λ}·t^k/(k+1)!; its reciprocal b is solved
    order by order, b_n = -Σ_{j=1..n} a_j·b_{n-j}, on Fraction tuples.
    """
    a = [
        tuple(c / factorial(k + 1) for c in pfalling((Fraction(1),), k + 1))
        for k in range(n_max + 1)
    ]
    b = [(Fraction(1),)]
    for n in range(1, n_max + 1):
        acc = ()
        for j in range(1, n + 1):
            acc = padd(acc, pmul(a[j], b[n - j]))
        b.append(pneg(acc))
    return [tuple(c * factorial(n) for c in bn) for n, bn in enumerate(b)]


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
# Bivariate polynomials, dict form
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


def generalized_factorial(w: dict, step: dict, n: int) -> dict:
    """Π_{i<n}(w + i·step) for {(x_deg, λ_deg): Fraction} maps, by naive products."""
    out = {(0, 0): Fraction(1)}
    for i in range(n):
        factor = dict(w)
        for key, c in step.items():
            factor[key] = factor.get(key, 0) + i * c
        out = poly_mul_2d(out, {key: c for key, c in factor.items() if c})
    return out
