"""Reference values for the benchmark's correctness gate.

Nothing here imports degenbell.  Polynomials in λ are plain lists of
coefficients, lowest degree first, with no trailing zeros (the zero
polynomial is ``[]``), which is how ``LambdaPoly.coeffs`` compares.

The triangles come from the classical three-term recurrences, each
derived from one multiplication of a factorial basis element:

* S₂: (x)_{k,λ}·(x - kλ) = (x)_{k+1,λ}, so
  S₂(n+1,k) = S₂(n,k-1) + (k - nλ)·S₂(n,k).
* S₁: (x)_{k,λ}·(x - n) = (x)_{k+1,λ} + (kλ - n)·(x)_{k,λ}, so
  S₁(n+1,k) = S₁(n,k-1) + (kλ - n)·S₁(n,k).
* brackets: ⟨x⟩_{k,λ}·(x + n) = ⟨x⟩_{k+1,λ} + (n - kλ)·⟨x⟩_{k,λ}, so
  [n+1,k] = [n,k-1] + (n - kλ)·[n,k].  This is not the sign-flipped S₁
  route the library takes.

β comes from inverting (e_λ(t) - 1)/t coefficient by coefficient, and is
anchored at λ = 0 by the classical Bernoulli recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(p: list, q: list) -> list:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def poly_mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def poly_eval(p: list, lam) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * lam + c
    return acc


def _triangle(n_max: int, factor) -> list[list[list]]:
    """rows[n][k] for T(n+1,k) = T(n,k-1) + factor(n,k)·T(n,k), T(0,0) = 1."""
    rows = [[[1]]]
    for n in range(n_max):
        prev = rows[-1]
        row = []
        for k in range(n + 2):
            left = prev[k - 1] if k >= 1 else []
            right = poly_mul(factor(n, k), prev[k]) if k <= n else []
            row.append(poly_add(left, right))
        rows.append(row)
    return rows


def stirling2_rows(n_max: int) -> list[list[list[int]]]:
    """S_{2,λ}(n,k) as integer λ-polynomials, rows 0..n_max."""
    return _triangle(n_max, lambda n, k: [k, -n])


def stirling1_rows(n_max: int) -> list[list[list[int]]]:
    """S_{1,λ}(n,k) as integer λ-polynomials, rows 0..n_max."""
    return _triangle(n_max, lambda n, k: [-n, k])


def bracket_rows(n_max: int) -> list[list[list[int]]]:
    """[n k]_λ as integer λ-polynomials, rows 0..n_max."""
    return _triangle(n_max, lambda n, k: [n, -k])


def bell_value(s2_row: list[list[int]], x, lam) -> Fraction:
    """Bel_{n,λ}(x) = Σ_k S_{2,λ}(n,k)·x^k from one reference S₂ row."""
    acc = Fraction(0)
    for p in reversed(s2_row):
        acc = acc * x + poly_eval(p, lam)
    return acc


def bernoulli_polys(n_max: int) -> list[list[Fraction]]:
    """β_{n,λ} as Fraction λ-polynomials, n = 0..n_max.

    r_m = (1)_{m+1,λ}/(m+1)! are the coefficients of (e_λ(t) - 1)/t, with
    (1)_{j,λ} = (1)(1-λ)···(1-(j-1)λ); c = 1/r term by term and β_n = n!·c_n.
    """
    ratio = []
    fall = [Fraction(1)]
    for m in range(n_max + 1):
        fall = poly_mul(fall, [Fraction(1), Fraction(-m)])
        ratio.append([c / factorial(m + 1) for c in fall])
    recip = [[Fraction(1)]]
    for n in range(1, n_max + 1):
        acc: list = []
        for k in range(1, n + 1):
            acc = poly_add(acc, poly_mul(ratio[k], recip[n - k]))
        recip.append([-c for c in acc])
    return [[c * factorial(n) for c in p] for n, p in enumerate(recip)]


def bernoulli_classical(n_max: int) -> list[Fraction]:
    """B_0..B_n_max with B_1 = -1/2, from Σ_{j≤n} C(n+1,j)·B_j = 0."""
    b: list[Fraction] = []
    for n in range(n_max + 1):
        if n == 0:
            b.append(Fraction(1))
            continue
        b.append(-sum(comb(n + 1, j) * b[j] for j in range(n)) / (n + 1))
    return b
