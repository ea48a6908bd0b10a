"""Quotients by monomial generators on the ball and the polydisc against
their closed form.

The monomials are orthogonal there, with squared norms alpha!/(lam)_|alpha|
on the ball and prod_i alpha_i!/(lam)_{alpha_i} on the polydisc.  Modulo
monomial generators the truncated quotient is spanned by the standard
monomials of degree <= D (those that no generator divides), and S_j is the
weighted shift e_alpha -> (||z^(alpha + e_j)|| / ||z^alpha||) e_(alpha + e_j),
zero where alpha + e_j is not standard or leaves degree D.  So [S_a, S_b*]
needs no kernel series, basis, complement or SVD of generator columns: an
independent route to every cell of ``essential_normality_profile``.
"""

import itertools
import math

import numpy as np
import pytest

from symdom.domains import DomainSpec
from symdom.kernels import truncated_basis
from symdom.operators import essential_normality_profile, quotient_model
from symdom.polynomials import Polynomial

P_VALUES = [1.0, 1.5, 2.0, 3.0, np.inf]


def pochhammer(lam, m):
    return math.prod(lam + i for i in range(m))


def squared_norm(kind, lam, alpha):
    if kind == "ball":
        return math.prod(map(math.factorial, alpha)) / pochhammer(lam, sum(alpha))
    return math.prod(math.factorial(a) / pochhammer(lam, a) for a in alpha)


def standard_monomials(n, max_degree, exponents):
    """The multi-indices of degree <= max_degree that no exponent divides,
    by degree."""
    out = []
    for d in range(max_degree + 1):
        for alpha in itertools.product(range(d + 1), repeat=n):
            if sum(alpha) == d and not any(
                all(a >= b for a, b in zip(alpha, beta)) for beta in exponents
            ):
                out.append(alpha)
    return out


def closed_form_cells(kind, n, lam, max_degree, exponents, window):
    """Per pair (a, b), a <= b, and p: the full and windowed Schatten
    p-norms of [S_a, S_b*] on the quotient modulo the monomials z^beta, and
    the quotient's dimension."""
    basis = standard_monomials(n, max_degree, exponents)
    index = {alpha: k for k, alpha in enumerate(basis)}
    shifts = []
    for j in range(n):
        s = np.zeros((len(basis), len(basis)))
        for alpha, k in index.items():
            up = tuple(a + (i == j) for i, a in enumerate(alpha))
            if up in index:
                s[index[up], k] = math.sqrt(
                    squared_norm(kind, lam, up) / squared_norm(kind, lam, alpha)
                )
        shifts.append(s)
    keep = [k for k, alpha in enumerate(basis) if sum(alpha) <= max_degree - window]
    cells = {}
    for a, b in itertools.combinations_with_replacement(range(n), 2):
        comm = shifts[a] @ shifts[b].T - shifts[b].T @ shifts[a]
        for p in P_VALUES:
            cells[a, b, p] = tuple(
                schatten(m, p) for m in (comm, comm[np.ix_(keep, keep)])
            )
    return cells, len(basis)


def schatten(mat, p):
    sv = np.linalg.svd(mat, compute_uv=False) if mat.size else np.zeros(0)
    if not sv.size:
        return 0.0
    if np.isinf(p):
        return float(sv.max())
    return float(np.sum(sv**p) ** (1 / p))


def agrees(got, want):
    """Within 1e-12 relative, or both below 1e-13: a cell that vanishes in
    exact arithmetic (z1 and z2* commute on the polydisc) reads rounding
    noise on either route."""
    return abs(got - want) <= 1e-12 * want or max(got, want) < 1e-13


CASES = [
    ("ball", 2, 2.0, [(1, 0)]),
    ("ball", 2, 3.0, [(1, 1)]),
    ("ball", 2, 2.5, [(2, 0)]),
    ("polydisc", 2, 2.0, [(1, 0)]),
    ("polydisc", 2, 1.5, [(1, 1)]),
    ("polydisc", 2, 3.0, [(2, 0)]),
    ("ball", 3, 3.0, [(1, 0, 0)]),
    ("ball", 3, 4.0, [(1, 0, 0), (0, 1, 0)]),
]


@pytest.mark.parametrize(
    "kind, n, lam, exponents", CASES, ids=lambda v: str(v).replace(" ", "")
)
@pytest.mark.parametrize("window", [None, 1, 3])
def test_monomial_quotient_profile_is_the_weighted_shift(kind, n, lam, exponents, window):
    dom = DomainSpec.ball(n) if kind == "ball" else DomainSpec.polydisc(n)
    gens = [Polynomial.monomial(beta) for beta in exponents]
    coords = [Polynomial.coordinate(i, n) for i in range(n)]
    degrees = [6, 16]
    rows = [
        row
        for D in degrees
        for row in essential_normality_profile(
            quotient_model(truncated_basis(dom, lam, D), gens), coords, P_VALUES, window=window
        )
    ]
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    assert len(rows) == len(degrees) * len(pairs) * len(P_VALUES)
    for D, chunk in zip(degrees, np.split(np.arange(len(rows)), len(degrees))):
        cells, dim = closed_form_cells(kind, n, lam, D, exponents, 2 if window is None else window)
        for k, ((a, b), p) in zip(chunk, itertools.product(pairs, P_VALUES)):
            row = rows[k]
            assert (row.max_degree, row.p, row.dim_quotient) == (D, p, dim)
            full, windowed = cells[a, b, p]
            assert agrees(row.schatten_full, full), (D, a, b, p, row.schatten_full, full)
            assert agrees(row.schatten_windowed, windowed), (D, a, b, p, row.schatten_windowed, windowed)
