"""MB(2,2) modulo det against its closed form.

The 2 x 2 minors of a matrix cut out the matrices of rank <= 1, the cone
z = x y^T over the Segre embedding; on MB(2,2) that ideal is (det).  In the
Faraut-Koranyi decomposition the ideal is the sum of the P_m with m_2 >= 1,
so the quotient is the sum of the P_(k,0), and P_(k,0) is Sym^k(C^2) x
Sym^k(C^2).  The monomials x^a y^b, |a| = |b| = k, are an orthogonal basis
of it with ||x^a y^b||^2 = a! b! / (k! (lam)_k), and S_ij = P M_{z_ij} P is
the weighted shift x^a y^b -> x^(a + e_i) y^(b + e_j) with weight squared
(a_i + 1)(b_j + 1) / ((k + 1)(lam + k)).  So every cell of
``essential_normality_profile`` has an independent route that needs no
kernel series, basis, complement or SVD of generator columns.
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


def segre_tuple(lam, max_degree):
    """The closed-form S_11, S_12, S_21, S_22 (the coordinates' order on
    MB(2,2)) in the orthonormal basis x^a y^b / ||x^a y^b||, k <= D, and
    the degree k of each basis vector."""
    basis = [
        ((k - i, i), (k - j, j))
        for k in range(max_degree + 1) for i in range(k + 1) for j in range(k + 1)
    ]
    index = {ab: n for n, ab in enumerate(basis)}
    mats = []
    for i, j in itertools.product(range(2), repeat=2):
        s = np.zeros((len(basis), len(basis)))
        for (a, b), col in index.items():
            k = sum(a)
            if k < max_degree:  # degree D maps past the truncation
                up = (a[0] + (i == 0), a[1] + (i == 1)), (b[0] + (j == 0), b[1] + (j == 1))
                s[index[up], col] = math.sqrt((a[i] + 1) * (b[j] + 1) / ((k + 1) * (lam + k)))
        mats.append(s)
    return mats, np.array([sum(a) for a, _ in basis])


def schatten(sv, p):
    return float(sv.max(initial=0.0) if np.isinf(p) else np.sum(sv**p) ** (1.0 / p))


@pytest.mark.parametrize("lam", [1.501, 2.5, 4.0])
def test_det_quotient_is_the_segre_weighted_shift(lam):
    dom = DomainSpec.matrix_ball(2, 2)
    z = [Polynomial.coordinate(i, 4) for i in range(4)]
    det = z[0] * z[3] - z[1] * z[2]
    for d_trunc in (4, 8, 12):
        mats, labels = segre_tuple(lam, d_trunc)
        model = quotient_model(truncated_basis(dom, lam, d_trunc), [det])
        assert model.dim_quotient == len(labels) == sum((k + 1) ** 2 for k in range(d_trunc + 1))
        rows = essential_normality_profile(model, z, P_VALUES)
        keep = np.flatnonzero(labels <= d_trunc - 2)
        cells = []
        for a, b in itertools.combinations_with_replacement(range(4), 2):
            comm = mats[a] @ mats[b].T - mats[b].T @ mats[a]
            full = np.linalg.svd(comm, compute_uv=False)
            windowed = np.linalg.svd(comm[np.ix_(keep, keep)], compute_uv=False)
            cells += [(schatten(full, p), schatten(windowed, p)) for p in P_VALUES]
        assert len(rows) == len(cells)
        for row, want in zip(rows, cells):
            for got, ref in zip((row.schatten_full, row.schatten_windowed), want):
                assert abs(got - ref) <= 1e-12 * ref, (d_trunc, row.symbol_i, row.symbol_j, row.p)
