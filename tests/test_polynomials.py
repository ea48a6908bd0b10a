"""Batched polynomial evaluation against a scalar reference."""

import numpy as np
import pytest

from symdom.errors import ValidationError
from symdom.polynomials import Polynomial


def random_polynomial(rng, nvars, max_degree=5, count=8):
    terms = {}
    for _ in range(count):
        alpha = tuple(int(a) for a in rng.integers(0, max_degree + 1, size=nvars))
        terms[alpha] = complex(rng.standard_normal(), rng.standard_normal())
    return Polynomial(nvars, terms)


def scalar_value(f, z):
    total = 0j
    for alpha, c in f.terms.items():
        term = complex(c)
        for zi, ai in zip(z, alpha):
            term *= complex(zi) ** ai
        total += term
    return total


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_eval_batch_matches_scalar_reference(rng, nvars):
    for _ in range(5):
        f = random_polynomial(rng, nvars)
        pts = rng.standard_normal((40, nvars)) + 1j * rng.standard_normal((40, nvars))
        got = f.eval_batch(pts)
        want = np.array([scalar_value(f, z) for z in pts])
        assert got.shape == (40,)
        scale = sum(abs(c) * np.prod(np.abs(pts) ** a, axis=1) for a, c in f.terms.items())
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        assert abs(f.eval_point(pts[3]) - want[3]) <= 1e-13 * scale[3]


def test_eval_batch_edge_cases(rng):
    f = random_polynomial(rng, 3)
    assert f.eval_batch(np.zeros((0, 3))).shape == (0,)
    const = Polynomial.constant(3, 2.5 - 1j)
    pts = rng.standard_normal((7, 3))
    assert np.array_equal(const.eval_batch(pts), np.full(7, 2.5 - 1j))
    assert np.array_equal(Polynomial.zero(3).eval_batch(pts), np.zeros(7))


@pytest.mark.parametrize("shape", [(5, 2), (5, 4), (3,), (2, 3, 1)])
def test_eval_batch_rejects_wrong_shape(shape):
    with pytest.raises(ValidationError):
        Polynomial.coordinate(0, 3).eval_batch(np.zeros(shape))
