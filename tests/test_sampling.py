"""Shilov-boundary samples of the matrix ball."""

import numpy as np
import pytest

from symdom.domains import DomainSpec
from symdom.sampling import shilov_samples


def per_sample_loop(dom, count, rng):
    """One Gaussian draw and one SVD per sample: the reference order."""
    r, c = dom.rows, dom.cols
    out = np.empty((count, r * c), dtype=complex)
    for i in range(count):
        a = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
        u, _, vh = np.linalg.svd(a, full_matrices=False)
        out[i] = (u @ vh).reshape(-1)
    return out


@pytest.mark.parametrize("rows, cols", [(2, 2), (1, 3), (2, 3)])
def test_stacked_sampler_equals_per_sample_loop(rows, cols):
    dom = DomainSpec.matrix_ball(rows, cols)
    stacked_rng, loop_rng = np.random.default_rng(7), np.random.default_rng(7)
    got = shilov_samples(dom, 500, stacked_rng)
    assert np.array_equal(got, per_sample_loop(dom, 500, loop_rng))
    # the stream is left in the same state
    assert stacked_rng.standard_normal() == loop_rng.standard_normal()
    w = got.reshape(-1, rows, cols)
    gram = w @ w.conj().transpose(0, 2, 1)
    assert np.abs(gram - np.eye(rows)).max() < 1e-13
