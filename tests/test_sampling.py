"""The seeded stream against numpy's default_rng, and the Shilov-boundary
samples of the matrix ball."""

import numpy as np
import pytest

from symdom import sampling
from symdom.domains import DomainSpec
from symdom.operators import DENOMINATOR_SEED
from symdom.sampling import (
    Stream,
    closed_domain_samples,
    random_commuting_tuple,
    random_point,
    shilov_samples,
)

# 2**32 + 1, 2**64 + 3 and 2**128 + 5 take two, three and five 32-bit words
# of entropy; past the pool's four, words are mixed into every pool word
SEEDS = [*range(16), DENOMINATOR_SEED, 2**32 + 1, 2**64 + 3, 2**128 + 5]
DOMAINS = [
    DomainSpec.ball(2), DomainSpec.polydisc(3), DomainSpec.matrix_ball(2, 2),
    DomainSpec.matrix_ball(2, 3),
]


def bits(draw):
    """The IEEE bits of a float or of a real or complex array."""
    return np.asarray(draw).view(np.uint64)


def assert_same(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_is_default_rng_bit_for_bit(seed):
    stream, gen = Stream(seed), np.random.default_rng(seed)
    state = gen.bit_generator.state["state"]
    assert (stream._state, stream._inc) == (state["state"], state["inc"])
    calls = [
        ("standard_normal", (), {}),
        ("standard_normal", (4,), {}),
        ("uniform", (0.05, 0.999), {}),
        ("uniform", (), {}),
        ("standard_normal", ((3, 2, 2, 3),), {}),
        ("uniform", (), {"size": (5, 3)}),
        ("uniform", (0.0, 1.0), {"size": 7}),
        ("standard_normal", (3000,), {}),
        ("uniform", (0.5, 1.0), {"size": 2500}),
    ]
    for name, args, kwargs in calls:
        assert_same(getattr(stream, name)(*args, **kwargs), getattr(gen, name)(*args, **kwargs))
    # the samplers, in the order the commands call them
    for dom in DOMAINS:
        assert_same(random_point(dom, stream, 0.5), random_point(dom, gen, 0.5))
        assert_same(closed_domain_samples(dom, 40, stream), closed_domain_samples(dom, 40, gen))
    for got, want in zip(random_commuting_tuple(3, 4, stream), random_commuting_tuple(3, 4, gen)):
        assert_same(got, want)
    # the words and the state agree after all of it
    assert stream._word() == int(gen.bit_generator.random_raw())
    assert stream._state == gen.bit_generator.state["state"]["state"]


def test_long_normal_draw_takes_the_wedge_and_the_tail(monkeypatch):
    slow_layers = []

    def recording(word, take, tables):
        idx, rabs = word & 0xFF, (word >> 9) & (2**52 - 1)
        if rabs >= tables[0][idx]:  # failed the fast test
            slow_layers.append(idx)
        return normal(word, take, tables)

    normal = sampling._normal
    monkeypatch.setattr(sampling, "_normal", recording)
    stream, gen = Stream(11), np.random.default_rng(11)
    draw = stream.standard_normal(200_000)
    assert_same(draw, gen.standard_normal(200_000))
    assert 0 in slow_layers  # the tail beyond r
    assert any(layer != 0 for layer in slow_layers)  # a wedge test
    assert np.abs(draw).max() > sampling.ZIGGURAT_R
    assert_same(stream.standard_normal(), gen.standard_normal())
    assert_same(stream.uniform(size=3), gen.uniform(size=3))


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        Stream(-1)


@pytest.mark.parametrize("seed", [1.5, 1.0, "1", None])
def test_non_integer_seed_is_rejected(seed):
    # default_rng rejects a float or a string too; no seed is truncated,
    # and there is no unseeded stream
    with pytest.raises(TypeError):
        Stream(seed)


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
