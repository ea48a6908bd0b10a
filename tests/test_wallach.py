"""Pochhammer products, Gindikin Gamma, weight classification, finite-rank
weights, partition enumeration, and embedding-ratio profiles."""

import math

import numpy as np
import pytest

from symdom.domains import DomainSpec
from symdom.errors import PoleError, ValidationError
from symdom.wallach import (
    WallachClass,
    classify_weight,
    embedding_ratio_profile,
    finite_rank_membership,
    gindikin_gamma,
    partitions_up_to,
    pochhammer,
)

BALL2 = DomainSpec.ball(2)
POLY2 = DomainSpec.polydisc(2)
MB22 = DomainSpec.matrix_ball(2, 2)


# ---------------------------------------------------------------------
# Pochhammer products
# ---------------------------------------------------------------------

def test_pochhammer_empty_partition():
    for lam in (-3.0, 0.0, 0.7, 5.0):
        assert pochhammer(lam, (0, 0, 0), 2.0) == 1.0


def test_pochhammer_rank_one_frozen():
    assert pochhammer(2.0, (3,), 2.0) == 24.0


def test_pochhammer_exact_zero_at_discrete_point():
    # bit-exact zero, not merely small: products, not Gamma ratios
    assert pochhammer(0.0, (1, 0), 2.0) == 0.0
    assert pochhammer(1.0, (1, 1), 2.0) == 0.0


def test_pochhammer_vanishing_pattern_discrete():
    # weight (j-1)a/2 kills exactly the partitions with m_j > 0
    for j, lam in ((1, 0.0), (2, 1.0)):
        for m in partitions_up_to(8, 2):
            value = pochhammer(lam, m, 2.0)
            if m[j - 1] > 0:
                assert value == 0.0
            else:
                assert value != 0.0


def test_pochhammer_rejects_bad_partition():
    with pytest.raises(ValidationError):
        pochhammer(1.0, (1, 2), 2.0)  # not weakly decreasing
    with pytest.raises(ValidationError):
        pochhammer(1.0, (2, -1), 2.0)


# ---------------------------------------------------------------------
# Gindikin Gamma
# ---------------------------------------------------------------------

def test_gindikin_rank_one_is_gamma():
    assert abs(gindikin_gamma((1.0,), 2.0, 1) - 1.0) < 1e-15
    assert abs(gindikin_gamma((5.0,), 2.0, 1) - math.gamma(5.0)) < 1e-10


def test_gindikin_frozen_rank_two():
    assert abs(gindikin_gamma((3.0, 2.0), 2.0, 2) - 4 * math.pi) < 1e-12


def test_gindikin_pochhammer_ratio(rng):
    for _ in range(25):
        r = int(rng.integers(1, 4))
        a = float(rng.choice([0.0, 1.0, 2.0]))
        lam = 2.0 + (r - 1) * a / 2 + rng.uniform(0, 3)
        parts = partitions_up_to(6, r)
        m = parts[int(rng.integers(0, len(parts)))]
        shifted = tuple(lam + mi for mi in m)
        base = tuple(lam for _ in range(r))
        ratio = gindikin_gamma(shifted, a, r) / gindikin_gamma(base, a, r)
        want = pochhammer(lam, m, a)
        assert abs(ratio - want) < 1e-10 * max(1.0, abs(want))


def test_gindikin_pole_raises():
    with pytest.raises(PoleError):
        gindikin_gamma((0.0,), 2.0, 1)
    with pytest.raises(PoleError):
        gindikin_gamma((1.0, 1.0), 2.0, 2)  # second factor hits Gamma(0)


# ---------------------------------------------------------------------
# Wallach classification
# ---------------------------------------------------------------------

def test_classify_ball():
    assert classify_weight(0.0, BALL2).kind is WallachClass.DISCRETE
    assert classify_weight(0.0, BALL2).index == 1
    assert classify_weight(0.5, BALL2).kind is WallachClass.CONTINUOUS
    assert classify_weight(-0.5, BALL2).kind is WallachClass.NOT_IN_WALLACH


def test_classify_matrixball22():
    verdict = classify_weight(1.0, MB22)
    assert verdict.kind is WallachClass.DISCRETE and verdict.index == 2
    assert classify_weight(1.5, MB22).kind is WallachClass.CONTINUOUS
    assert classify_weight(0.5, MB22).kind is WallachClass.NOT_IN_WALLACH
    assert not classify_weight(1.0, MB22).is_module_weight


def test_drury_arveson_weight_always_continuous():
    for dom in (BALL2, POLY2, MB22, DomainSpec.matrix_ball(2, 3), DomainSpec.ball(5)):
        assert classify_weight(dom.drury_arveson_weight, dom).kind is WallachClass.CONTINUOUS


def test_positivity_grid_matches_classification():
    # nonnegativity over all partitions of weight <= 30 characterizes membership
    for dom in (BALL2, POLY2, MB22):
        r, a = dom.rank, float(dom.char_a)
        parts = partitions_up_to(30, r)
        top = (r - 1) * a / 2 + 3
        for lam in np.arange(-2.0, top + 1e-9, 0.25):
            values = [pochhammer(float(lam), m, a) for m in parts]
            nonneg = all(v >= 0 for v in values)
            in_wallach = classify_weight(float(lam), dom).kind is not WallachClass.NOT_IN_WALLACH
            assert nonneg == in_wallach, f"{dom.label()} lam={lam}"


# ---------------------------------------------------------------------
# finite-rank weights
# ---------------------------------------------------------------------

def test_finite_rank_membership_values():
    assert finite_rank_membership(0.0, 2.0, 2)
    assert finite_rank_membership(-3.0, 2.0, 1)
    assert not finite_rank_membership(0.5, 2.0, 2)
    # positive discrete points do not terminate the power series: the inverse
    # of the generic polynomial is not a polynomial
    assert not finite_rank_membership(1.0, 2.0, 2)


# ---------------------------------------------------------------------
# partition enumeration
# ---------------------------------------------------------------------

def test_partitions_base_cases():
    assert partitions_up_to(0, 3) == [(0, 0, 0)]
    assert partitions_up_to(2, 2) == [(0, 0), (1, 0), (2, 0), (1, 1)]
    assert len(partitions_up_to(5, 1)) == 6


def test_partitions_globally_ordered():
    parts = partitions_up_to(7, 3)
    keys = [(sum(m), tuple(-x for x in m)) for m in parts]
    assert keys == sorted(keys)
    assert len(set(parts)) == len(parts)
    for m in parts:
        assert all(m[i] >= m[i + 1] for i in range(len(m) - 1))


# ---------------------------------------------------------------------
# embedding ratios
# ---------------------------------------------------------------------

def test_embedding_ratio_ball_frozen():
    prof20 = embedding_ratio_profile(1.0, 3.0, BALL2, 20)
    assert prof20.max_ratio == 1.0
    assert prof20.argmax == (0,)
    prof40 = embedding_ratio_profile(1.0, 3.0, BALL2, 40)
    assert prof40.max_ratio == prof20.max_ratio


def test_embedding_ratio_trivial_partition_is_one():
    prof = embedding_ratio_profile(2.0, 2.5, MB22, 6)
    assert prof.by_weight[0] == 1.0


def test_embedding_ratio_decay_slope():
    # rank 1: ratio(k) = (lam1)_k/(lam2)_k ~ C k^(lam1-lam2)
    lam1, lam2 = 1.0, 3.0
    ks = np.arange(20, 41)
    vals = np.array([pochhammer(lam1, (int(k),), 2.0) / pochhammer(lam2, (int(k),), 2.0) for k in ks])
    slope = np.polyfit(np.log(ks), np.log(vals), 1)[0]
    assert abs(slope - (lam1 - lam2)) < 0.1 * abs(lam1 - lam2)
