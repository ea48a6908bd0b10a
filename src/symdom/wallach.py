"""Wallach set bookkeeping: partitions, multi-variable Pochhammer symbols,
the Gindikin Gamma function, and weight classification.

Pochhammer symbols are computed as direct products of rising factorials,
never as Gamma ratios, so exact zeros at discrete weights survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .domains import DomainSpec
from .errors import PoleError, ValidationError

INTEGER_TOL = 1e-12
FINITE_RANK_KMAX = 64  # the largest k for which lam = -k counts as finite rank

Partition = tuple[int, ...]


def _check_partition(m: Sequence[int]) -> Partition:
    m = tuple(int(x) for x in m)
    if any(x < 0 for x in m):
        raise ValidationError(f"partition {m} has negative parts")
    if any(m[i] < m[i + 1] for i in range(len(m) - 1)):
        raise ValidationError(f"partition {m} is not non-increasing")
    return m


def rising_factorial(x: float, k: int) -> float:
    """(x)_k = x (x+1) ... (x+k-1), with (x)_0 = 1."""
    out = 1.0
    for i in range(k):
        out *= x + i
    return out


def pochhammer(lam: float, m: Sequence[int], a: float) -> float:
    """Multi-variable Pochhammer (lam)_m = prod_j (lam - (a/2)(j-1))_{m_j}."""
    m = _check_partition(m)
    out = 1.0
    for j, mj in enumerate(m):
        out *= rising_factorial(lam - (a / 2.0) * j, mj)
    return out


def gindikin_gamma(s: Sequence[float], a: float, r: int) -> float:
    """Gamma_Omega(s) = (2 pi)^{a r (r-1)/4} prod_j Gamma(s_j - (a/2)(j-1)).

    Raises :class:`PoleError` when any Gamma argument sits at a non-positive
    integer (within ``INTEGER_TOL``).
    """
    s = tuple(float(x) for x in s)
    if len(s) != r:
        raise ValidationError(f"need {r} arguments, got {len(s)}")
    out = (2.0 * math.pi) ** (a * r * (r - 1) / 4.0)
    for j, sj in enumerate(s):
        arg = sj - (a / 2.0) * j
        if arg < 0.5 and abs(arg - round(arg)) <= INTEGER_TOL and round(arg) <= 0:
            raise PoleError(f"Gamma argument {arg} is a non-positive integer")
        out *= math.gamma(arg)
    return out


class WallachClass(Enum):
    DISCRETE = "discrete"
    CONTINUOUS = "continuous"
    NOT_IN_WALLACH = "not_in_wallach"


@dataclass(frozen=True)
class WallachVerdict:
    kind: WallachClass
    index: int | None = None  # 1-based j for discrete points

    @property
    def is_module_weight(self) -> bool:
        """Only continuous weights carry a Hilbert module with Sp = closure."""
        return self.kind is WallachClass.CONTINUOUS


def classify_weight(lam: float, dom: DomainSpec) -> WallachVerdict:
    """Place lam in the Wallach set of the domain.

    Discrete part {(j-1)a/2 : j = 1..r} is checked first (tolerance
    ``INTEGER_TOL``), then the continuous half-line lam > (r-1)a/2.
    """
    for j, point in enumerate(dom.discrete_wallach_points(), start=1):
        if abs(lam - point) <= INTEGER_TOL:
            return WallachVerdict(WallachClass.DISCRETE, j)
    if lam > (dom.rank - 1) * dom.char_a / 2.0:
        return WallachVerdict(WallachClass.CONTINUOUS)
    return WallachVerdict(WallachClass.NOT_IN_WALLACH)


def finite_rank_membership(lam: float, a: float, r: int) -> bool:
    """True when the kernel power series of Delta^{-lam} has finitely many
    nonzero degree blocks.

    That happens exactly when (lam)_m = 0 for all but finitely many
    partitions m.  Since partitions (k, 0, ..., 0) are unconstrained in their
    first part, the first Pochhammer factor must eventually vanish, which
    forces lam to be a non-positive integer; conversely lam = -k bounds every
    part by k.  The check accepts lam = -k for 0 <= k <= ``FINITE_RANK_KMAX``
    within ``INTEGER_TOL``.
    """
    if lam > INTEGER_TOL:
        return False
    k = round(-lam)
    return 0 <= k <= FINITE_RANK_KMAX and abs(lam + k) <= INTEGER_TOL


def partitions_up_to(max_weight: int, r: int) -> list[Partition]:
    """All length-r partitions of weight <= max_weight, ordered by
    (weight, reverse-lexicographic), zero-padded to length r."""
    if max_weight < 0 or r < 1:
        raise ValidationError("need max_weight >= 0 and r >= 1")
    out: list[Partition] = []
    for weight in range(max_weight + 1):
        block: list[Partition] = []

        def emit(prefix: list[int], remaining: int, cap: int) -> None:
            slot = len(prefix)
            if slot == r:
                if remaining == 0:
                    block.append(tuple(prefix))
                return
            lo = remaining if slot == r - 1 else 0
            for part in range(min(cap, remaining), lo - 1, -1):
                emit(prefix + [part], remaining - part, part)

        emit([], weight, weight)
        block.sort(key=lambda p: tuple(-x for x in p))
        out.extend(block)
    return out


@dataclass(frozen=True)
class EmbeddingRatioProfile:
    """Max of (lam1)_m / (lam2)_m over partitions of bounded weight."""

    lam1: float
    lam2: float
    max_weight: int
    max_ratio: float
    argmax: Partition
    by_weight: tuple[float, ...]  # max ratio per weight 0..max_weight


def embedding_ratio_profile(
    lam1: float, lam2: float, dom: DomainSpec, max_weight: int
) -> EmbeddingRatioProfile:
    """Profile of the embedding constants between two continuous weights.

    Requires (r-1)a/2 < lam1 < lam2 so every Pochhammer value is positive;
    the ratio is bounded and decays like |m|^{lam1 - lam2} along rank-one
    directions.
    """
    threshold = (dom.rank - 1) * dom.char_a / 2.0
    if not (threshold < lam1 < lam2):
        raise ValidationError(
            f"need {threshold} < lam1 < lam2, got lam1={lam1}, lam2={lam2}"
        )
    best = -math.inf
    best_m: Partition = (0,) * dom.rank
    per_weight = [0.0] * (max_weight + 1)
    for m in partitions_up_to(max_weight, dom.rank):
        ratio = pochhammer(lam1, m, dom.char_a) / pochhammer(lam2, m, dom.char_a)
        w = sum(m)
        per_weight[w] = max(per_weight[w], ratio)
        if ratio > best:
            best = ratio
            best_m = m
    return EmbeddingRatioProfile(
        lam1, lam2, max_weight, best, best_m, tuple(per_weight)
    )
