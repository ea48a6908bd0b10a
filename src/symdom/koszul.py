"""Koszul complex of a commuting matrix tuple: Taylor-style regularity
tests, joint eigenvalues, and spectral mapping checks.

For an n-tuple T acting on C^h the complex lives on C^h tensor the exterior
algebra of C^n, with boundaries D_k = sum_i T_i (x) Theta_i.  For matrices,
regularity (exactness at every stage) is decided by SVD rank counting.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConsensusFailure, NotCommuting, ValidationError
from .polynomials import Polynomial

RANK_TOL = 1e-8
COMMUTE_TOL = 1e-10
CONSENSUS_TOL = 1e-6


def _as_tuple(mats) -> list[np.ndarray]:
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats:
        raise ValidationError("empty operator tuple")
    h = mats[0].shape[0]
    for m in mats:
        if m.ndim != 2 or m.shape != (h, h):
            raise ValidationError("tuple components must be square, same size")
    return mats


def _guard_commuting(worst: float) -> float:
    if worst > COMMUTE_TOL:
        raise NotCommuting(f"relative commutator defect {worst:.2e} > {COMMUTE_TOL:.0e}")
    return worst


def check_commuting(mats) -> float:
    """Max pairwise commutator norm, relative to the largest component norm.

    Raises :class:`NotCommuting` above ``COMMUTE_TOL``.
    """
    mats = _as_tuple(mats)
    scale = max(max(np.linalg.norm(m, 2) for m in mats), 1.0)
    worst = 0.0
    for a, b in itertools.combinations(mats, 2):
        worst = max(worst, np.linalg.norm(a @ b - b @ a, 2) / scale)
    return _guard_commuting(worst)


# ---------------------------------------------------------------------
# exterior algebra
# ---------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _subsets(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.combinations(range(n), k))


def creation_matrices(n: int, k: int) -> list[np.ndarray]:
    """Matrices of the wedge maps Theta_i : Lambda^k -> Lambda^{k+1}.

    Basis of Lambda^k: increasing index subsets in lex order.  The sign of
    eta_i wedge eta_S is (-1)^(number of indices in S below i).
    """
    if not 0 <= k < n:
        raise ValidationError(f"need 0 <= k < n, got k={k}, n={n}")
    src = _subsets(n, k)
    dst = {s: i for i, s in enumerate(_subsets(n, k + 1))}
    mats = []
    for i in range(n):
        theta = np.zeros((len(dst), len(src)))
        for col, s in enumerate(src):
            if i in s:
                continue
            sign = (-1) ** sum(1 for j in s if j < i)
            theta[dst[tuple(sorted(s + (i,)))], col] = sign
        mats.append(theta)
    return mats


def creation_operators_full(n: int) -> list[np.ndarray]:
    """Theta_i on the whole exterior algebra (dimension 2^n), subsets ordered
    by (size, lex): the blocks of ``creation_matrices`` at their offsets."""
    starts = np.cumsum([0] + [len(_subsets(n, k)) for k in range(n + 1)])
    mats = [np.zeros((2**n, 2**n)) for _ in range(n)]
    for k in range(n):
        for theta, block in zip(mats, creation_matrices(n, k)):
            theta[starts[k + 1]:starts[k + 2], starts[k]:starts[k + 1]] = block
    return mats


# ---------------------------------------------------------------------
# the complex
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class KoszulComplex:
    """Boundary maps D_0 .. D_{n-1} of the Koszul complex of a tuple."""

    n: int
    h: int
    boundaries: tuple[np.ndarray, ...]

    def stage_dims(self) -> list[int]:
        from math import comb

        return [self.h * comb(self.n, k) for k in range(self.n + 1)]


def koszul_boundaries(mats) -> KoszulComplex:
    """Assemble D_k = sum_i T_i (x) Theta_i (subset-major Kronecker layout)."""
    mats = _as_tuple(mats)
    check_commuting(mats)
    n, h = len(mats), mats[0].shape[0]
    boundaries = []
    for k in range(n):
        thetas = creation_matrices(n, k)
        d = np.zeros((h * thetas[0].shape[0], h * thetas[0].shape[1]), dtype=complex)
        for theta, t in zip(thetas, mats):
            d += np.kron(theta, t)
        boundaries.append(d)
    return KoszulComplex(n, h, tuple(boundaries))


def boundary_square_defect(cx: KoszulComplex) -> float:
    """Max norm of D_{k+1} D_k; zero for an exactly commuting tuple."""
    worst = 0.0
    for a, b in zip(cx.boundaries[1:], cx.boundaries[:-1]):
        worst = max(worst, np.linalg.norm(a @ b, 2))
    return worst


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    ranks: tuple[int, ...]
    defects: tuple[int, ...]  # failure of exactness per stage, 0 everywhere iff regular
    min_stage_gap: float  # smallest kept singular value across boundaries


def _rank(sv: np.ndarray, cutoff: float) -> int:
    return int(np.sum(sv > cutoff))


def regularity_report(cx: KoszulComplex) -> RegularityReport:
    """Exactness at every stage by rank counting.

    Singular values below ``RANK_TOL`` times the largest singular value of
    the whole complex count as zero.  Stage k is exact when
    nullity(D_k) = rank(D_{k-1}); the top stage needs D_{n-1} surjective.
    """
    svals = [np.linalg.svd(d, compute_uv=False) if min(d.shape) else np.zeros(0)
             for d in cx.boundaries]
    scale = max((float(sv[0]) for sv in svals if sv.size), default=0.0)
    cutoff = RANK_TOL * max(scale, 1e-300)
    ranks = [_rank(sv, cutoff) for sv in svals]
    dims = cx.stage_dims()
    defects = []
    for k in range(cx.n + 1):
        incoming = ranks[k - 1] if k >= 1 else 0
        kernel = dims[k] - ranks[k] if k < cx.n else dims[k]
        defects.append(kernel - incoming)
    kept = [float(sv[r - 1]) for sv, r in zip(svals, ranks) if r > 0]
    return RegularityReport(
        regular=all(d == 0 for d in defects),
        ranks=tuple(ranks),
        defects=tuple(defects),
        min_stage_gap=min(kept, default=0.0),
    )


def is_regular(cx: KoszulComplex) -> bool:
    return regularity_report(cx).regular


def taylor_point_test(mats, w) -> RegularityReport:
    """Regularity of the shifted tuple (T_1 - w_1, ..., T_n - w_n).

    Singular exactly at the points of the joint spectrum.
    """
    mats = _as_tuple(mats)
    w = np.asarray(w, dtype=complex).reshape(-1)
    if w.size != len(mats):
        raise ValidationError(f"point has {w.size} entries, tuple has {len(mats)}")
    eye = np.eye(mats[0].shape[0], dtype=complex)
    shifted = [t - wi * eye for t, wi in zip(mats, w)]
    return regularity_report(koszul_boundaries(shifted))


# ---------------------------------------------------------------------
# joint eigenvalues
# ---------------------------------------------------------------------

def _joint_eigs_once(mats: list[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    """Diagonal of a simultaneous triangularization from one random
    combination; retries internally if the Schur basis fails to triangularize
    every component."""
    h = mats[0].shape[0]
    scale = max(max(np.linalg.norm(m, 2) for m in mats), 1.0)
    for _ in range(8):
        coeffs = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
        combo = sum(c * m for c, m in zip(coeffs, mats))
        _, z = scipy.linalg.schur(combo, output="complex")
        rotated = [z.conj().T @ m @ z for m in mats]
        defect = max(
            np.linalg.norm(np.tril(r, -1), 2) for r in rotated
        )
        if defect <= 1e-7 * scale:
            return np.column_stack([np.diag(r) for r in rotated])
    raise ConsensusFailure(
        "no random combination produced a simultaneous triangularization"
    )


def _match_rows(a: np.ndarray, b: np.ndarray) -> float:
    """Greedy nearest-neighbour matching of two equal-size point lists;
    returns the largest matched distance."""
    remaining = list(range(b.shape[0]))
    worst = 0.0
    for row in a:
        dists = [np.linalg.norm(row - b[j]) for j in remaining]
        pick = int(np.argmin(dists))
        worst = max(worst, float(dists[pick]))
        remaining.pop(pick)
    return worst


def joint_eigenvalues(mats, seed: int = 0) -> np.ndarray:
    """Joint eigenvalue vectors of a commuting tuple, shape (h, n).

    Two independent randomized triangularizations must agree after greedy
    matching within ``CONSENSUS_TOL``; otherwise :class:`ConsensusFailure`.
    """
    mats = _as_tuple(mats)
    check_commuting(mats)
    rng = np.random.default_rng(seed)
    first = _joint_eigs_once(mats, rng)
    second = _joint_eigs_once(mats, rng)
    gap = _match_rows(first, second)
    if gap > CONSENSUS_TOL:
        raise ConsensusFailure(
            f"randomized joint-eigenvalue runs disagree by {gap:.2e}"
        )
    order = np.lexsort(
        tuple(first[:, i].imag for i in reversed(range(first.shape[1])))
        + tuple(first[:, i].real for i in reversed(range(first.shape[1])))
    )
    return first[order]


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=complex).reshape(a.shape[0], -1)
    b = np.asarray(b, dtype=complex).reshape(b.shape[0], -1)
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def polynomial_map_tuple(mats, polys: list[Polynomial]) -> list[np.ndarray]:
    """Apply a polynomial map componentwise to a commuting tuple."""
    mats = _as_tuple(mats)
    return [p.eval_tuple(mats) for p in polys]


def spectral_mapping_check(mats, polys: list[Polynomial], seed: int = 0) -> float:
    """Hausdorff distance between f(joint eigenvalues) and the joint
    eigenvalues of f(T); zero in exact arithmetic."""
    eigs = joint_eigenvalues(mats, seed=seed)
    mapped = np.column_stack([p.eval_batch(eigs) for p in polys])
    image_eigs = joint_eigenvalues(polynomial_map_tuple(mats, polys), seed=seed + 1)
    return hausdorff_distance(mapped, image_eigs)
