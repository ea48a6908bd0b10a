"""Koszul complex of a commuting matrix tuple: Taylor-style regularity
tests, joint eigenvalues, and spectral mapping checks.

For an n-tuple T acting on C^h the complex lives on C^h tensor the exterior
algebra of C^n, with boundaries D_k = sum_i T_i (x) Theta_i.  For matrices,
regularity (exactness at every stage) is decided by SVD rank counting.

Tuples and points are held in their own field: float64 when every
imaginary part is exactly zero, complex128 otherwise, and a shifted tuple
takes the wider of the two.  A real tuple tested at a real point therefore
gets real boundaries and real SVDs, at about a quarter of the complex
flops.  Scalar shifts leave commutators unchanged, so ``taylor_point_tests``
computes the pairwise commutators once per tuple and divides them by each
point's own scale.

A sign symmetry of the tuple is an epsilon in {+-1}^n with a diagonal +-1
matrix Gamma such that Gamma T_k Gamma = epsilon_k T_k for every k; the
circle and torus actions of the domain's automorphism group give graded
quotient models many of them.  The shifted tuple at epsilon * w is then
epsilon_k Gamma (T_k - w_k) Gamma, so its complex is unitarily equivalent to
the one at w through Lambda(diag epsilon) (x) Gamma, and the singular values,
ranks, defects and the guard scale agree in exact arithmetic.
``taylor_point_tests`` therefore computes one report per orbit of points
under these symmetries, at the orbit's first-listed point, and gives it to
every member: a member reports the representative's ``min_stage_gap``, which
a per-point SVD would reproduce only up to rounding.

Joint eigenvalues come from a simultaneous triangularization that first
peels the tuple's exact nonzero pattern, as the permutation step of LAPACK's
balancing (Parlett and Reinsch) does: a basis permutation makes every T_k
block upper triangular around an irreducible core, and only that core needs
a Schur form.  A graded quotient model, whose components raise the degree,
has an empty core, so its eigenvalues are read off a permuted tuple exactly
and the triangularization guard, which takes a 2-norm only where the
Frobenius norm of a strict lower part exceeds it, takes no SVD; a tuple
with dense components is all core.  The core's Schur basis is the
unitary factor of a QR factorization of the eigenvectors of one random
combination, in numpy; only a combination whose eigenvectors are
numerically dependent (a nilpotent part) takes scipy's Schur form.

A point test holds one boundary at a time: ``_stages`` builds D_0 ..
D_{n-1} in turn, and each is dropped once its singular values are taken,
before the next is built.  The rank count then reads the n arrays of
singular values, so its verdict, ranks and gap are those of the assembled
complex bit for bit.  On an MB(2,2) quotient (n = 4) the boundaries hold
56 h^2 entries in all against 24 h^2 for the largest, D_1.

Tuples with a NaN or infinite entry are refused with
:class:`ValidationError` before any norm or factorization, and a complex
whose boundaries hold more than ``MAX_BOUNDARY_ENTRIES`` entries with
:class:`MemoryError` before any of it is built.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsensusFailure, NotCommuting, ValidationError
from .polynomials import Polynomial
from .sampling import Stream

RANK_TOL = 1e-8
COMMUTE_TOL = 1e-10
CONSENSUS_TOL = 1e-6
MAX_BOUNDARY_ENTRIES = 1 << 27  # 1 GiB of float64


def _in_field(arrays) -> list[np.ndarray]:
    """The arrays as float64 when all their imaginary parts are exactly zero,
    else as complex128: the one dtype rule of this module."""
    arrays = [np.asarray(a) for a in arrays]
    if any(np.iscomplexobj(a) and a.imag.any() for a in arrays):
        return [np.ascontiguousarray(a, dtype=complex) for a in arrays]
    return [np.ascontiguousarray(a.real, dtype=float) for a in arrays]


def _as_tuple(mats) -> list[np.ndarray]:
    mats = _in_field(mats)
    if not mats:
        raise ValidationError("empty operator tuple")
    h = mats[0].shape[0]
    for m in mats:
        if m.ndim != 2 or m.shape != (h, h):
            raise ValidationError("tuple components must be square, same size")
    if not all(np.isfinite(m).all() for m in mats):
        raise ValidationError("tuple has a NaN or infinite entry")
    return mats


def _guard_commuting(worst: float) -> float:
    if worst > COMMUTE_TOL:
        raise NotCommuting(f"relative commutator defect {worst:.2e} > {COMMUTE_TOL:.0e}")
    return worst


def _scale(mats: list[np.ndarray]) -> float:
    """max(max_i ||T_i||_2, 1), the denominator of the commutator guard."""
    return max(max(float(np.linalg.norm(m, 2)) for m in mats), 1.0)


def _commutator_norm(mats: list[np.ndarray]) -> float:
    """Largest pairwise commutator norm max_{i<j} ||[T_i, T_j]||_2.

    The products are formed from the tuple divided by its largest entry, so
    they cannot overflow; the norm is scaled back in Python floats, where a
    value past the float range becomes inf, which fails the guard, without
    a warning.
    """
    big = max(max(float(np.abs(m).max(initial=0.0)) for m in mats), 1.0)
    unit = [m / big for m in mats]
    worst = max(
        (float(np.linalg.norm(a @ b - b @ a, 2)) for a, b in itertools.combinations(unit, 2)),
        default=0.0,
    )
    return worst * big * big


def check_commuting(mats) -> float:
    """Max pairwise commutator norm, relative to the largest component norm.

    Raises :class:`NotCommuting` above ``COMMUTE_TOL``.
    """
    mats = _as_tuple(mats)
    return _guard_commuting(_commutator_norm(mats) / _scale(mats))


def _support(mats: list[np.ndarray]) -> np.ndarray:
    """The (n, h, h) stack of the tuple's exact nonzeros."""
    return np.stack([m != 0 for m in mats])


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


# ---------------------------------------------------------------------
# the complex
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class KoszulComplex:
    """Boundary maps D_0 .. D_{n-1} of the Koszul complex of a tuple."""

    n: int
    h: int
    boundaries: tuple[np.ndarray, ...]

    def stage_dims(self) -> list[int]:
        return [self.h * math.comb(self.n, k) for k in range(self.n + 1)]


def _check_size(n: int, h: int) -> None:
    """Refuse, as too large for memory, a complex whose boundaries hold more
    than ``MAX_BOUNDARY_ENTRIES`` entries in all, h^2 C(2n, n + 1) by
    Vandermonde, before any subset list or 2^n-sized array is built."""
    entries = h * h * math.comb(2 * n, n + 1)
    if entries > MAX_BOUNDARY_ENTRIES:
        raise MemoryError(f"Koszul boundaries of {entries} entries for a {n}-tuple on C^{h}")


def _stages(mats: list[np.ndarray]):
    """D_0 .. D_{n-1}, one at a time, in the subset-major Kronecker layout
    of sum_i Theta_i (x) T_i: each is built by writing +-T_i at the nonzeros
    of ``creation_matrices(n, k)`` (each nonzero of the sum comes from
    exactly one Theta_i) and dropped here once the next one is asked for."""
    n, h = len(mats), mats[0].shape[0]
    dtype = np.result_type(*mats)
    for k in range(n):
        thetas = creation_matrices(n, k)
        rows, cols = thetas[0].shape
        d = np.zeros((rows, h, cols, h), dtype=dtype)
        for theta, t in zip(thetas, mats):
            r, c = np.nonzero(theta)
            d[r, :, c, :] = theta[r, c][:, None, None] * t
        yield d.reshape(rows * h, cols * h)
        del d


def _assemble(mats: list[np.ndarray]) -> KoszulComplex:
    """The complex of ``_stages``, every boundary held."""
    return KoszulComplex(len(mats), mats[0].shape[0], tuple(_stages(mats)))


def koszul_boundaries(mats) -> KoszulComplex:
    """Assemble D_k = sum_i T_i (x) Theta_i (subset-major Kronecker layout)
    after the commutator guard, in the field of the tuple."""
    mats = _as_tuple(mats)
    _check_size(len(mats), mats[0].shape[0])
    check_commuting(mats)
    return _assemble(mats)


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


def _singular_values(d: np.ndarray) -> np.ndarray:
    return np.linalg.svd(d, compute_uv=False) if min(d.shape) else np.zeros(0)


def _rank_count(h: int, svals) -> RegularityReport:
    """Exactness at every stage of a complex on C^h from the singular values
    of its boundaries, one array per stage in order.

    Singular values below ``RANK_TOL`` times the largest singular value of
    the whole complex count as zero.  Stage k is exact when
    nullity(D_k) = rank(D_{k-1}); the top stage needs D_{n-1} surjective.
    """
    svals = list(svals)
    n = len(svals)
    scale = max((float(sv[0]) for sv in svals if sv.size), default=0.0)
    if not np.isfinite(scale):
        raise ValidationError("boundary norm beyond the float range")
    cutoff = RANK_TOL * max(scale, 1e-300)
    ranks = [int(np.sum(sv > cutoff)) for sv in svals]
    dims = [h * math.comb(n, k) for k in range(n + 1)]
    defects = []
    for k in range(n + 1):
        incoming = ranks[k - 1] if k >= 1 else 0
        kernel = dims[k] - ranks[k] if k < n else dims[k]
        defects.append(kernel - incoming)
    kept = [float(sv[r - 1]) for sv, r in zip(svals, ranks) if r > 0]
    return RegularityReport(
        regular=all(d == 0 for d in defects),
        ranks=tuple(ranks),
        defects=tuple(defects),
        min_stage_gap=min(kept, default=0.0),
    )


def regularity_report(cx: KoszulComplex) -> RegularityReport:
    """Exactness at every stage by rank counting (see ``_rank_count``)."""
    return _rank_count(cx.h, map(_singular_values, cx.boundaries))


def _point_report(shifted: list[np.ndarray]) -> RegularityReport:
    """``regularity_report`` of the complex of ``shifted``, which holds one
    boundary at a time: ``map`` drops each stage once its singular values
    are taken, before ``_stages`` builds the next."""
    return _rank_count(shifted[0].shape[0], map(_singular_values, _stages(shifted)))


def _sign_symmetries(mats: list[np.ndarray]) -> np.ndarray:
    """The tuple's sign symmetries epsilon (see the module docstring) as the
    rows of a (|G|, n) array of +-1, the identity first.

    Gamma = diag(gamma) fits when gamma_a gamma_b = epsilon_k at every
    nonzero T_k[a, b].  Over GF(2), a spanning forest of the union support
    graph writes each gamma_a as its root's times the product of epsilon
    over a parity mask of coordinates; every entry then asks that epsilon
    have even parity on parity(a) ^ parity(b) ^ bit(k), which is empty on
    the forest's own edges.  A diagonal entry of T_k asks it of bit(k) alone,
    which forces epsilon_k = 1.
    """
    n, h = len(mats), mats[0].shape[0]
    support = _support(mats)
    bits = 1 << np.arange(n)
    pairs = support | support.transpose(0, 2, 1)
    linked = pairs.any(axis=0)
    parity = np.full(h, -1, dtype=np.int64)
    for root in range(h):
        if parity[root] >= 0:
            continue
        parity[root] = 0
        todo = [root]
        while todo:
            a = todo.pop()
            new = np.flatnonzero(linked[a] & (parity < 0))
            # through the first T_k that links a to each new index
            parity[new] = parity[a] ^ bits[pairs[:, a, new].argmax(axis=0)]
            todo.extend(new.tolist())
    k, a, b = np.nonzero(support)
    masks = set((parity[a] ^ parity[b] ^ bits[k]).tolist())
    # every epsilon as an n-bit integer, kept while each mask has even parity
    group = np.arange(1 << n)
    odd = np.zeros(group.size, dtype=bool)
    for i in range(n):
        odd ^= ((group >> i) & 1).astype(bool)
    for mask in masks:
        group = group[~odd[group & mask]]
    return 1.0 - 2.0 * ((group[:, None] >> np.arange(n)) & 1)


def taylor_point_tests(mats, points) -> list[RegularityReport]:
    """Regularity of the shifted tuple (T_1 - w_1, ..., T_n - w_n) at each
    point w, one report per point.

    Singular exactly at the points of the joint spectrum.  The pairwise
    commutators are computed once: a scalar shift does not change them, so
    each point's guard is that norm over the point's own scale
    max(max_i ||T_i - w_i||_2, 1), the value ``check_commuting`` gives on
    the shifted tuple; as the scale is at least 1, it is taken only when the
    norm alone exceeds ``COMMUTE_TOL``.  Each shifted tuple is real exactly
    when the tuple and the point both are.

    Every point is shifted and guarded in input order, but the report is
    computed once per orbit under the tuple's sign symmetries, at the first
    point listed of the orbit.  An orbit is keyed by the set of its sign
    images, -0.0 read as 0.0.
    """
    mats = _as_tuple(mats)
    n, h = len(mats), mats[0].shape[0]
    _check_size(n, h)
    points = [_in_field([w])[0].reshape(-1) for w in points]
    for w in points:
        if w.size != n:
            raise ValidationError(f"point has {w.size} entries, tuple has {n}")
    comm = _commutator_norm(mats)
    signs = _sign_symmetries(mats)
    eye = np.eye(h)
    orbits: dict[frozenset, RegularityReport] = {}
    reports = []
    for w in points:
        with np.errstate(over="ignore"):
            shifted = [t - wi * eye for t, wi in zip(mats, w)]
        if not all(np.isfinite(t).all() for t in shifted):
            raise ValidationError("shifted tuple has entries beyond the float range")
        if comm > COMMUTE_TOL:
            _guard_commuting(comm / _scale(shifted))
        orbit = frozenset(image.tobytes() for image in signs * w + 0.0)
        if orbit not in orbits:
            orbits[orbit] = _point_report(shifted)
        reports.append(orbits[orbit])
    return reports


def taylor_point_test(mats, w) -> RegularityReport:
    """``taylor_point_tests`` at the single point w."""
    return taylor_point_tests(mats, [w])[0]


# ---------------------------------------------------------------------
# joint eigenvalues
# ---------------------------------------------------------------------

def _peel(support: np.ndarray) -> tuple[np.ndarray, slice]:
    """A basis order that makes every T_k block upper triangular, and the
    slice of it that holds the irreducible core.

    Kahn's algorithm on the union support graph without its diagonal, one
    level at a time: indices whose rows have no off-diagonal entry among
    the indices left go last, indices whose columns have none go first (an
    index with neither goes last), and what no level reaches is the core.
    Outside the core's diagonal block every T_k is then upper triangular in
    the new order, with its own diagonal entries on the diagonal.
    """
    h = support.shape[1]
    off = support.any(axis=0)
    np.fill_diagonal(off, False)
    row_count, col_count = off.sum(axis=1), off.sum(axis=0)
    alive = np.ones(h, dtype=bool)
    first, last = [], []
    while True:
        rows = np.flatnonzero(alive & (row_count == 0))
        cols = np.flatnonzero(alive & (col_count == 0) & (row_count > 0))
        if rows.size + cols.size == 0:
            break
        peeled = np.concatenate([rows, cols])
        alive[peeled] = False
        row_count -= off[:, peeled].sum(axis=1)
        col_count -= off[peeled].sum(axis=0)
        last.append(rows)
        first.append(cols)
    core = np.flatnonzero(alive)
    start = sum(c.size for c in first)
    return np.concatenate(first + [core] + last[::-1]), slice(start, start + core.size)


def _schur_basis(a: np.ndarray) -> np.ndarray:
    """A unitary Q with Q* a Q upper triangular: a complex Schur basis of a.

    While a's eigenvector matrix V has full numerical rank (no singular
    value below ``RANK_TOL`` times the largest), Q is the unitary factor of
    V = Q R: a V = V L gives Q* a Q = R L R^-1, which is upper triangular
    up to about eps * cond(V) * ||a|| < 2.3e-8 ||a||, inside the 1e-7
    triangularization guard.  A numerically defective a (a nilpotent part,
    say) has nearly dependent eigenvectors, so that bound says nothing, and
    the draws would agree on eigenvalues that are off by eps^(1/k) for a
    k x k Jordan block; it gets LAPACK's backward-stable Schur form from
    scipy instead, whose draws scatter by that much and fail the consensus.
    """
    vecs = np.linalg.eig(a)[1]
    sv = np.linalg.svd(vecs, compute_uv=False)
    if sv[-1] > RANK_TOL * sv[0]:
        return np.linalg.qr(vecs)[0]
    import scipy.linalg  # only a numerically defective combination needs it

    return scipy.linalg.schur(a, output="complex")[1]


def _simultaneous_schur(
    mats: list[np.ndarray], rng: Stream, scale: float
) -> tuple[np.ndarray, list[np.ndarray]]:
    """A unitary Z and the rotated tuple Z* T_i Z, upper triangular up to
    1e-7 times ``scale``, the tuple's ``_scale``.

    Z is the permutation of ``_peel`` with the ``_schur_basis`` of one
    random combination sum c_i T_i, restricted to the core, in the core's
    rows and columns.  A tuple with no core gets a permutation Z and a tuple
    that is exactly upper triangular after it, and a tuple with nothing to
    peel gets a Schur basis of the whole combination.  Up to eight
    combinations are drawn from ``rng`` before :class:`ConsensusFailure`,
    whatever the core.
    """
    n, h = len(mats), mats[0].shape[0]
    order, core = _peel(_support(mats))
    permuted = [m[np.ix_(order, order)] for m in mats]
    for _ in range(8):
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = np.zeros((h, h), dtype=complex)
        z[order, np.arange(h)] = 1.0
        rotated = [p.astype(complex) for p in permuted]
        if core.start < core.stop:
            vecs = _schur_basis(sum(c * p[core, core] for c, p in zip(coeffs, permuted)))
            z[np.ix_(order[core], np.arange(h)[core])] = vecs
            for r in rotated:
                r[core] = vecs.conj().T @ r[core]
                r[:, core] = r[:, core] @ vecs
        if _triangular(rotated, 1e-7 * scale):
            return z, rotated
    raise ConsensusFailure(
        "no random combination produced a simultaneous triangularization"
    )


def _triangular(rotated: list[np.ndarray], bound: float) -> bool:
    """Whether the strict lower part of every matrix has 2-norm at most
    ``bound``.  The Frobenius norm bounds the 2-norm, so a part's SVD is
    taken only when its Frobenius norm exceeds ``bound``: an exactly
    triangular tuple takes none."""
    for r in rotated:
        lower = np.tril(r, -1)
        if np.linalg.norm(lower) > bound and np.linalg.norm(lower, 2) > bound:
            return False
    return True


def _diagonals(rotated: list[np.ndarray]) -> np.ndarray:
    """Rows of joint eigenvalues on the diagonals of a triangularized tuple."""
    return np.column_stack([np.diag(r) for r in rotated])


def _match_rows(a: np.ndarray, b: np.ndarray) -> float:
    """Greedy nearest-neighbour matching of two equal-size point lists, in
    the row order of ``a`` with the smallest index of ``b`` winning ties;
    returns the largest matched distance."""
    dists = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    free = np.ones(b.shape[0], dtype=bool)
    worst = 0.0
    for row in dists:
        remaining = np.flatnonzero(free)
        pick = remaining[np.argmin(row[remaining])]
        worst = max(worst, float(row[pick]))
        free[pick] = False
    return worst


def joint_eigenvalues(mats, seed: int = 0) -> np.ndarray:
    """Joint eigenvalue vectors of a commuting tuple, shape (h, n).

    Two independent randomized triangularizations must agree after greedy
    matching within ``CONSENSUS_TOL``; otherwise :class:`ConsensusFailure`.
    """
    return _joint_eigenvalues_and_draw(mats, seed)[0]


def _joint_eigenvalues_and_draw(
    mats, seed: int = 0
) -> tuple[np.ndarray, tuple[np.ndarray, list[np.ndarray]]]:
    """``joint_eigenvalues`` together with its first draw (Z, Z* T_i Z) of
    ``_simultaneous_schur``, whose diagonals the eigenvalues are."""
    mats = _as_tuple(mats)
    scale = _scale(mats)
    _guard_commuting(_commutator_norm(mats) / scale)
    rng = Stream(seed)
    draw = _simultaneous_schur(mats, rng, scale)
    first = _diagonals(draw[1])
    second = _diagonals(_simultaneous_schur(mats, rng, scale)[1])
    gap = _match_rows(first, second)
    if gap > CONSENSUS_TOL:
        raise ConsensusFailure(
            f"randomized joint-eigenvalue runs disagree by {gap:.2e}"
        )
    order = np.lexsort(
        tuple(first[:, i].imag for i in reversed(range(first.shape[1])))
        + tuple(first[:, i].real for i in reversed(range(first.shape[1])))
    )
    return first[order], draw


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=complex).reshape(a.shape[0], -1)
    b = np.asarray(b, dtype=complex).reshape(b.shape[0], -1)
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def polynomial_map_tuple(mats, polys: list[Polynomial]) -> list[np.ndarray]:
    """Apply a polynomial map componentwise to a commuting tuple."""
    mats = _as_tuple(mats)
    return [p.eval_tuple(mats) for p in polys]


def spectral_mapping_check(mats, polys: list[Polynomial]) -> float:
    """Hausdorff distance between f(joint eigenvalues) and the joint
    eigenvalues of f(T); zero in exact arithmetic.  The two eigenvalue
    computations use seeds 0 and 1."""
    eigs = joint_eigenvalues(mats)
    mapped = np.column_stack([p.eval_batch(eigs) for p in polys])
    image_eigs = joint_eigenvalues(polynomial_map_tuple(mats, polys), seed=1)
    return hausdorff_distance(mapped, image_eigs)
