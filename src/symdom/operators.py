"""Truncated multiplication operators, polynomial submodules and their
quotient compressions.

Everything acts on the degree-<= D orthonormal basis of a continuous-weight
kernel space.  Submodules are spanned by generator multiples truncated back
into the window, which keeps them exactly invariant under the truncated
coordinate multipliers, so the compressed tuple commutes in exact
arithmetic for every generator set.

Multiplication by z^gamma maps degree d to degree d + |gamma|, so operators
are assembled and compressed from these degree-shift blocks; no dense
dim x dim product is formed on the quotient path.  ``quotient_model`` picks
one of two paths from its generators:

- graded path, when every generator is homogeneous: the submodule is
  graded, the quotient splits as the sum over d of P_d orth M_d, and each
  degree gets its own SVD.  Every quotient basis vector is supported on
  exactly one degree, its label.
- filtration path, when some generator is inhomogeneous (z1^2 + z2, say):
  one SVD of all generator columns and a complement adapted to the degree
  filtration.  Each quotient basis vector is supported on degrees <= its
  label.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import koszul
from .domains import DomainSpec, spectral_norm
from .errors import (
    DenominatorVanishes,
    NotPermissive,
    NumericallySingular,
    ValidationError,
)
from .kernels import (
    TruncatedBasis,
    _shift_positions,
    cached_truncated_basis,
    multi_indices,
)
from .polynomials import MultiIndex, Polynomial, RationalSymbol
from .sampling import closed_domain_samples

SPAN_RANK_TOL = 1e-10
INVARIANCE_TOL = 1e-12
DENOMINATOR_MARGIN = 1e-3
DENOMINATOR_SAMPLES = 10_000
CONDITION_CUTOFF = 1e12


def _shift_block(basis: TruncatedBasis, gamma: MultiIndex, d: int) -> np.ndarray:
    """Block of multiplication by z^gamma from degree d to degree
    d + |gamma|, in the orthonormal basis."""
    g = sum(gamma)
    if g == 0:
        # z^0 = 1: exactly the identity, without a triangular solve's rounding
        return np.eye(basis.degree_sizes[d])
    rmap = _shift_positions(basis.dom.dim, d, gamma)
    scattered = np.zeros((basis.degree_sizes[d + g], basis.degree_sizes[d]))
    scattered[rmap, :] = basis.change[d]
    return scipy.linalg.solve_triangular(basis.change[d + g], scattered, lower=False)


def _coordinate_blocks(basis: TruncatedBasis, i: int) -> list[np.ndarray]:
    """Degree-shift blocks d -> d + 1 of the truncated coordinate
    multiplier z_i, for d = 0 .. D - 1."""
    gamma = tuple(int(k == i) for k in range(basis.dom.dim))
    return [_shift_block(basis, gamma, d) for d in range(basis.max_degree)]


def _shift_norm(blocks) -> float:
    """2-norm of a degree-shift operator from its blocks.

    T maps each degree into a single other degree, so T*T is block-diagonal
    and ||T||_2 is exactly the largest block norm.
    """
    return max((np.linalg.norm(b, 2) for b in blocks), default=0.0)


def _check_symbol(basis: TruncatedBasis, f: Polynomial) -> None:
    if f.nvars != basis.dom.dim:
        raise ValidationError(
            f"symbol in {f.nvars} variables on {basis.dom.label()}"
        )


def mult_op(basis: TruncatedBasis, f: Polynomial) -> np.ndarray:
    """Matrix of P_D M_f P_D in the orthonormal graded basis."""
    _check_symbol(basis, f)
    D = basis.max_degree
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for gamma, coeff in f.terms.items():
        g = sum(gamma)
        for d in range(0, D - g + 1):
            out[basis.block_slice(d + g), basis.block_slice(d)] += (
                coeff * _shift_block(basis, gamma, d)
            )
    return out


def coordinate_mult_ops(basis: TruncatedBasis) -> list[np.ndarray]:
    return [
        mult_op(basis, Polynomial.coordinate(i, basis.dom.dim))
        for i in range(basis.dom.dim)
    ]


def _degree_rows(basis: TruncatedBasis, mat: np.ndarray):
    """Per degree d: the columns of ``mat`` that are nonzero on degree-d
    rows, and ``mat`` restricted to those rows and columns."""
    out = []
    for d in range(basis.max_degree + 1):
        rows = mat[basis.block_slice(d)]
        keep = np.flatnonzero(rows.any(axis=0))
        out.append((keep, rows[:, keep]))
    return out


def _sandwich(
    basis: TruncatedBasis, f: Polynomial, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """left^H P_D M_f P_D right, assembled from degree-shift blocks.

    No dim x dim product is formed; columns supported on few degrees (the
    graded quotient basis, the identity) make the blocks small.
    """
    _check_symbol(basis, f)
    lrows = _degree_rows(basis, left)
    rrows = lrows if right is left else _degree_rows(basis, right)
    out = np.zeros((left.shape[1], right.shape[1]), dtype=complex)
    for gamma, coeff in f.terms.items():
        g = sum(gamma)
        for d in range(0, basis.max_degree - g + 1):
            lcols, lblock = lrows[d + g]
            rcols, rblock = rrows[d]
            if lcols.size and rcols.size:
                out[np.ix_(lcols, rcols)] += coeff * (
                    lblock.conj().T @ _shift_block(basis, gamma, d) @ rblock
                )
    return out


# ---------------------------------------------------------------------
# submodules and quotients
# ---------------------------------------------------------------------

def _truncate(poly: Polynomial, max_degree: int) -> Polynomial:
    kept = {a: c for a, c in poly.terms.items() if sum(a) <= max_degree}
    return Polynomial(poly.nvars, kept)


def _check_generators(basis: TruncatedBasis, generators) -> None:
    if not generators or any(g.is_zero() for g in generators):
        raise ValidationError("need at least one nonzero generator")
    if any(g.nvars != basis.dom.dim for g in generators):
        raise ValidationError("generator variable count mismatch")


def _generator_columns(basis: TruncatedBasis, generators) -> np.ndarray:
    """Orthonormal coordinates of the truncated products f_j z^alpha."""
    generators = list(generators)
    _check_generators(basis, generators)
    cols = []
    for f in generators:
        min_deg = min(sum(a) for a in f.terms)
        if min_deg > basis.max_degree:
            continue
        for d in range(0, basis.max_degree - min_deg + 1):
            for alpha in multi_indices(basis.dom.dim, d):
                product = _truncate(f * Polynomial.monomial(alpha), basis.max_degree)
                if product.is_zero():
                    continue
                cols.append(basis.to_coords(product))
    if not cols:
        raise ValidationError("generators produce an empty span at this degree")
    return np.column_stack(cols)


def _graded_columns(basis: TruncatedBasis, generators) -> list[np.ndarray]:
    """Per degree d, the degree-d orthonormal coordinates of the products
    f z^alpha with |alpha| = d - deg f, for homogeneous generators f."""
    _check_generators(basis, generators)
    n = basis.dom.dim
    out = []
    for d, size in enumerate(basis.degree_sizes):
        blocks = []
        for f in generators:
            k = f.degree()
            if k > d:
                continue
            ncols = len(multi_indices(n, d - k))
            coeffs = np.zeros((size, ncols), dtype=complex)
            for beta, c in f.terms.items():
                coeffs[_shift_positions(n, d - k, beta), np.arange(ncols)] += c
            blocks.append(
                scipy.linalg.solve_triangular(basis.change[d], coeffs, lower=False)
            )
        out.append(np.hstack(blocks) if blocks else np.zeros((size, 0), dtype=complex))
    if not any(c.shape[1] for c in out):
        raise ValidationError("generators produce an empty span at this degree")
    return out


@dataclass(frozen=True)
class SubmoduleSpan:
    """Orthonormal basis of the truncated submodule M^(D)."""

    basis: TruncatedBasis
    generators: tuple[Polynomial, ...]
    onb: np.ndarray  # dim x rank, orthonormal columns
    rank: int

    @property
    def codim(self) -> int:
        return self.basis.dim - self.rank


def _span_of_columns(basis: TruncatedBasis, generators, cols) -> SubmoduleSpan:
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    rank = int(np.sum(s > SPAN_RANK_TOL * s[0])) if s.size else 0
    return SubmoduleSpan(basis, tuple(generators), u[:, :rank], rank)


def submodule_span(basis: TruncatedBasis, generators) -> SubmoduleSpan:
    """Span of truncated generator multiples, orthonormalized by SVD.

    Singular values below ``SPAN_RANK_TOL`` times the largest one count as
    zero when deciding the rank.
    """
    generators = tuple(generators)
    return _span_of_columns(basis, generators, _generator_columns(basis, generators))


@dataclass(frozen=True)
class QuotientModel:
    """Compression of the coordinate multipliers to the quotient M^(D) orth.

    ``quotient_onb`` columns are orthonormal and sorted by ``degree_labels``;
    the labels drive windowed Schatten norms.  When every generator is
    homogeneous (the graded path, and the whole space) each column is
    supported on exactly the degree of its label.  Otherwise (the
    filtration path) each column is supported on degrees <= its label.
    """

    basis: TruncatedBasis
    generators: tuple[Polynomial, ...]
    module_onb: np.ndarray
    quotient_onb: np.ndarray
    degree_labels: np.ndarray
    tuple_mats: tuple[np.ndarray, ...]

    @property
    def dim_quotient(self) -> int:
        return self.quotient_onb.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projector of the truncated space onto the quotient."""
        return self.quotient_onb @ self.quotient_onb.conj().T


def _filtration_complement(
    basis: TruncatedBasis, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the orthocomplement of span(cols), adapted to the
    degree filtration: each vector enters at a definite degree."""
    chosen: list[np.ndarray] = []
    labels: list[int] = []
    for k in range(basis.max_degree + 1):
        rows = basis.offset(k) + basis.degree_sizes[k]
        sub = cols[:rows, :]
        null = scipy.linalg.null_space(sub.conj().T, rcond=SPAN_RANK_TOL)
        expected_new = null.shape[1] - len(chosen)
        if expected_new <= 0:
            continue
        if chosen:
            prev = np.column_stack([v[:rows] for v in chosen])
            null = null - prev @ (prev.conj().T @ null)
        u, s, _ = np.linalg.svd(null, full_matrices=False)
        fresh = u[:, :expected_new]
        if expected_new > 0 and (s.size < expected_new or s[expected_new - 1] < 0.5):
            raise NumericallySingular(
                "filtration-adapted complement lost rank; span is ill conditioned"
            )
        for j in range(expected_new):
            vec = np.zeros(basis.dim, dtype=complex)
            vec[:rows] = fresh[:, j]
            chosen.append(vec)
            labels.append(k)
    if not chosen:
        return np.zeros((basis.dim, 0), dtype=complex), np.zeros(0, dtype=int)
    return np.column_stack(chosen), np.asarray(labels, dtype=int)


def _check_invariance(defect: float, scale: float) -> None:
    if defect > INVARIANCE_TOL * max(1.0, scale):
        raise NumericallySingular(
            f"truncated submodule not invariant, defect {defect:.2e}"
        )


def _graded_model(basis: TruncatedBasis, generators) -> QuotientModel:
    """Quotient by homogeneous generators: M^(D) and its complement split
    as sums over d of M_d and P_d orth M_d, so every step runs per degree.

    The generator columns are block-diagonal by degree, so one SVD per
    degree, with the rank counted against the largest singular value over
    all degrees, applies the same rank rule as one SVD of all columns.
    """
    svds = []
    for cols in _graded_columns(basis, generators):
        if cols.shape[1]:
            u, s, _ = np.linalg.svd(cols, full_matrices=True)
        else:
            u, s = np.eye(cols.shape[0], dtype=complex), np.zeros(0)
        svds.append((u, s))
    cutoff = SPAN_RANK_TOL * max(s[0] for _, s in svds if s.size)
    module_blocks, quotient_blocks = [], []
    for u, s in svds:
        rank = int(np.sum(s > cutoff))
        module_blocks.append(u[:, :rank])
        quotient_blocks.append(u[:, rank:])
    sizes = [q.shape[1] for q in quotient_blocks]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    labels = np.repeat(np.arange(len(sizes)), sizes)
    nq = int(starts[-1])

    # Each coordinate multiplier shifts degree d to d + 1, so its compression,
    # its norm and the invariance defect Q^H T M are assembled blockwise.
    compressed, scale, defect = [], 0.0, 0.0
    for i in range(basis.dom.dim):
        blocks = _coordinate_blocks(basis, i)
        scale = max(scale, _shift_norm(blocks))
        mat = np.zeros((nq, nq), dtype=complex)
        for d, t in enumerate(blocks):
            left = quotient_blocks[d + 1].conj().T @ t
            mat[starts[d + 1]:starts[d + 2], starts[d]:starts[d + 1]] = (
                left @ quotient_blocks[d]
            )
            if left.size and module_blocks[d].size:
                defect = max(defect, np.linalg.norm(left @ module_blocks[d], 2))
        compressed.append(mat)
    _check_invariance(defect, scale)
    if nq:
        koszul.check_commuting(compressed)
    return QuotientModel(
        basis,
        tuple(generators),
        scipy.linalg.block_diag(*module_blocks),
        scipy.linalg.block_diag(*quotient_blocks),
        labels,
        tuple(compressed),
    )


def _filtration_model(basis: TruncatedBasis, generators) -> QuotientModel:
    """Quotient by arbitrary generators through the filtration-adapted
    complement; the only path for inhomogeneous generators."""
    cols = _generator_columns(basis, generators)
    span = _span_of_columns(basis, generators, cols)
    quotient_onb, labels = _filtration_complement(basis, cols)
    coords = [Polynomial.coordinate(i, basis.dom.dim) for i in range(basis.dom.dim)]
    compressed = tuple(
        _sandwich(basis, z, quotient_onb, quotient_onb) for z in coords
    )
    if quotient_onb.shape[1] and span.rank:
        defect = max(
            np.linalg.norm(_sandwich(basis, z, quotient_onb, span.onb), 2)
            for z in coords
        )
        scale = max(
            _shift_norm(_coordinate_blocks(basis, i)) for i in range(basis.dom.dim)
        )
        _check_invariance(defect, scale)
    if quotient_onb.shape[1]:
        koszul.check_commuting(compressed)
    return QuotientModel(
        basis, tuple(generators), span.onb, quotient_onb, labels, compressed
    )


def quotient_model(basis: TruncatedBasis, generators) -> QuotientModel:
    """Quotient module model: projector onto M^(D) orth and compressed tuple.

    Homogeneous generators take the graded path (per-degree complements,
    see ``_graded_model``); any inhomogeneous generator takes the
    filtration path.  Both assert the two structural identities that hold
    in exact arithmetic: M^(D) is invariant under the truncated multipliers
    (defect <= 1e-12) and the compressed coordinates commute (defect
    <= 1e-10).
    """
    generators = tuple(generators)
    if generators and all(len(g.homogeneous_parts()) == 1 for g in generators):
        return _graded_model(basis, generators)
    return _filtration_model(basis, generators)


def whole_space_model(basis: TruncatedBasis) -> QuotientModel:
    """Trivial quotient by the zero submodule: the full truncated module."""
    eye = np.eye(basis.dim, dtype=complex)
    return QuotientModel(
        basis,
        (),
        np.zeros((basis.dim, 0), dtype=complex),
        eye,
        basis.degree_labels(),
        tuple(coordinate_mult_ops(basis)),
    )


def compress(model: QuotientModel, f: Polynomial) -> np.ndarray:
    """S_f = P M_f P restricted to the quotient."""
    return _sandwich(model.basis, f, model.quotient_onb, model.quotient_onb)


def compress_rational(
    model: QuotientModel,
    p: Polynomial,
    q: Polynomial,
    *,
    check_denominator: bool = True,
    seed: int = 20_401,
) -> np.ndarray:
    """S_{p/q} = S_p (S_q)^{-1}.

    The denominator must stay away from zero on the closed domain (sampled
    lower bound >= ``DENOMINATOR_MARGIN``) and S_q must be invertible with
    condition number below ``CONDITION_CUTOFF``.
    """
    if check_denominator:
        rng = np.random.default_rng(seed)
        pts = closed_domain_samples(model.basis.dom, DENOMINATOR_SAMPLES, rng)
        values = np.abs([q.eval_point(pt) for pt in pts])
        if values.size and values.min() < DENOMINATOR_MARGIN:
            raise DenominatorVanishes(
                f"denominator modulus drops to {values.min():.2e} on the closed domain"
            )
    sq = compress(model, q)
    if sq.shape[0] == 0:
        return sq
    sv = np.linalg.svd(sq, compute_uv=False)
    if sv[-1] == 0 or sv[0] / sv[-1] > CONDITION_CUTOFF:
        raise NumericallySingular(
            "compressed denominator condition number exceeds cutoff"
        )
    return compress(model, p) @ np.linalg.inv(sq)


def compress_symbol(model: QuotientModel, symbol) -> np.ndarray:
    if isinstance(symbol, RationalSymbol):
        return compress_rational(model, symbol.p, symbol.q)
    return compress(model, symbol)


# ---------------------------------------------------------------------
# commutators, Schatten norms, permissive transforms
# ---------------------------------------------------------------------

def cross_commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B*] = A B* - B* A."""
    bstar = np.asarray(b, dtype=complex).conj().T
    a = np.asarray(a, dtype=complex)
    return a @ bstar - bstar @ a


def schatten_norm(x: np.ndarray, p: float) -> float:
    """Schatten p-norm via singular values; p may be inf, must be >= 1."""
    if p < 1:
        raise ValidationError(f"Schatten norm needs p >= 1, got {p}")
    x = np.asarray(x, dtype=complex)
    if min(x.shape) == 0:
        return 0.0
    sv = np.linalg.svd(x, compute_uv=False)
    if np.isinf(p):
        return float(sv[0])
    return float(np.sum(sv**p) ** (1.0 / p))


def permissive_transform(
    mats,
    c: float,
    shift,
    dom: DomainSpec,
    *,
    boundary_tol: float = 1e-9,
    seed: int = 0,
) -> list[np.ndarray]:
    """Affine reparametrization T -> c T + shift of a commuting tuple.

    Permissive means the transformed joint eigenvalues stay in the closed
    domain; otherwise :class:`NotPermissive` is raised.
    """
    if c <= 0:
        raise ValidationError("scale c must be positive")
    mats = [np.asarray(m, dtype=complex) for m in mats]
    shift = np.asarray(shift, dtype=complex).reshape(-1)
    if shift.size != len(mats):
        raise ValidationError("shift length must match the tuple")
    eye = np.eye(mats[0].shape[0], dtype=complex)
    out = [c * m + s * eye for m, s in zip(mats, shift)]
    for mu in koszul.joint_eigenvalues(out, seed=seed):
        if spectral_norm(dom, mu) > 1.0 + boundary_tol:
            raise NotPermissive(
                f"transformed joint eigenvalue leaves the closed domain "
                f"(spectral norm {spectral_norm(dom, mu):.6f})"
            )
    return out


# ---------------------------------------------------------------------
# essential-normality profiles
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileRow:
    domain: str
    lam: float
    max_degree: int
    family: str
    symbol_i: str
    symbol_j: str
    p: float
    schatten_full: float
    schatten_windowed: float
    dim_quotient: int


def _symbol_degree(symbol) -> int:
    return symbol.degree()


def windowed_submatrix(
    mat: np.ndarray, labels: np.ndarray, max_label: int
) -> np.ndarray:
    keep = np.flatnonzero(labels <= max_label)
    return mat[np.ix_(keep, keep)]


def essential_normality_profile(
    dom: DomainSpec,
    lam: float,
    generators,
    symbols,
    p_values,
    degree_list,
    *,
    family: str = "symbols",
    window: int | None = None,
    cache_dir: str | None = None,
) -> list[ProfileRow]:
    """Schatten norms of cross-commutators [S_i, S_j*] over a ladder of
    truncation degrees.

    For each D the windowed value restricts the commutator to quotient basis
    vectors of degree <= D - w, with w defaulting to one more than the top
    symbol degree; that discards rows and columns polluted by the truncation
    edge.
    """
    symbols = list(symbols)
    if not symbols:
        raise ValidationError("need at least one symbol")
    w = window if window is not None else max(_symbol_degree(s) for s in symbols) + 1
    rows: list[ProfileRow] = []
    for D in degree_list:
        basis = cached_truncated_basis(dom, lam, D, cache_dir)
        model = (
            quotient_model(basis, generators)
            if generators
            else whole_space_model(basis)
        )
        compressed = [compress_symbol(model, s) for s in symbols]
        labels = model.degree_labels
        for i, j in itertools.combinations_with_replacement(range(len(symbols)), 2):
            comm = cross_commutator(compressed[i], compressed[j])
            windowed = windowed_submatrix(comm, labels, D - w)
            for p in p_values:
                rows.append(
                    ProfileRow(
                        dom.label(),
                        lam,
                        D,
                        family,
                        symbols[i].label(),
                        symbols[j].label(),
                        float(p),
                        schatten_norm(comm, p),
                        schatten_norm(windowed, p),
                        model.dim_quotient,
                    )
                )
    return rows
