"""Reproducing-kernel expansion of Delta(z, w)^{-lambda} by total degree.

The generic norm Delta is a bi-polynomial with equal degree in z and
conj(w), so the kernel expands into degree blocks

    Delta(z, w)^{-lam} = sum_d  m_d(z)^T C_d conj(m_d(w)),

with m_d the graded-lex monomial vector of degree d.  Blocks are produced
by the power recurrence mu P' Q = Q' P (Euler derivative on the z-grading),
which needs only the finitely many blocks of Delta itself.  Delta is
invariant under the torus z -> u z v (u, v diagonal unitaries), so C_d is
block-diagonal by torus weight and is stored as a sparse CSR array; the
recurrence runs on its nonzeros only.  For continuous Wallach weights C_d
is positive definite, and the orthonormal graded basis used by the operator
layer is its reverse Cholesky factor U (upper triangular, U U^T = C_d),
taken once per connected component of the sparsity pattern.  The Gram
matrix of monomials, C_d^{-1}, is kept as a diagnostic.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import tempfile
import zipfile
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .domains import DomainSpec, flatten_point, generic_poly, generic_poly_terms
from .errors import (
    BranchCutError,
    NotAModuleWeight,
    NumericallySingular,
    ValidationError,
)
from .polynomials import MultiIndex, Polynomial
from .wallach import classify_weight, rising_factorial

CACHE_FORMAT_VERSION = 1
CACHE_ENV_VAR = "SYMDOM_CACHE_DIR"


# ---------------------------------------------------------------------
# graded-lex monomial bookkeeping
# ---------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def multi_indices(n: int, d: int) -> tuple[MultiIndex, ...]:
    """Exponent tuples of total degree d in n variables, lex-descending.

    The ordering is the within-degree part of graded lex: (d,0,...) first,
    (0,...,0,d) last.
    """
    if n < 1 or d < 0:
        raise ValidationError("need n >= 1 and d >= 0")
    if n == 1:
        return ((d,),)
    out: list[MultiIndex] = []
    for first in range(d, -1, -1):
        out.extend((first,) + rest for rest in multi_indices(n - 1, d - first))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _position(n: int, d: int) -> dict[MultiIndex, int]:
    return {alpha: i for i, alpha in enumerate(multi_indices(n, d))}


@functools.lru_cache(maxsize=None)
def _shift_positions(n: int, d: int, gamma: MultiIndex) -> np.ndarray:
    """Positions of alpha + gamma inside degree d + |gamma|, for alpha of
    degree d."""
    target = _position(n, d + sum(gamma))
    return np.array(
        [target[tuple(a + g for a, g in zip(alpha, gamma))] for alpha in multi_indices(n, d)],
        dtype=np.intp,
    )


# ---------------------------------------------------------------------
# series blocks
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesBlock:
    """Degree-d coefficient block C_d of the kernel expansion (real, since
    Delta has real coefficients and the weight is real), as a sparse CSR
    array: only entries whose row and column monomials share a torus
    weight can be nonzero."""

    degree: int
    coeffs: scipy.sparse.csr_array


def _delta_blocks(dom: DomainSpec) -> dict[int, list[tuple[MultiIndex, MultiIndex, float]]]:
    """Sparse per-degree terms of Delta; degree 0 (the constant 1) omitted."""
    by_degree: dict[int, list[tuple[MultiIndex, MultiIndex, float]]] = {}
    for (alpha, beta), coeff in generic_poly_terms(dom).items():
        d = sum(alpha)
        if d != sum(beta):
            raise AssertionError("generic polynomial lost its circular grading")
        if d == 0:
            continue
        by_degree.setdefault(d, []).append((alpha, beta, float(coeff)))
    return by_degree


@functools.lru_cache(maxsize=8)
def _kernel_series_cached(dom: DomainSpec, lam: float, max_degree: int) -> tuple[SeriesBlock, ...]:
    n = dom.dim
    delta = _delta_blocks(dom)
    mu = -lam
    blocks = [scipy.sparse.coo_array(np.ones((1, 1)))]
    for d in range(1, max_degree + 1):
        rows, cols, vals = [], [], []
        for j, terms in delta.items():
            if j > d:
                continue
            prev = blocks[d - j]
            factor = ((mu + 1.0) * j - d) / d
            for alpha, beta, coeff in terms:
                rows.append(_shift_positions(n, d - j, alpha)[prev.row])
                cols.append(_shift_positions(n, d - j, beta)[prev.col])
                vals.append((factor * coeff) * prev.data)
        size = len(multi_indices(n, d))
        acc = scipy.sparse.coo_array(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(size, size),
        )
        acc.sum_duplicates()
        blocks.append(acc)
    out = []
    for d, mat in enumerate(blocks):
        # Hermitian (real symmetric) by circularity
        mat = scipy.sparse.csr_array((mat + mat.T) / 2.0)
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.setflags(write=False)
        out.append(SeriesBlock(d, mat))
    return tuple(out)


def kernel_series(dom: DomainSpec, lam: float, max_degree: int) -> tuple[SeriesBlock, ...]:
    """Blocks C_0 .. C_{max_degree} of Delta^{-lam}; any real weight."""
    if max_degree < 0:
        raise ValidationError("max_degree must be non-negative")
    return _kernel_series_cached(dom, float(lam), int(max_degree))


def series_partial_sum(dom: DomainSpec, lam: float, z, w, max_degree: int) -> complex:
    """Evaluate sum_{d <= max_degree} m_d(z)^T C_d conj(m_d(w))."""
    blocks = kernel_series(dom, lam, max_degree)
    zf = flatten_point(dom, z)
    wf = flatten_point(dom, w)
    total = 0.0 + 0.0j
    for block in blocks:
        mz = _monomial_vector(zf, block.degree)
        mw = _monomial_vector(wf, block.degree)
        total += mz @ (block.coeffs @ np.conj(mw))
    return complex(total)


@functools.lru_cache(maxsize=None)
def _alpha_array(n: int, d: int) -> np.ndarray:
    arr = np.array(multi_indices(n, d), dtype=np.int64).reshape(-1, n)
    arr.setflags(write=False)
    return arr


def _monomial_vector(zf: np.ndarray, d: int) -> np.ndarray:
    return np.prod(zf[None, :] ** _alpha_array(zf.size, d), axis=1)


# ---------------------------------------------------------------------
# Gram blocks and closed forms
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class GramBlock:
    """Gram matrix of degree-d monomials, G_d[alpha, beta] = <z^alpha, z^beta>."""

    degree: int
    gram: np.ndarray


def _require_module_weight(dom: DomainSpec, lam: float) -> None:
    verdict = classify_weight(lam, dom)
    if not verdict.is_module_weight:
        raise NotAModuleWeight(
            f"weight {lam} is {verdict.kind.value} for {dom.label()}; "
            "monomial Gram matrices need a continuous Wallach weight"
        )


def gram_blocks(dom: DomainSpec, lam: float, max_degree: int) -> tuple[GramBlock, ...]:
    """Blockwise inverse of the kernel coefficients, G_d = C_d^{-1}.

    A dense diagnostic (``symdom kernel``, the norm oracles); the basis is
    built from C_d directly.
    """
    _require_module_weight(dom, lam)
    out = []
    for block in kernel_series(dom, lam, max_degree):
        coeffs = block.coeffs.toarray()
        try:
            cho = scipy.linalg.cho_factor(coeffs, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericallySingular(
                f"degree-{block.degree} coefficient block is not positive definite"
            ) from exc
        gram = scipy.linalg.cho_solve(cho, np.eye(coeffs.shape[0]))
        gram = (gram + gram.T) / 2.0
        gram.setflags(write=False)
        out.append(GramBlock(block.degree, gram))
    return tuple(out)


def gram_block(dom: DomainSpec, lam: float, degree: int) -> GramBlock:
    return gram_blocks(dom, lam, degree)[degree]


def closed_form_norm(dom: DomainSpec, lam: float, alpha) -> float:
    """Closed-form squared norm of the monomial z^alpha.

    ball: alpha! / (lam)_|alpha|;  polydisc: prod_i alpha_i! / (lam)_{alpha_i}.
    No closed form is exposed for the matrix ball.
    """
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha) or len(alpha) != dom.dim:
        raise ValidationError(f"bad multi-index {alpha} for {dom.label()}")
    _require_module_weight(dom, lam)
    if dom.kind == "ball":
        num = math.prod(math.factorial(a) for a in alpha)
        return num / rising_factorial(lam, sum(alpha))
    if dom.kind == "polydisc":
        return math.prod(
            math.factorial(a) / rising_factorial(lam, a) for a in alpha
        )
    raise ValidationError("no closed-form monomial norm for the matrix ball")


def kernel_eval(dom: DomainSpec, lam: float, z, w) -> complex:
    """Delta(z, w)^{-lam} through the principal branch.

    Raises :class:`BranchCutError` when Delta vanishes, or (for non-integer
    weights) when Delta lands on the closed negative real axis.
    """
    val = generic_poly(dom, z, w)
    if val == 0:
        raise BranchCutError("Delta(z, w) = 0, no principal power")
    if abs(lam - round(lam)) <= 1e-12:
        return complex(val ** (-round(lam)))
    if val.real <= 0 and abs(val.imag) <= 1e-15 * abs(val):
        raise BranchCutError(
            f"Delta(z, w) = {val:.6g} lies on the negative real axis"
        )
    return complex(np.exp(-lam * np.log(val)))


# ---------------------------------------------------------------------
# orthonormal graded basis
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedBasis:
    """Orthonormal basis of polynomials of degree <= D for weight lam.

    ``change[d]`` is the upper-triangular matrix whose column k gives the
    monomial coefficients (graded-lex order) of the k-th degree-d basis
    element; it is the reverse Cholesky factor of the kernel block,
    ``change[d] @ change[d].T == C_d``.  Triangularity pins the basis down
    uniquely given the monomial order, so serialized bases reload
    bit-identically.
    """

    dom: DomainSpec
    lam: float
    max_degree: int
    change: tuple[np.ndarray, ...]

    @property
    def degree_sizes(self) -> list[int]:
        return [c.shape[0] for c in self.change]

    @property
    def dim(self) -> int:
        return sum(self.degree_sizes)

    def offset(self, d: int) -> int:
        return sum(self.degree_sizes[:d])

    def block_slice(self, d: int) -> slice:
        off = self.offset(d)
        return slice(off, off + self.degree_sizes[d])

    def degree_labels(self) -> np.ndarray:
        return np.concatenate(
            [np.full(size, d, dtype=int) for d, size in enumerate(self.degree_sizes)]
        )

    # -- coordinate transport -----------------------------------------
    def to_coords(self, poly: Polynomial) -> np.ndarray:
        """Coordinates of a polynomial in the orthonormal basis."""
        if poly.nvars != self.dom.dim:
            raise ValidationError(
                f"polynomial in {poly.nvars} variables on {self.dom.label()}"
            )
        if poly.degree() > self.max_degree:
            raise ValidationError(
                f"degree {poly.degree()} exceeds truncation {self.max_degree}"
            )
        out = np.zeros(self.dim, dtype=complex)
        for d, part in poly.homogeneous_parts().items():
            c = np.zeros(self.degree_sizes[d], dtype=complex)
            pos = _position(self.dom.dim, d)
            for alpha, coeff in part.terms.items():
                c[pos[alpha]] = coeff
            out[self.block_slice(d)] = scipy.linalg.solve_triangular(
                self.change[d], c, lower=False
            )
        return out

    def from_coords(self, vec: np.ndarray) -> Polynomial:
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        if vec.size != self.dim:
            raise ValidationError(f"vector of size {vec.size}, expected {self.dim}")
        terms: dict[MultiIndex, complex] = {}
        for d in range(self.max_degree + 1):
            c = self.change[d] @ vec[self.block_slice(d)]
            for alpha, coeff in zip(multi_indices(self.dom.dim, d), c):
                if coeff != 0:
                    terms[alpha] = terms.get(alpha, 0.0) + coeff
        return Polynomial(self.dom.dim, terms)

    def eval_at(self, z) -> np.ndarray:
        """Values of every basis element at the point z."""
        zf = flatten_point(self.dom, z)
        out = np.empty(self.dim, dtype=complex)
        for d in range(self.max_degree + 1):
            out[self.block_slice(d)] = self.change[d].T @ _monomial_vector(zf, d)
        return out

    def kernel_partial_sum(self, z, w) -> complex:
        """sum_k e_k(z) conj(e_k(w)); converges to kernel_eval inside."""
        return complex(self.eval_at(z) @ np.conj(self.eval_at(w)))

    def monomial_norm(self, alpha) -> float:
        """Squared norm of z^alpha read off the inverse change of basis."""
        alpha = tuple(int(a) for a in alpha)
        d = sum(alpha)
        pos = _position(self.dom.dim, d)[alpha]
        # column of U^{-1}: solve U x = e_pos, norm^2 = |x|^2 since basis is ON
        c = np.zeros(self.degree_sizes[d])
        c[pos] = 1.0
        x = scipy.linalg.solve_triangular(self.change[d], c, lower=False)
        return float(x @ x)


def _reverse_cholesky(block: SeriesBlock) -> np.ndarray:
    """Upper-triangular U with positive diagonal and U U^T = C_d.

    One factorization per connected component of the sparsity pattern of
    C_d (its torus-weight blocks): flip(cholesky(flip(C))) on the
    component's indices, taken in increasing order, so the scattered U
    stays upper triangular.
    """
    size = block.coeffs.shape[0]
    _, labels = connected_components(block.coeffs, directed=False)
    order = np.argsort(labels, kind="stable")
    dense = block.coeffs.toarray()
    change = np.zeros((size, size))
    for idx in np.split(order, np.cumsum(np.bincount(labels))[:-1]):
        sub = np.ix_(idx, idx)
        try:
            lower = np.linalg.cholesky(dense[sub][::-1, ::-1])
        except np.linalg.LinAlgError as exc:
            raise NumericallySingular(
                f"degree-{block.degree} coefficient block is not positive definite"
            ) from exc
        change[sub] = lower[::-1, ::-1]
    change.setflags(write=False)
    return change


@functools.lru_cache(maxsize=8)
def _truncated_basis_cached(dom: DomainSpec, lam: float, max_degree: int) -> TruncatedBasis:
    _require_module_weight(dom, lam)
    change = [_reverse_cholesky(block) for block in kernel_series(dom, lam, max_degree)]
    return TruncatedBasis(dom, lam, max_degree, tuple(change))


def truncated_basis(dom: DomainSpec, lam: float, max_degree: int) -> TruncatedBasis:
    return _truncated_basis_cached(dom, float(lam), int(max_degree))


# ---------------------------------------------------------------------
# on-disk cache
# ---------------------------------------------------------------------

def cache_key(dom: DomainSpec, lam: float, max_degree: int) -> str:
    payload = json.dumps(
        {"domain": dom.to_json(), "lambda": float(lam), "D": int(max_degree),
         "ordering": "grlex", "format_version": CACHE_FORMAT_VERSION},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def resolve_cache_dir(cache_dir: str | None) -> str | None:
    if cache_dir is not None:
        return cache_dir
    return os.environ.get(CACHE_ENV_VAR)


def _cache_path(cache_dir: str, dom: DomainSpec, lam: float, max_degree: int) -> str:
    return os.path.join(cache_dir, f"basis-{cache_key(dom, lam, max_degree)}.npz")


def save_basis(basis: TruncatedBasis, cache_dir: str) -> str:
    """Write the basis to the cache atomically: a temporary file in the
    cache directory is renamed into place, so a reader sees the old file,
    the new one or none, never a torn write."""
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, basis.dom, basis.lam, basis.max_degree)
    header = json.dumps(
        {
            "format_version": CACHE_FORMAT_VERSION,
            "domain": basis.dom.to_json(),
            "lambda": basis.lam,
            "D": basis.max_degree,
            "ordering": "grlex",
        },
        sort_keys=True,
    )
    arrays = {f"change_{d}": c for d, c in enumerate(basis.change)}
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".basis-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, header=np.array(header), **arrays)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def _valid_change(mat: np.ndarray, size: int) -> bool:
    return (
        mat.shape == (size, size)
        and bool(np.all(np.isfinite(mat)))
        and np.array_equal(mat, np.triu(mat))
    )


def load_basis(dom: DomainSpec, lam: float, max_degree: int, cache_dir: str) -> TruncatedBasis | None:
    """Cached basis, or None on a miss.

    A file that cannot be read, or whose change matrices are not finite
    upper-triangular matrices of the right shape, counts as a miss; the
    caller rebuilds and rewrites it.
    """
    path = _cache_path(cache_dir, dom, lam, max_degree)
    if not os.path.exists(path):
        return None
    try:
        # np.load drops a handle it opened itself when the zip header is bad
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            header = json.loads(str(data["header"]))
            change = [np.array(data[f"change_{d}"]) for d in range(max_degree + 1)]
    except (OSError, ValueError, KeyError, EOFError, RuntimeError, zipfile.BadZipFile):
        return None
    if header.get("format_version") != CACHE_FORMAT_VERSION:
        return None
    if header.get("domain") != dom.to_json() or header.get("D") != max_degree:
        raise ValidationError(f"cache file {path} does not match its key")
    if header.get("lambda") != float(lam):
        raise ValidationError(f"cache file {path} does not match its key")
    for d, mat in enumerate(change):
        if not _valid_change(mat, len(multi_indices(dom.dim, d))):
            return None
        mat.setflags(write=False)
    return TruncatedBasis(dom, float(lam), int(max_degree), tuple(change))


def cached_truncated_basis(
    dom: DomainSpec, lam: float, max_degree: int, cache_dir: str | None = None
) -> TruncatedBasis:
    """Basis with read-through disk caching when a cache dir is configured."""
    directory = resolve_cache_dir(cache_dir)
    if directory is None:
        return truncated_basis(dom, lam, max_degree)
    found = load_basis(dom, lam, max_degree, directory)
    if found is not None:
        return found
    basis = truncated_basis(dom, lam, max_degree)
    save_basis(basis, directory)
    return basis
