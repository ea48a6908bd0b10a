"""Reproducing-kernel expansion of Delta(z, w)^{-lambda} by total degree.

The generic norm Delta is a bi-polynomial with equal degree in z and
conj(w), so the kernel expands into degree blocks

    Delta(z, w)^{-lam} = sum_d  m_d(z)^T C_d conj(m_d(w)),

with m_d the graded-lex monomial vector of degree d.  Blocks are produced
by the power recurrence mu P' Q = Q' P (Euler derivative on the z-grading),
which needs only the finitely many blocks of Delta itself.  Delta is
invariant under the torus z -> u z v (u, v diagonal unitaries), so C_d is
block-diagonal by torus weight.  The classes are read off the
multi-indices, and C_d is stored as class stacks: one (k, s, s) array per
class size s, a slice per class; the recurrence, the partial sums and every
factorization run on those stacks.  For continuous Wallach weights C_d is
positive definite, and the orthonormal graded basis used by the operator
layer is its reverse Cholesky factor U (upper triangular, U U^T = C_d),
taken once per class and stored in the same class stacks.  Every product
and solve with U (coordinates, evaluation, monomial norms, the multiplier
blocks of the operator layer) runs on those stacks, and the whole layer
needs numpy alone.  The Gram matrix of monomials, C_d^{-1} = U^{-T} U^{-1},
is kept as a dense diagnostic.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from .domains import DomainSpec, flatten_point, generic_poly, generic_poly_terms
from .errors import (
    BranchCutError,
    NonFiniteValue,
    NotAModuleWeight,
    NumericallySingular,
    ValidationError,
)
from .polynomials import MultiIndex, Polynomial
from .wallach import classify_weight, rising_factorial

CACHE_FORMAT_VERSION = 2
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
    return tuple(map(tuple, _alpha_array(n, d).tolist()))


@functools.lru_cache(maxsize=None)
def _binomial_table(n: int, d: int) -> np.ndarray:
    """table[j, k] = C(j + k, k) for j < d and k < n: the number of
    monomials of degree j in k + 1 variables."""
    table = np.ones((max(d, 1), n), dtype=np.int64)
    for j in range(1, d):
        table[j, 1:] = np.cumsum(table[j - 1, 1:]) + 1
    return _read_only(table)


def _grlex_rank(alpha: np.ndarray, d: int) -> np.ndarray:
    """Positions in ``multi_indices(n, d)`` of the rows of ``alpha``, an
    (m, n) array of exponents of total degree d.

    The monomials before alpha agree with it on some first i entries and
    exceed it at entry i; with the first i + 1 entries of alpha summing to
    t, there are C(d - 1 - t + k, k) of them, k = n - 1 - i.  Every term is
    at most the number of degree-d monomials, so no int64 overflows where
    ``multi_indices(n, d)`` fits in memory.
    """
    n = alpha.shape[1]
    spare = d - 1 - np.cumsum(alpha[:, :-1], axis=1)
    table = _binomial_table(n, d)
    terms = table[np.maximum(spare, 0), np.arange(n - 1, 0, -1)]
    return np.where(spare >= 0, terms, 0).sum(axis=1)


@functools.lru_cache(maxsize=None)
def _shift_positions(n: int, d: int, gamma: MultiIndex) -> np.ndarray:
    """Positions of alpha + gamma inside degree d + |gamma|, for alpha of
    degree d."""
    shifted = _alpha_array(n, d) + np.asarray(gamma, dtype=np.int64)
    return _read_only(_grlex_rank(shifted, d + sum(gamma)).astype(np.intp))


def _sorted_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable argsort of the 1-D ``values``, and where each run of equal
    values starts in that order and how long it is."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.ones(len(values), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(first)
    return order, starts, np.diff(np.append(starts, len(values)))


@functools.lru_cache(maxsize=None)
def _weight_classes(dom: DomainSpec, d: int) -> tuple[np.ndarray, ...]:
    """Positions of the degree-d monomials grouped by torus weight, stacked
    by class size: one (k, s) array per size s, each row a class in
    ascending order.

    The torus z -> u z v scales z^alpha by a character, its weight: alpha
    itself on the polydisc, and on the ball (1 x n) and the matrix ball the
    row and column sums of alpha read as a rows x cols array.  Delta is
    torus-invariant, so C_d and its factor U couple no two classes.

    The classes are numbered in lexicographic order of their weights.  Every
    weight entry lies in 0 .. d, so the weights read as numerals in base
    d + 1 sort in that order; the running key is replaced by its rank among
    the distinct keys so far whenever the next digit could overflow int64.
    """
    alpha = _alpha_array(dom.dim, d)
    if dom.kind == "polydisc":
        weight = alpha
    else:
        grid = alpha.reshape(-1, dom.rows, dom.cols)
        weight = np.hstack([grid.sum(axis=2), grid.sum(axis=1)])
    key, bound = np.zeros(len(weight), dtype=np.int64), 1
    for digit in weight.T:
        if bound * (d + 1) > np.iinfo(np.int64).max:
            order, starts, counts = _sorted_runs(key)
            key[order] = np.repeat(np.arange(len(starts)), counts)
            bound = len(starts)
        key, bound = key * (d + 1) + digit, bound * (d + 1)
    order, starts, counts = _sorted_runs(key)
    # class sizes in the order the classes first reach them
    by_size, size_starts, _ = _sorted_runs(counts)
    first = by_size[size_starts]
    return tuple(
        _read_only(order[starts[counts == s][:, None] + np.arange(s)])
        for s in counts[np.sort(first)]
    )


@functools.lru_cache(maxsize=None)
def _class_slots(dom: DomainSpec, d: int) -> np.ndarray:
    """(stack, row, column) of each degree-d monomial in
    ``_weight_classes(dom, d)``: monomial p is ``classes[stack][row, column]``."""
    classes = _weight_classes(dom, d)
    where = np.empty((sum(stack.size for stack in classes), 3), dtype=np.intp)
    for k, stack in enumerate(classes):
        rows, cols = np.indices(stack.shape)
        where[stack] = np.stack([np.full(stack.shape, k), rows, cols], axis=-1)
    return _read_only(where)


@functools.lru_cache(maxsize=None)
def _shift_plan(
    dom: DomainSpec, gamma: MultiIndex, d: int
) -> tuple[tuple[tuple[int, np.ndarray], tuple[int, np.ndarray], np.ndarray], ...]:
    """How z^gamma carries the weight classes of degree d into degree
    d + |gamma|.

    The weight of z^(alpha + gamma) is that of z^alpha plus that of z^gamma,
    so each class of degree d lands inside exactly one class of degree
    d + |gamma|.  The (destination, source) pairs are grouped by their
    stacks in ``_weight_classes``: a group is ((k, dst), (j, src), hit),
    where row dst[i] of stack k of degree d + |gamma| is the destination of
    row src[i] of stack j of degree d, and hit[i, a] is the position in the
    destination class that z^gamma sends position a of the source class to.
    """
    where = _class_slots(dom, d + sum(gamma))
    rmap = _shift_positions(dom.dim, d, gamma)
    plan = []
    for j, src in enumerate(_weight_classes(dom, d)):
        stack, row, _ = where[rmap[src[:, 0]]].T
        # the source rows by destination stack, each group ascending
        order, starts, _ = _sorted_runs(stack)
        for mine in np.split(order, starts[1:]):
            k = stack[mine[0]]
            plan.append((
                (int(k), _read_only(row[mine])),
                (j, _read_only(mine)),
                _read_only(where[rmap[src[mine]], 2]),
            ))
    return tuple(plan)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only: the cached index arrays are shared."""
    arr.setflags(write=False)
    return arr


def _dense(classes, stacks) -> np.ndarray:
    """The dense matrix that holds the class stacks ``stacks`` on the
    classes ``classes`` (both as in ``SeriesBlock``) and zeros elsewhere."""
    size = sum(idx.size for idx in classes)
    out = np.zeros((size, size))
    for idx, stack in zip(classes, stacks):
        out[idx[:, :, None], idx[:, None, :]] = stack
    return out


# ---------------------------------------------------------------------
# series blocks
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SeriesBlock:
    """Degree-d coefficient block C_d of the kernel expansion (real, since
    Delta has real coefficients and the weight is real), stored per torus
    weight class: only entries whose row and column monomials share a
    weight can be nonzero.

    ``classes`` is ``_weight_classes(dom, d)``; ``stacks[i]`` is the
    read-only (k, s, s) array whose slice a is C_d restricted to the class
    ``classes[i][a]``.
    """

    degree: int
    classes: tuple[np.ndarray, ...]
    stacks: tuple[np.ndarray, ...]

    @property
    def coeffs(self) -> np.ndarray:
        """C_d as a dense array, assembled on each access (tests and
        diagnostics)."""
        return _dense(self.classes, self.stacks)


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


def _class_entries(dom: DomainSpec, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of C_d that the class stacks hold, in the order of their
    concatenated ravels: (row, column) positions in degree d, and the
    offset of each stack in that order (one more than the stacks)."""
    classes = _weight_classes(dom, d)
    rows = [np.broadcast_to(idx[:, :, None], idx.shape + idx.shape[1:]).ravel() for idx in classes]
    cols = [np.broadcast_to(idx[:, None, :], idx.shape + idx.shape[1:]).ravel() for idx in classes]
    offsets = np.cumsum([0] + [r.size for r in rows])
    return np.concatenate(rows), np.concatenate(cols), offsets


def _build_series(dom: DomainSpec, lam: float, max_degree: int) -> tuple[SeriesBlock, ...]:
    n = dom.dim
    delta = _delta_blocks(dom)
    reach = max(delta, default=0)
    mu = -lam
    # per degree: (row, column) of each stored entry and the stack offsets,
    # held while a later degree still reads them; offsets[d] and raw[d],
    # the unsymmetrized entries in the same order, for every degree
    entries = {}
    offsets, raw = [], [np.ones(1)]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
        for d in range(max_degree + 1):
            entries[d] = _class_entries(dom, d)
            offsets.append(entries[d][2])
            if d == 0:
                continue
            where = _class_slots(dom, d)
            sizes = np.array([idx.shape[1] for idx in _weight_classes(dom, d)])
            starts = offsets[d]
            # a term sends distinct entries to distinct places, so one
            # indexed add per term counts each of them once
            acc = np.zeros(starts[-1])
            for j, terms in delta.items():
                if j > d:
                    continue
                rows, cols, _ = entries[d - j]
                factor = ((mu + 1.0) * j - d) / d
                for alpha, beta, coeff in terms:
                    # z^alpha conj(w)^beta moves entry (r, c) of C_{d-j} to
                    # (r + alpha, c + beta): entry (a, b) of one class of degree d
                    stack, cls, a = where[_shift_positions(n, d - j, alpha)[rows]].T
                    b = where[_shift_positions(n, d - j, beta)[cols], 2]
                    size = sizes[stack]
                    acc[starts[stack] + (cls * size + a) * size + b] += (factor * coeff) * raw[d - j]
            entries.pop(d - reach, None)
            raw.append(acc)
            if not np.isfinite(raw[d]).all():
                raise NonFiniteValue(f"kernel series block C_{d} overflows at lambda {lam!r}")
    out = []
    for d, flat in enumerate(raw):
        classes = _weight_classes(dom, d)
        stacks = []
        for idx, start, stop in zip(classes, offsets[d][:-1], offsets[d][1:]):
            k, s = idx.shape
            stack = flat[start:stop].reshape(k, s, s)
            # Hermitian (real symmetric) by circularity
            stacks.append(_read_only((stack + stack.transpose(0, 2, 1)) / 2.0))
        out.append(SeriesBlock(d, classes, tuple(stacks)))
    return tuple(out)


@functools.lru_cache(maxsize=8)
def _kernel_series_cached(dom: DomainSpec, lam: float) -> list[tuple[SeriesBlock, ...]]:
    """A one-slot list holding the longest series built for (dom, lam)."""
    return [()]


def kernel_series(dom: DomainSpec, lam: float, max_degree: int) -> tuple[SeriesBlock, ...]:
    """Blocks C_0 .. C_{max_degree} of Delta^{-lam}; any real weight.

    C_d depends only on the blocks of lower degree, so a series is served as
    the prefix of the longest one built for (dom, lam), bit for bit; a longer
    request builds anew and takes the slot once its build has returned.
    """
    if max_degree < 0:
        raise ValidationError("max_degree must be non-negative")
    lam, max_degree = float(lam), int(max_degree)
    slot = _kernel_series_cached(dom, lam)
    blocks = slot[0]
    if len(blocks) <= max_degree:
        blocks = _build_series(dom, lam, max_degree)
        slot[0] = blocks
    return blocks[: max_degree + 1]


def series_partial_sum(dom: DomainSpec, lam: float, z, w, max_degree: int) -> complex:
    """Evaluate sum_{d <= max_degree} m_d(z)^T C_d conj(m_d(w))."""
    blocks = kernel_series(dom, lam, max_degree)
    mzs = _monomial_vectors(dom, z, max_degree)
    mws = _monomial_vectors(dom, np.conj(w), max_degree)
    parts = []
    for block, mz, mw in zip(blocks, mzs, mws):
        v = np.empty(mw.shape, dtype=complex)
        for idx, stack in zip(block.classes, block.stacks):
            v[idx] = np.matmul(stack, mw[idx][..., None])[..., 0]
        parts.append(mz @ v)
    # the degree-0 term is 1: an exactly rounded sum keeps the digits of the rest
    return complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))


@functools.lru_cache(maxsize=None)
def _alpha_array(n: int, d: int) -> np.ndarray:
    """``multi_indices(n, d)`` as an (m, n) int64 array, built by the same
    recursion on arrays: the first exponent runs from d down to 0, each
    followed by every (n - 1)-variable index of the remaining degree."""
    if n == 1:
        return _read_only(np.full((1, 1), d, dtype=np.int64))
    rests = [_alpha_array(n - 1, d - first) for first in range(d, -1, -1)]
    out = np.empty((sum(len(r) for r in rests), n), dtype=np.int64)
    out[:, 0] = np.repeat(np.arange(d, -1, -1), [len(r) for r in rests])
    out[:, 1:] = np.concatenate(rests)
    return _read_only(out)


@functools.lru_cache(maxsize=None)
def _graded_alphas(n: int, max_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents of every monomial of degree <= max_degree in graded-lex
    order, and where each degree after the first starts."""
    blocks = [_alpha_array(n, d) for d in range(max_degree + 1)]
    starts = np.cumsum([len(b) for b in blocks[:-1]])
    return _read_only(np.concatenate(blocks)), _read_only(starts)


def _monomial_vectors(dom: DomainSpec, z, max_degree: int) -> list[np.ndarray]:
    """m_0(z), ..., m_{max_degree}(z), gathered from one table of the
    powers z_i^e."""
    zf = flatten_point(dom, z)
    if zf.size != dom.dim:
        raise ValidationError(f"point with {zf.size} coordinates on {dom.label()}")
    alphas, starts = _graded_alphas(zf.size, max_degree)
    powers = zf[:, None] ** np.arange(max_degree + 1)
    values = powers[0, alphas[:, 0]]
    for i in range(1, zf.size):
        values *= powers[i, alphas[:, i]]
    return np.split(values, starts)


# ---------------------------------------------------------------------
# Gram blocks and closed forms
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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

    A dense diagnostic (``symdom kernel``, the norm oracles), taken from the
    basis factor: C = U U^T per torus-weight class, so C^{-1} = M^T M with
    M = U^{-1}, the inverse of an upper-triangular matrix, which LU takes
    without a row swap.
    """
    basis = truncated_basis(dom, lam, max_degree)
    out = []
    for d, factor in enumerate(basis.factors):
        inverses = []
        for stack in factor:
            m = np.linalg.inv(stack)
            inv = m.transpose(0, 2, 1) @ m
            inverses.append((inv + inv.transpose(0, 2, 1)) / 2.0)
        gram = _dense(_weight_classes(dom, d), inverses)
        gram.setflags(write=False)
        out.append(GramBlock(d, gram))
    return tuple(out)


def gram_block(dom: DomainSpec, lam: float, degree: int) -> GramBlock:
    return gram_blocks(dom, lam, degree)[degree]


def _multi_index(dom: DomainSpec, alpha) -> MultiIndex:
    """alpha as a tuple of ``dom.dim`` non-negative ints; anything else
    (a non-integral entry, a wrong length) raises ValidationError."""
    try:
        entries = tuple(alpha)
        out = tuple(int(a) for a in entries)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"bad multi-index {alpha!r} for {dom.label()}") from None
    if len(out) != dom.dim or any(a < 0 or a != b for a, b in zip(out, entries)):
        raise ValidationError(f"bad multi-index {alpha!r} for {dom.label()}")
    return out


def closed_form_norm(dom: DomainSpec, lam: float, alpha) -> float:
    """Closed-form squared norm of the monomial z^alpha.

    ball: alpha! / (lam)_|alpha|;  polydisc: prod_i alpha_i! / (lam)_{alpha_i}.
    No closed form is exposed for the matrix ball.
    """
    alpha = _multi_index(dom, alpha)
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
    weights) when Delta lands on the closed negative real axis, and
    :class:`NonFiniteValue` when the power overflows.
    """
    val = generic_poly(dom, z, w)
    if val == 0:
        raise BranchCutError("Delta(z, w) = 0, no principal power")
    integral = abs(lam - round(lam)) <= 1e-12
    if not integral and val.real <= 0 and abs(val.imag) <= 1e-15 * abs(val):
        raise BranchCutError(
            f"Delta(z, w) = {val:.6g} lies on the negative real axis"
        )
    try:  # an inf result raises: OverflowError from Python's power, FloatingPointError from numpy's
        with np.errstate(over="raise", invalid="raise"):
            return complex(val ** (-round(lam)) if integral else np.exp(-lam * np.log(val)))
    except (OverflowError, FloatingPointError):
        raise NonFiniteValue(f"Delta(z, w)^(-lambda) overflows at lambda {lam!r}") from None


# ---------------------------------------------------------------------
# orthonormal graded basis
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TruncatedBasis:
    """Orthonormal basis of polynomials of degree <= D for weight lam.

    The degree-d basis elements are the columns of U_d, the upper-triangular
    reverse Cholesky factor of the kernel block, U_d U_d^T = C_d: column k
    gives the monomial coefficients (graded-lex order) of the k-th element.
    U_d couples no two torus-weight classes and is stored like C_d in
    ``SeriesBlock``: ``factors[d][i]`` is the read-only (k, s, s) stack of
    U_d on the classes ``_weight_classes(dom, d)[i]``.  Triangularity pins
    the basis down uniquely given the monomial order, so serialized bases
    reload bit-identically.
    """

    dom: DomainSpec
    lam: float
    max_degree: int
    factors: tuple[tuple[np.ndarray, ...], ...]

    @property
    def change(self) -> tuple[np.ndarray, ...]:
        """U_0 .. U_D as dense arrays, assembled on each access (tests and
        diagnostics)."""
        return tuple(
            _dense(_weight_classes(self.dom, d), f) for d, f in enumerate(self.factors)
        )

    @property
    def degree_sizes(self) -> list[int]:
        return [sum(u.shape[0] * u.shape[1] for u in f) for f in self.factors]

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
            c, e = np.zeros(self.degree_sizes[d], dtype=complex), out[self.block_slice(d)]
            c[_grlex_rank(np.array(list(part.terms)), d)] = list(part.terms.values())
            # U^{-1} c per class; U is upper triangular there, so the LU in
            # solve swaps no rows and is back substitution.  b as (k, s, 1):
            # numpy 2 takes only a 1-D b as a vector
            for idx, u in zip(_weight_classes(self.dom, d), self.factors[d]):
                e[idx] = np.linalg.solve(u, c[idx][..., None])[..., 0]
        return out

    def from_coords(self, vec: np.ndarray) -> Polynomial:
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        if vec.size != self.dim:
            raise ValidationError(f"vector of size {vec.size}, expected {self.dim}")
        terms: dict[MultiIndex, complex] = {}
        for d in range(self.max_degree + 1):
            v, c = vec[self.block_slice(d)], np.empty(self.degree_sizes[d], dtype=complex)
            for idx, u in zip(_weight_classes(self.dom, d), self.factors[d]):
                c[idx] = np.matmul(u, v[idx][..., None])[..., 0]
            for alpha, coeff in zip(multi_indices(self.dom.dim, d), c):
                if coeff != 0:
                    terms[alpha] = terms.get(alpha, 0.0) + coeff
        return Polynomial(self.dom.dim, terms)

    def eval_at(self, z) -> np.ndarray:
        """Values of every basis element at the point z."""
        monomials = _monomial_vectors(self.dom, z, self.max_degree)
        out = np.empty(self.dim, dtype=complex)
        for d, m in enumerate(monomials):
            e = out[self.block_slice(d)]
            for idx, u in zip(_weight_classes(self.dom, d), self.factors[d]):
                e[idx] = np.matmul(m[idx][:, None, :], u)[:, 0]
        return out

    def kernel_partial_sum(self, z, w) -> complex:
        """sum_k e_k(z) conj(e_k(w)); converges to kernel_eval inside."""
        return complex(self.eval_at(z) @ np.conj(self.eval_at(w)))

    def monomial_norm(self, alpha) -> float:
        """Squared norm of z^alpha read off the inverse change of basis."""
        alpha = _multi_index(self.dom, alpha)
        d = sum(alpha)
        if d > self.max_degree:
            raise ValidationError(f"degree {d} exceeds truncation {self.max_degree}")
        stack, row, col = _class_slots(self.dom, d)[_grlex_rank(np.array([alpha]), d)[0]]
        # column of U^{-1} on z^alpha's class: solve U x = e, norm^2 = |x|^2
        # since the basis is orthonormal
        u = self.factors[d][stack][row]
        x = np.linalg.solve(u, np.eye(len(u))[col])
        return float(x @ x)


def _reverse_cholesky(block: SeriesBlock) -> tuple[np.ndarray, ...]:
    """The class stacks of the upper-triangular U with positive diagonal
    and U U^T = C_d.

    One batched factorization per stack of torus-weight classes (C_d
    couples no two classes): flip(cholesky(flip(C))) on each class.
    """
    out = []
    for stack in block.stacks:
        try:
            lower = np.linalg.cholesky(stack[:, ::-1, ::-1])
        except np.linalg.LinAlgError as exc:
            raise NumericallySingular(
                f"degree-{block.degree} coefficient block is not positive definite"
            ) from exc
        out.append(_read_only(lower[:, ::-1, ::-1]))
    return tuple(out)


@functools.lru_cache(maxsize=8)
def _truncated_basis_cached(dom: DomainSpec, lam: float, max_degree: int) -> TruncatedBasis:
    _require_module_weight(dom, lam)
    factors = [_reverse_cholesky(block) for block in kernel_series(dom, lam, max_degree)]
    return TruncatedBasis(dom, lam, max_degree, tuple(factors))


def truncated_basis(dom: DomainSpec, lam: float, max_degree: int) -> TruncatedBasis:
    return _truncated_basis_cached(dom, float(lam), int(max_degree))


# ---------------------------------------------------------------------
# on-disk cache
# ---------------------------------------------------------------------

def _cache_header(dom: DomainSpec, lam: float, max_degree: int) -> str:
    """What a cache file is for: hashed into its key and stored in it."""
    return json.dumps(
        {"domain": dom.to_json(), "lambda": float(lam), "D": int(max_degree),
         "ordering": "grlex", "format_version": CACHE_FORMAT_VERSION},
        sort_keys=True,
    )


def cache_key(dom: DomainSpec, lam: float, max_degree: int) -> str:
    """16 hex digits: the CRC-32 and Adler-32 checksums of ``_cache_header``.

    Both are the same in every process (the salted ``hash`` is not), and
    zlib is loaded already (``zipfile``), where a cryptographic hash would
    load OpenSSL.  A collision costs only a miss: ``load_basis`` rejects a
    file whose stored header is not the one asked for."""
    header = _cache_header(dom, lam, max_degree).encode()
    return f"{zlib.crc32(header):08x}{zlib.adler32(header):08x}"


def resolve_cache_dir(cache_dir: str | None) -> str | None:
    if cache_dir is not None:
        return cache_dir
    return os.environ.get(CACHE_ENV_VAR)


def _cache_path(cache_dir: str, dom: DomainSpec, lam: float, max_degree: int) -> str:
    return os.path.join(cache_dir, f"basis-{cache_key(dom, lam, max_degree)}.npz")


def save_basis(basis: TruncatedBasis, cache_dir: str) -> str:
    """Write the basis to the cache atomically: a temporary file in the
    cache directory is renamed into place, so a reader sees the old file,
    the new one or none, never a torn write.  Degree d is one member, its
    factor stacks ravelled and concatenated."""
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, basis.dom, basis.lam, basis.max_degree)
    header = _cache_header(basis.dom, basis.lam, basis.max_degree)
    arrays = {
        f"factor_{d}": np.concatenate([u.ravel() for u in f])
        for d, f in enumerate(basis.factors)
    }
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".basis-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, header=np.array(header), **arrays)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def _factor_stacks(flat: np.ndarray, classes) -> tuple[np.ndarray, ...] | None:
    """The class stacks ravelled into ``flat`` by ``save_basis``, or None
    unless they fill it exactly and are real, finite and upper triangular
    with a positive diagonal."""
    shapes = [idx.shape + idx.shape[1:] for idx in classes]
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    if flat.dtype != np.float64 or flat.shape != (ends[-1],) or not np.all(np.isfinite(flat)):
        return None
    flat.setflags(write=False)
    stacks = tuple(p.reshape(shape) for p, shape in zip(np.split(flat, ends[:-1]), shapes))
    for u in stacks:
        if not np.array_equal(u, np.triu(u)) or not np.all(np.diagonal(u, axis1=1, axis2=2) > 0):
            return None
    return stacks


def load_basis(dom: DomainSpec, lam: float, max_degree: int, cache_dir: str) -> TruncatedBasis | None:
    """Cached basis, or None on a miss.

    A file that cannot be read, whose header is not the one its key was
    made from, or whose factor stacks are not real finite upper-triangular
    matrices of the right shape with a positive diagonal, counts as a miss;
    the caller rebuilds and rewrites it.
    """
    path = _cache_path(cache_dir, dom, lam, max_degree)
    if not os.path.exists(path):
        return None
    try:
        # np.load drops a handle it opened itself when the zip header is bad
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            header = str(data["header"])
            flats = [np.array(data[f"factor_{d}"]) for d in range(max_degree + 1)]
    except (OSError, ValueError, KeyError, EOFError, RuntimeError, zipfile.BadZipFile):
        return None
    if header != _cache_header(dom, lam, max_degree):
        return None
    factors = [_factor_stacks(flat, _weight_classes(dom, d)) for d, flat in enumerate(flats)]
    if None in factors:
        return None
    return TruncatedBasis(dom, float(lam), int(max_degree), tuple(factors))


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
