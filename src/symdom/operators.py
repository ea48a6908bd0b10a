"""Truncated multiplication operators, polynomial submodules and their
quotient compressions.

Everything acts on the degree-<= D orthonormal basis of a continuous-weight
kernel space.  z^gamma maps degree d to degree d + |gamma| and carries each
torus-weight class into one class, so P_D M_f P_D is held as class-pair
blocks (``_shift_block``, ``_mult_block``), one small block per
(destination class, source class); ``_dense_block`` assembles a dense
degree block from them where one is read (the filtration path,
``mult_op``), and no dense dim x dim product is formed.  The submodule
generated by f_1, ..., f_m is the span of the ranges of the P_D M_{f_j} P_D,
which keeps it exactly invariant under the truncated coordinate
multipliers, so the compressed tuple commutes in exact arithmetic for every
generator set.  A model holds only the complement: an orthonormal basis Q
of M^(D) orth, stored as degree blocks, each vector labelled by a degree,
and the compressed tuple S_i = Q^H T_i Q as label blocks S_i[l, k] (label
k to label l).  T_i raises the degree and T_i* keeps the quotient, so only
the blocks l > k are nonzero and stored.  The submodule is never
stored; its invariance is checked from Q alone as ||Q^H T_i - S_i Q^H||_2,
which equals ||Q^H T_i M||_2 for any orthonormal basis M of M^(D).
``quotient_model`` picks one of two paths from its generators:

- graded path, when every generator is homogeneous: the submodule is
  graded and the quotient splits as the sum over d of P_d orth M_d, each
  degree further by groups of torus-weight classes (``_graded_model``).
  Every quotient basis vector is supported on exactly one degree, its
  label, so S_i has only the blocks (d + 1, d) = S_i(d), formed per class
  pair (``_compress_shift``).  An empty generator list is the zero
  submodule: the quotient is the whole space.
- filtration path, when some generator is inhomogeneous (z1^2 + z2, say):
  the complement is built degree by degree, one SVD per degree
  (``_filtration_complement``).  Each quotient basis vector is supported on
  degrees <= its label, the complement at a lower D is the label prefix of
  the one at a higher D, and S_i has every block l > k.

One routine takes both guards on both paths from blocks (``_check_tuple``):
invariance, the defect above against ``INVARIANCE_TOL`` times
max(1, largest ||T_i||_2), and commuting, max ||[S_i, S_j]||_2 against
``koszul.COMMUTE_TOL`` times max(1, largest ||S_i||_2).  ||X||_2 <= ||X||_F
and both scales are at least 1, so each guard takes the Frobenius norm over
all its blocks first; only one above the tolerance assembles the defects
and takes their 2-norms (SVDs) and the scale, so verdicts and messages are
those of the 2-norms.

Every symbol is compressed from the tuple's label blocks.  Multipliers
raise the degree, and degrees are orthogonal, so P_D M_f P_D M_g P_D =
P_D M_fg P_D; M^(D) is invariant under the truncated multipliers, so the
quotient's projector drops out between them, and f -> S_f is an algebra
homomorphism: S_f = f(S_1, ..., S_n), formed from products of label
blocks (``_polynomial_blocks``, ``_label_products``).  S_f - f(0) I is
strictly lower in the labels, so S_{p/q} = S_p S_q^{-1} solves
X S_q = S_p by block forward substitution, with no inverse
(``_rational_blocks``).  A profile's commutator
[S_a, S_b*] is formed from these blocks.  It is block-diagonal over the
runs of labels that no block crosses (``_label_runs``): for coordinate
symbols each label is one on the graded path, all labels one on the
filtration path.  Each run's singular values are taken once and serve
every p and the window (``_run_spectra``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import koszul
from .calculus import BOUNDARY_TOL
from .domains import DomainSpec, spectral_norm
from .errors import (
    DenominatorVanishes,
    NonFiniteValue,
    NotPermissive,
    NumericallySingular,
    ValidationError,
)
from .kernels import (
    TruncatedBasis,
    _class_slots,
    _sorted_runs,
    _shift_plan,
    _shift_positions,
    _weight_classes,
)
from .polynomials import MultiIndex, Polynomial, RationalSymbol
from .sampling import Stream, closed_domain_samples

SPAN_RANK_TOL = 1e-10
INVARIANCE_TOL = 1e-12
DENOMINATOR_MARGIN = 1e-3
DENOMINATOR_SAMPLES = 10_000
DENOMINATOR_SEED = 20_401
CONDITION_CUTOFF = 1e12


def _shift_block(basis: TruncatedBasis, gamma: MultiIndex, d: int) -> list:
    """Class-pair blocks of multiplication by z^gamma from degree d to degree
    d + |gamma|, in the orthonormal basis.

    Per ``kernels._shift_plan`` group ((k, rows), (j, cols), hit) one entry
    ((k, rows), (j, cols), block): block[a] is U_{d+g}^{-1} scatter(U_d) on
    the pair (destination class, source class) = (row rows[a] of stack k of
    degree d + |gamma|, row cols[a] of stack j of degree d), one batched
    solve per group.  The multiplier is zero off these pairs."""
    g = sum(gamma)
    lower, upper = basis.factors[d], basis.factors[d + g]
    out = []
    for (k, rows), (j, cols), hit in _shift_plan(basis.dom, gamma, d):
        size = hit.shape[1]
        if g == 0:
            # z^0 = 1: exactly the identity, without a solve's rounding
            block = np.broadcast_to(np.eye(size), (len(rows), size, size))
        else:
            # the source classes' U_d blocks, moved to their rows in the destination
            scattered = np.zeros((len(rows), upper[k].shape[1], size))
            scattered[np.arange(len(rows))[:, None], hit] = lower[j][cols]
            block = np.linalg.solve(upper[k][rows], scattered)
        out.append(((k, rows), (j, cols), block))
    return out


def _mult_block(basis: TruncatedBasis, f: Polynomial, d: int) -> list:
    """P_D M_f P_D from degree d to degree d + deg f, for a homogeneous f, as
    class-pair blocks: the multiplier is their sum (terms of f that share a
    torus weight give blocks on the same pairs).  Each block stays real
    while its coefficient is."""
    return [
        (dst, src, (c.real if c.imag == 0 else c) * block)
        for gamma, c in f.terms.items()
        for dst, src, block in _shift_block(basis, gamma, d)
    ]


def _dense_block(basis: TruncatedBasis, pairs, d: int, k: int) -> np.ndarray:
    """The size_{d+k} x size_d matrix that the class-pair blocks ``pairs``
    from degree d to degree d + k sum to."""
    targets, sources = _weight_classes(basis.dom, d + k), _weight_classes(basis.dom, d)
    dtype = np.result_type(float, *(block for _, _, block in pairs))
    out = np.zeros((basis.degree_sizes[d + k], basis.degree_sizes[d]), dtype)
    for (t, rows), (s, cols), block in pairs:
        out[targets[t][rows][:, :, None], sources[s][cols][:, None, :]] += block
    return out


def _coordinate_blocks(basis: TruncatedBasis, i: int) -> list[list]:
    """Class-pair blocks (``_shift_block``) of the truncated coordinate
    multiplier z_i from degree d to d + 1, for d = 0 .. D - 1."""
    gamma = tuple(int(j == i) for j in range(basis.dom.dim))
    return [_shift_block(basis, gamma, d) for d in range(basis.max_degree)]


def _pair_norm(pairs) -> float:
    """2-norm of multiplication by a monomial from its class-pair blocks.

    z^gamma sends each source class into its own destination class, so
    T*T is block-diagonal by source class and ||T||_2 is exactly the
    largest class-pair block norm."""
    return max(
        (float(np.linalg.norm(b, 2, axis=(1, 2)).max()) for _, _, b in pairs if b.size),
        default=0.0,
    )


def _check_symbol(dom: DomainSpec, f: Polynomial) -> None:
    if f.nvars != dom.dim:
        raise ValidationError(f"symbol in {f.nvars} variables on {dom.label()}")


def mult_op(basis: TruncatedBasis, f: Polynomial) -> np.ndarray:
    """Matrix of P_D M_f P_D in the orthonormal graded basis, assembled
    from its degree blocks (``_dense_block``), labelled by degree."""
    _check_symbol(basis.dom, f)
    blocks = {
        (d + k, d): _dense_block(basis, _mult_block(basis, part, d), d, k)
        for k, part in f.homogeneous_parts().items()
        for d in range(basis.max_degree - k + 1)
    }
    return _assemble(blocks, [basis.offset(d) for d in range(basis.max_degree + 2)])


# ---------------------------------------------------------------------
# submodules and quotients
# ---------------------------------------------------------------------

def _check_generators(basis: TruncatedBasis, generators) -> None:
    if any(g.is_zero() for g in generators):
        raise ValidationError("generators must be nonzero")
    if any(g.nvars != basis.dom.dim for g in generators):
        raise ValidationError("generator variable count mismatch")
    if min((sum(a) for g in generators for a in g.terms), default=0) > basis.max_degree:
        raise ValidationError("generators produce an empty span at this degree")


def _assemble(blocks: dict, starts, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """The dense complex matrix of the label blocks ``blocks[l, k]`` on the
    labels lo .. hi - 1 (all of them by default), label l spanning rows and
    columns starts[l] .. starts[l + 1]."""
    hi = len(starts) - 1 if hi is None else hi
    base = starts[lo]
    out = np.zeros((starts[hi] - base,) * 2, dtype=complex)
    for (l, k), block in blocks.items():
        if lo <= min(l, k) and max(l, k) < hi:
            rows, cols = starts[l] - base, starts[k] - base
            out[rows:rows + block.shape[0], cols:cols + block.shape[1]] = block
    return out


def _label_products(terms):
    """The label blocks of the sum of the products +-A B, one term (np.add
    or np.subtract, A, B) each, from the label blocks of every A and B, one
    ((l, k), block) at a time.  (A B)[l, k] sums A[l, m] B[m, k] over the
    stored blocks, in the terms' order; a block that no product reaches is
    zero and is not given."""
    products = {}  # (l, k): (op, A[l, m], B[m, k]) per product
    for op, x, y in terms:
        for (l, m), u in x.items():
            for (n, k), v in y.items():
                if m == n:
                    products.setdefault((l, k), []).append((op, u, v))
    for key, ((op, u, v), *rest) in products.items():
        block = op(0.0, u @ v)
        for op, u, v in rest:
            block = op(block, u @ v)
        yield key, block


def _label_commutator(a: dict, b: dict):
    """The label blocks of A B - B A (``_label_products``)."""
    return _label_products([(np.add, a, b), (np.subtract, b, a)])


@dataclass(frozen=True)
class QuotientModel:
    """Compression of the coordinate multipliers to the quotient M^(D) orth.

    The model holds only the complement Q, whose orthonormal columns are
    sorted by ``degree_labels`` (the labels drive windowed Schatten norms);
    the submodule is ``I - projector()``.  ``blocks`` stores Q by degree: a
    pair (start, block) per degree d, where block is the degree-d rows of Q
    on the columns from start on (those labelled d or higher), and those
    rows vanish on all other columns.  ``tuple_blocks[i]`` stores S_i by
    label: its entry (l, k) is the block from the label-k columns to the
    label-l rows, stored for l > k only (every other block is zero) and real
    while the generators are.  On the graded path (every generator
    homogeneous, or none) each column is supported on its label's degree
    and S_i has only the blocks (d + 1, d); on the filtration path each
    column is supported on degrees <= its label and S_i has every l > k.
    """

    basis: TruncatedBasis
    blocks: tuple[tuple[int, np.ndarray], ...]
    degree_labels: np.ndarray
    tuple_blocks: tuple[dict[tuple[int, int], np.ndarray], ...]

    @property
    def tuple_mats(self) -> tuple[np.ndarray, ...]:
        """The compressed tuple S_1 .. S_n as dense dim_quotient x
        dim_quotient matrices, assembled from ``tuple_blocks`` on each access
        (Koszul tests, the boundary calculus and tests)."""
        return tuple(_assemble(s, self.label_starts) for s in self.tuple_blocks)

    @property
    def label_starts(self) -> np.ndarray:
        """The first column of each label 0 .. D, then dim_quotient."""
        return np.searchsorted(self.degree_labels, np.arange(self.basis.max_degree + 2))

    @property
    def dim_quotient(self) -> int:
        return self.degree_labels.size

    @property
    def quotient_onb(self) -> np.ndarray:
        """Q as a dense dim x dim_quotient matrix, assembled from ``blocks``
        on each access."""
        q = np.zeros((self.basis.dim, self.dim_quotient), dtype=complex)
        for d, (start, block) in enumerate(self.blocks):
            q[self.basis.block_slice(d), start:start + block.shape[1]] = block
        return q

    def projector(self) -> np.ndarray:
        """Orthogonal projector of the truncated space onto the quotient."""
        q = self.quotient_onb
        return q @ q.conj().T


def _filtration_complement(basis: TruncatedBasis, generators):
    """The filtration-adapted complement of arbitrary generators' span as
    ``QuotientModel.blocks`` and labels.  B is an orthonormal basis of the
    span of the columns' degree-< k rows, Y = B^H C their coordinates, and a
    source degree s of P_D M_f P_D enters at k = s + min deg f with Y = 0.
    The SVD of Y over the degree-k rows, lifted through diag(B, I), gives
    the next B (singular values above ``SPAN_RANK_TOL`` times the largest),
    the label-k vectors (the rest) and the next Y = Sigma V^H; it is real
    while the rows are (``koszul._in_field``)."""
    parts = [f.homogeneous_parts() for f in generators]
    sizes = basis.degree_sizes
    span, coords = np.zeros((0, 0)), np.zeros((0, 0))  # B and Y
    sources: list[tuple[dict, int]] = []  # (homogeneous parts, source degree)
    pieces = [[np.zeros((size, 0))] for size in sizes]  # degree-d rows, by label
    labels: list[int] = []
    for k, size in enumerate(sizes):
        sources += [(p, k - min(p)) for p in parts if k >= min(p)]
        rows = [
            _dense_block(basis, _mult_block(basis, p[k - s], s), s, k - s)
            if k - s in p
            else np.zeros((size, sizes[s]))
            for p, s in sources
        ]
        if rows:
            entered = sum(sizes[s] for _, s in sources) - coords.shape[1]
            coords = np.hstack([coords, np.zeros((len(coords), entered))])
            u, sv, vh = np.linalg.svd(
                np.vstack([coords, np.hstack(koszul._in_field(rows))]), full_matrices=True
            )
            kept = int(np.sum(sv > SPAN_RANK_TOL * sv.max(initial=0.0)))
            coords = sv[:kept, None] * vh[:kept]
        else:
            u, kept = np.eye(size), 0
        lifted = np.vstack([span @ u[: span.shape[1]], u[span.shape[1]:]])
        span = lifted[:, :kept]
        for d in range(k + 1):
            pieces[d].append(lifted[basis.block_slice(d), kept:])
        labels += [k] * (lifted.shape[1] - kept)
    starts = np.searchsorted(labels, np.arange(len(sizes)))
    blocks = tuple((int(i), np.hstack(p)) for i, p in zip(starts, pieces))
    return blocks, np.asarray(labels, dtype=int)


def _multiplier_scale(basis: TruncatedBasis) -> float:
    """Largest ||T_i||_2 over the truncated coordinate multipliers: the
    largest class-pair block norm of any degree (``_pair_norm``)."""
    blocks = (pairs for i in range(basis.dom.dim) for pairs in _coordinate_blocks(basis, i))
    return max(map(_pair_norm, blocks), default=0.0)


def _check_tuple(basis: TruncatedBasis, starts, tuple_blocks, residues) -> None:
    """The invariance and commuting guards of the module notes, from the
    label blocks of the tuple (label l from column starts[l]), Frobenius
    norm first: above the tolerance, the invariance defects are assembled
    and the scale taken only when a 2-norm exceeds it, and the tuple is
    assembled for ``koszul.check_commuting``.

    ``residues[i]`` lists the pieces (rows, cols, values) of
    Q^H T_i - S_i Q^H: values[..., a, b] sits in row rows[..., a] and
    column cols[..., b], and row -1 marks a padded frame column, whose
    values are zero.
    """
    squares = sum(np.vdot(v, v).real for pieces in residues for _, _, v in pieces)
    if math.sqrt(squares) > INVARIANCE_TOL:
        defect = 0.0
        for pieces in residues:
            dense = np.zeros((starts[-1] + 1, basis.dim), dtype=complex)  # row -1 takes the padding
            for rows, cols, values in pieces:
                dense[rows[..., :, None], cols[..., None, :]] = values
            defect = max(defect, float(np.linalg.norm(dense[:-1], 2)))
        if defect > INVARIANCE_TOL and defect > INVARIANCE_TOL * max(
            1.0, _multiplier_scale(basis)
        ):
            raise NumericallySingular(f"truncated submodule not invariant, defect {defect:.2e}")
    pairs = itertools.combinations(tuple_blocks, 2)
    squares = sum(np.vdot(c, c).real for a, b in pairs for _, c in _label_commutator(a, b))
    if math.sqrt(squares) > koszul.COMMUTE_TOL:
        koszul.check_commuting([_assemble(s, starts) for s in tuple_blocks])


def _class_ids(dom: DomainSpec, d: int) -> np.ndarray:
    """The torus-weight class of each degree-d position, the classes of
    ``_weight_classes(dom, d)`` numbered stack by stack and row by row."""
    stack, row, _ = _class_slots(dom, d).T
    firsts = np.cumsum([0] + [len(s) for s in _weight_classes(dom, d)])
    return firsts[stack] + row


def _components(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each of ``size`` nodes labelled by the smallest node of its connected
    component under the edges (a[k], b[k]).

    Every label is a node of the same component, at most the node itself.
    A pass lowers both ends of each edge to the smaller of their labels and
    then replaces each label by the label of that node, so labels only
    fall; a pass that changes nothing leaves both ends of every edge with
    one label, which is then the component's smallest node."""
    label = np.arange(size)
    while True:
        new = label.copy()
        low = np.minimum(label[a], label[b])
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _group_svds(basis: TruncatedBasis, generators, d: int):
    """The degree-d generator columns, one full SVD per group of
    torus-weight classes.

    The columns of degree d are the blocks of P_D M_f P_D from degree
    d - deg f, for each homogeneous generator f.  z^gamma carries class mu
    of degree d - |gamma| into class mu + wt(gamma), so the column of f on
    one source monomial lies in the classes that f's terms carry its class
    to; classes shared by a column form one group, and the columns are
    block-diagonal by group.  A generator whose terms share one weight
    (z11, det z, any monomial) gives one class per group; z11 + z22 merges
    classes.  The groups' matrices are filled straight from the class-pair
    blocks (``_mult_block``), stacked by shape.

    Returns the positions of the classes that no column reaches; per stack
    of groups of one shape (m rows, k columns): the groups' positions
    (g, m), their left singular vectors (g, m, m) and singular values; and
    the group of each class, labelled by its smallest class (a class that
    no column reaches is a group of its own).
    """
    dom = basis.dom
    cls = _class_ids(dom, d)
    columns, keys, tails, heads = [], [], [], []
    first = 0  # the generator's first column
    for f in generators:
        if f.degree() <= d:
            src = d - f.degree()
            # hit[t, p]: the class that term t carries source position p into
            hit = np.array([cls[_shift_positions(dom.dim, src, gamma)] for gamma in f.terms])
            columns.append((first, src, _mult_block(basis, f, src)))
            first += basis.degree_sizes[src]
            keys.append(hit[0])
            tails.append(np.broadcast_to(hit[0], hit[1:].shape).ravel())
            heads.append(hit[1:].ravel())
    empty = [np.zeros(0, dtype=np.intp)]
    group = _components(
        sum(len(s) for s in _weight_classes(dom, d)),
        np.concatenate(empty + tails),
        np.concatenate(empty + heads),
    )
    col_group = group[np.concatenate(empty + keys)]
    row_group = group[cls]
    reached = np.zeros(group.size, dtype=bool)
    reached[col_group] = True
    rows = np.flatnonzero(reached[row_group])
    by_group, row_starts, heights = _sorted_runs(row_group[rows])
    rows = rows[by_group]
    cols, col_starts, widths = _sorted_runs(col_group)
    svds = []
    if rows.size:
        # entry (position p, column c) of its group's matrix sits at
        # flat[at_row[p] + at_col[c]]: the groups of one shape are one stack
        at_row = np.zeros(cls.size, dtype=np.intp)
        at_col = np.zeros(col_group.size, dtype=np.intp)
        stacks, end = [], 0
        order, starts, _ = _sorted_runs(heights * (widths.max() + 1) + widths)
        for same in np.split(order, starts[1:]):
            m, k = heights[same[0]], widths[same[0]]
            r = rows[row_starts[same][:, None] + np.arange(m)]
            at_row[r] = end + k * (m * np.arange(len(same))[:, None] + np.arange(m))
            at_col[cols[col_starts[same][:, None] + np.arange(k)]] = np.arange(k)
            stacks.append((r, end, (len(same), m, k)))
            end += len(same) * m * k
        flat = np.zeros(end, np.result_type(float, *(
            b for _, _, pairs in columns for _, _, b in pairs
        )))
        targets = _weight_classes(dom, d)
        for first, src, pairs in columns:
            sources = _weight_classes(dom, src)
            for (t, trows), (j, srows), block in pairs:
                at = at_col[first + sources[j][srows]]
                flat[at_row[targets[t][trows]][:, :, None] + at[:, None, :]] += block
        for r, start, shape in stacks:
            mats = flat[start:start + math.prod(shape)].reshape(shape)
            u, s, _ = np.linalg.svd(mats, full_matrices=True)
            svds.append((r, u, s))
    return np.flatnonzero(~reached[row_group]), svds, group


def _complement_block(size: int, free: np.ndarray, svds, cutoff: float, row_group):
    """The degree-d complement: the basis vectors of the classes no column
    reaches, then each group's left singular vectors past its rank, the
    singular values above ``cutoff``; real when the generator columns are.
    Also the group (``row_group`` of its positions) that owns each column."""
    kept = []  # (positions, vector) per kept column, one row each
    for pos, u, s in svds:
        g, j = np.nonzero(np.arange(u.shape[1]) >= np.sum(s > cutoff, axis=1)[:, None])
        kept.append((pos[g], u[g, :, j]))
    dtype = np.result_type(float, *(u for _, u, _ in svds))
    q = np.zeros((size, free.size + sum(len(v) for _, v in kept)), dtype)
    q[free, np.arange(free.size)] = 1.0
    col = free.size
    for pos, vectors in kept:
        q[pos, col + np.arange(len(vectors))[:, None]] = vectors
        col += len(vectors)
    owner = np.concatenate([row_group[free]] + [row_group[pos[:, 0]] for pos, _ in kept])
    return q, owner


def _class_frames(dom: DomainSpec, d: int, q: np.ndarray, group, owner) -> list:
    """Q_d class by class, for the class-pair products of ``_compress_shift``.

    Per stack of ``_weight_classes(dom, d)``, a triple (positions (k, s),
    columns (k, W), frame (k, s, W)): the columns of Q_d that the class's
    group owns (``owner``), padded to the stack's widest with the index
    q.shape[1], and Q_d's rows on the class there.  Q_d vanishes on a class
    outside its group's columns, and a padded column of a frame is zero."""
    nq = q.shape[1]
    order, starts, counts = _sorted_runs(owner)
    labels = owner[order[starts]]
    # a class whose group owns no column reads the run past the end: none
    order, starts, counts = np.append(order, nq), np.append(starts, 0), np.append(counts, 0)
    frames, first = [], 0
    for stack in _weight_classes(dom, d):
        mine = group[first:first + len(stack)]
        first += len(stack)
        run = np.searchsorted(labels, mine)
        run[np.append(labels, -1)[run] != mine] = len(labels)
        width = counts[run]
        slot = np.arange(width.max(initial=0))
        valid = slot < width[:, None]
        cols = order[np.where(valid, starts[run][:, None] + slot, len(order) - 1)]
        frame = q[stack[:, :, None], np.minimum(cols, nq - 1)[:, None, :]]
        frame *= valid[:, None, :]
        frames.append((stack, cols, frame))
    return frames


def _graded_complement(basis: TruncatedBasis, generators) -> list:
    """The complement blocks Q_0 .. Q_D of homogeneous generators, each
    with its class frames (``_class_frames``), real when the generator
    columns are.  The rank counts the singular
    values above ``SPAN_RANK_TOL`` times the largest one over every group
    of every degree."""
    parts = [_group_svds(basis, generators, d) for d in range(basis.max_degree + 1)]
    cutoff = SPAN_RANK_TOL * max(
        (s.max() for _, svds, _ in parts for _, _, s in svds if s.size), default=0.0
    )
    out = []
    for d, (size, (free, svds, group)) in enumerate(zip(basis.degree_sizes, parts)):
        row_group = group[_class_ids(basis.dom, d)]
        q, owner = _complement_block(size, free, svds, cutoff, row_group)
        out.append((q, _class_frames(basis.dom, d, q, group, owner)))
    return out


def _adjoint(stack: np.ndarray) -> np.ndarray:
    """The conjugate transpose of every matrix of a stack."""
    return stack.conj().swapaxes(-1, -2)


def _compress_shift(pairs, target, source, shape, at):
    """S(d) = Q_{d+1}^H T(d) Q_d, a ``shape`` matrix, for T the
    multiplier by a monomial of degree 1 given by its class-pair blocks,
    and the pieces of the invariance defect Q_{d+1}^H T(d) - S(d) Q_d^H
    (``_check_tuple``), their rows and columns offset by ``at``.

    ``target`` and ``source`` are the class frames of Q_{d+1} and Q_d.  T
    carries class c into one class tau, and Q_{d+1} vanishes on tau outside
    the columns of tau's group, so the pair adds F_tau^H B F_c to S on
    those columns and c's columns, and the defect on c's positions is
    X - S[tau's columns, c's columns] F_c^H with X = F_tau^H B.  The
    products stay real while the frames are.  Padded frame columns are
    zero and land in a border row or column of S that is dropped; their
    defect rows are zero and get row -1.
    """
    frames = [f for _, _, f in target] + [f for _, _, f in source]
    dtype = np.result_type(float, *frames, *(b for _, _, b in pairs))
    out = np.zeros((shape[0] + 1, shape[1] + 1), dtype)
    parts = []
    for (k, rows), (j, cols), block in pairs:
        (_, lcols, lframe), (pos, rcols, rframe) = target[k], source[j]
        lcols, pos, rcols, rframe = lcols[rows], pos[cols], rcols[cols], rframe[cols]
        x = _adjoint(lframe[rows]) @ block
        np.add.at(out, (lcols[:, :, None], rcols[:, None, :]), x @ rframe)
        parts.append((lcols, pos, rcols, x, rframe))
    pieces = []
    for lcols, pos, rcols, x, rframe in parts:
        residue = x - out[lcols[:, :, None], rcols[:, None, :]] @ _adjoint(rframe)
        if residue.any():  # a zero piece (all of them, for monomial generators) adds nothing
            pieces.append((np.where(lcols < shape[0], at[0] + lcols, -1), at[1] + pos, residue))
    return out[:-1, :-1].copy(), pieces


def _graded_model(basis: TruncatedBasis, generators) -> QuotientModel:
    """Quotient by homogeneous generators: M^(D) and its complement split
    as sums over d of M_d and P_d orth M_d, and each degree further by
    groups of torus-weight classes (``_group_svds``); one SVD per group,
    with the rank counted against the largest singular value over every
    group of every degree, applies the rank rule of one SVD of all columns.
    Without generators no class is reached: the whole space.  Each
    coordinate multiplier shifts degree d to d + 1 and each class into one
    class, so S_i(d) and the invariance defect are taken per class pair
    (``_compress_shift``).
    """
    complement = _graded_complement(basis, generators)
    sizes = [q.shape[1] for q, _ in complement]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    labels = np.repeat(np.arange(len(sizes)), sizes)
    tuple_blocks, residues = [], []
    for i in range(basis.dom.dim):
        sblocks, pieces = {}, []
        for d, pairs in enumerate(_coordinate_blocks(basis, i)):
            (_, source), (_, target) = complement[d], complement[d + 1]
            sblocks[d + 1, d], more = _compress_shift(
                pairs, target, source, (sizes[d + 1], sizes[d]), (starts[d + 1], basis.offset(d))
            )
            pieces += more
        tuple_blocks.append(sblocks)
        residues.append(pieces)
    _check_tuple(basis, starts, tuple_blocks, residues)
    blocks = tuple((int(start), q) for start, (q, _) in zip(starts, complement))
    return QuotientModel(basis, blocks, labels, tuple(tuple_blocks))


def _filtration_model(basis: TruncatedBasis, generators) -> QuotientModel:
    """Quotient by arbitrary generators through the filtration-adapted
    complement; the only path for inhomogeneous generators.

    S_i sums X_d Q_d, X_d = Q_{d+1}^H T_i(d), over d, in the field of Q (real
    while the generators are, ``_filtration_complement``), and keeps the
    blocks l > k only: the others are exactly 0, and rounding residues there
    would close the nilpotent S_i into cycles.  The invariance defect of the
    kept tuple is X_d - S_i Q_d^H on the degree-d positions (its rows
    labelled d or lower vanish).
    """
    blocks, labels = _filtration_complement(basis, generators)
    nq = labels.size
    starts = [start for start, _ in blocks] + [nq]
    tuple_blocks, residues = [], []
    for i in range(basis.dom.dim):
        s, products = np.zeros((nq, nq), np.result_type(*(q for _, q in blocks))), []
        for d, pairs in enumerate(_coordinate_blocks(basis, i)):
            (lstart, q1), (rstart, q0) = blocks[d + 1], blocks[d]
            x = q1.conj().T @ _dense_block(basis, pairs, d, 1)
            s[lstart:, rstart:] += x @ q0
            products.append(x)
        s *= labels[:, None] > labels[None, :]  # only the blocks l > k are kept
        sblocks = {
            (l, k): s[starts[l]:starts[l + 1], starts[k]:starts[k + 1]].copy()
            for l in range(len(blocks)) for k in range(l)
        }
        residues.append([
            (
                np.arange(starts[d + 1], nq),
                basis.offset(d) + np.arange(basis.degree_sizes[d]),
                x - s[starts[d + 1]:, start:] @ q.conj().T,
            )
            for d, (x, (start, q)) in enumerate(zip(products, blocks))
        ])
        tuple_blocks.append(sblocks)
    _check_tuple(basis, starts, tuple_blocks, residues)
    return QuotientModel(basis, blocks, labels, tuple(tuple_blocks))


def _is_graded(generators) -> bool:
    """Whether ``quotient_model`` takes the graded path: every generator
    homogeneous."""
    return all(len(g.homogeneous_parts()) == 1 for g in generators)


def quotient_model(basis: TruncatedBasis, generators) -> QuotientModel:
    """Quotient module model: projector onto M^(D) orth and compressed tuple.

    Homogeneous generators, and the empty tuple (the zero submodule, whose
    quotient is the whole space), take the graded path (per-degree
    complements, see ``_graded_model``); any inhomogeneous generator takes
    the filtration path.  Both assert the two structural identities that
    hold in exact arithmetic: M^(D) is invariant under the truncated
    multipliers (defect <= 1e-12) and the compressed coordinates commute
    (defect <= 1e-10).
    """
    generators = tuple(generators)
    _check_generators(basis, generators)
    if _is_graded(generators):
        return _graded_model(basis, generators)
    return _filtration_model(basis, generators)


def _polynomial_blocks(model: QuotientModel, f: Polynomial):
    """(f(0), the label blocks of S_f - f(0) I): S_f = f(S_1, ..., S_n)
    (module notes), each S^alpha the product of the coordinate blocks S_i,
    alpha_i times each, from the left, and each term c S^alpha real while
    c is."""
    _check_symbol(model.basis.dom, f)
    out = {}
    for alpha, c in f.terms.items():
        if any(alpha):  # the constant term is f(0) I
            factors = [model.tuple_blocks[i] for i, a in enumerate(alpha) for _ in range(a)]
            power = functools.reduce(lambda x, y: dict(_label_products([(np.add, x, y)])), factors)
            for key, block in power.items():
                term = (c.real if c.imag == 0 else c) * block
                out[key] = out[key] + term if key in out else term
    return f.terms.get((0,) * f.nvars, 0.0), out


def _assemble_symbol(model: QuotientModel, f0: complex, blocks: dict) -> np.ndarray:
    """The dense matrix f0 I + N, N given by its label blocks."""
    return _assemble(blocks, model.label_starts) + f0 * np.eye(model.dim_quotient)


def compress(model: QuotientModel, f: Polynomial) -> np.ndarray:
    """S_f = P M_f P restricted to the quotient: f(S_1, ..., S_n)."""
    return _assemble_symbol(model, *_polynomial_blocks(model, f))


@functools.lru_cache(maxsize=None)
def _denominator_samples(dom: DomainSpec) -> np.ndarray:
    """The ``DENOMINATOR_SAMPLES`` closed-domain points drawn from the fixed
    seed ``DENOMINATOR_SEED``, drawn once per domain and read-only."""
    pts = closed_domain_samples(dom, DENOMINATOR_SAMPLES, Stream(DENOMINATOR_SEED))
    pts.flags.writeable = False
    return pts


def _denominator_blocks(model: QuotientModel, q: Polynomial):
    """``_polynomial_blocks`` of a denominator, after the guards of
    ``compress_rational``."""
    values = np.abs(q.eval_batch(_denominator_samples(model.basis.dom)))
    if values.size and values.min() < DENOMINATOR_MARGIN:
        raise DenominatorVanishes(
            f"denominator modulus drops to {values.min():.2e} on the closed domain"
        )
    q0, low = _polynomial_blocks(model, q)
    if not model.dim_quotient:
        return 1.0, {}  # the empty S_q: nothing to invert
    sv = np.linalg.svd(_assemble_symbol(model, q0, low), compute_uv=False)
    if sv[-1] == 0 or sv[0] / sv[-1] > CONDITION_CUTOFF:
        raise NumericallySingular(
            "compressed denominator condition number exceeds cutoff"
        )
    return q0, low


def _rational_blocks(model: QuotientModel, p: Polynomial, q: Polynomial, q0, low: dict):
    """(x0, the label blocks of Z = X - x0 I) for X = S_p S_q^{-1}, given
    S_q = q0 I + M (``_denominator_blocks``).

    M is strictly lower in the labels, so X is lower with diagonal
    x0 = p(0) / q0, and X S_q = S_p says Z (q0 I + M) = S_p - x0 S_q =
    S_{p - x0 q}, strictly lower too.  Block forward substitution, each label
    row from the diagonal out, overwrites the right side with Z:
    Z[l, k] = (S_{p - x0 q}[l, k] - sum over k < m < l of Z[l, m] M[m, k]) / q0."""
    x0 = p.terms.get((0,) * p.nvars, 0.0) / q0
    _, out = _polynomial_blocks(model, p - q * x0)
    for l in range(model.basis.max_degree + 1):
        for k in reversed(range(l)):
            terms = [out[l, k]] if (l, k) in out else []
            terms += [-out[l, m] @ b for (m, j), b in low.items() if j == k and (l, m) in out]
            if terms:
                out[l, k] = sum(terms) / q0
    return x0, out


def compress_rational(model: QuotientModel, p: Polynomial, q: Polynomial) -> np.ndarray:
    """S_{p/q} = S_p (S_q)^{-1}.

    The denominator must stay away from zero on the closed domain and S_q
    must be invertible with condition number below ``CONDITION_CUTOFF``.
    The lower bound on |q| is the minimum over the domain's
    ``_denominator_samples`` (evaluated in one batch) and must be at least
    ``DENOMINATOR_MARGIN``.  No inverse is formed: X S_q = S_p is solved by
    block forward substitution (``_rational_blocks``).
    """
    return _assemble_symbol(model, *_rational_blocks(model, p, q, *_denominator_blocks(model, q)))


def _symbol_blocks(model: QuotientModel, symbol, denominators: dict):
    """``_polynomial_blocks`` or ``_rational_blocks`` of a symbol; each
    distinct denominator is compressed and guarded once per
    ``denominators``."""
    if not isinstance(symbol, RationalSymbol):
        return _polynomial_blocks(model, symbol)
    key = frozenset(symbol.q.terms.items())
    if key not in denominators:
        denominators[key] = _denominator_blocks(model, symbol.q)
    return _rational_blocks(model, symbol.p, symbol.q, *denominators[key])


# ---------------------------------------------------------------------
# commutators, Schatten norms, permissive transforms
# ---------------------------------------------------------------------

def cross_commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B*] = A B* - B* A."""
    bstar = np.asarray(b, dtype=complex).conj().T
    a = np.asarray(a, dtype=complex)
    return a @ bstar - bstar @ a


def schatten_norm(x: np.ndarray, p: float) -> float:
    """Schatten p-norm via singular values (p = 2: the Frobenius norm); p may
    be inf, must be >= 1."""
    return _spectra_norm(_block_spectra([x], [p]), p)


def _block_spectra(blocks, p_values) -> list[tuple[float, np.ndarray]]:
    """(squared Frobenius norm, singular values) of each block, in order.

    The singular values are taken once per block, and only when some p != 2
    needs them; any prefix of the list describes the block-diagonal operator
    with those leading blocks (see ``_spectra_norm``)."""
    for p in p_values:
        if not p >= 1:  # NaN too
            raise ValidationError(f"Schatten norm needs p >= 1, got {p}")
    need_sv = any(p != 2 for p in p_values)
    out = []
    for b in blocks:
        b = np.asarray(b, dtype=complex)
        sv = np.linalg.svd(b, compute_uv=False) if need_sv and b.size else np.zeros(0)
        out.append((np.linalg.norm(b) ** 2, sv))
    return out


def _spectra_norm(spectra, p: float) -> float:
    """Schatten p-norm of the block-diagonal operator whose diagonal blocks
    have these ``_block_spectra``: its singular values are the union of the
    blocks' ones, and its Frobenius norm (p = 2) the root of their summed
    squares."""
    if p == 2:  # the Frobenius norm needs no singular values
        return float(np.sqrt(sum(frob2 for frob2, _ in spectra)))
    sv = np.concatenate([np.zeros(0)] + [sv for _, sv in spectra])
    top = sv.max(initial=0.0)
    if top == 0 or np.isinf(p):
        return float(top)
    # scaled by the largest, so that no power underflows to 0 at large p
    return float(top * np.sum((sv / top) ** p) ** (1.0 / p))


def permissive_transform(mats, c: float, shift, dom: DomainSpec) -> list[np.ndarray]:
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
    for mu in koszul.joint_eigenvalues(out):
        if spectral_norm(dom, mu) > 1.0 + BOUNDARY_TOL:
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


def _label_runs(blocks: dict, starts) -> list:
    """The operator with these label blocks (label l from row and column
    starts[l]) as (lo, hi, matrix) for each of the finest runs of labels
    lo .. hi - 1 that no block crosses; it is block-diagonal over them."""
    count = len(starts) - 1
    reach = np.arange(count)  # the highest label a block joins to each label
    for l, k in blocks:
        reach[min(l, k)] = max(reach[min(l, k)], l, k)
    ends = np.flatnonzero(np.maximum.accumulate(reach) == np.arange(count)) + 1
    runs = zip(itertools.chain([0], ends[:-1]), ends)
    return [(lo, hi, _assemble(blocks, starts, lo, hi)) for lo, hi in runs]


def _run_spectra(runs, starts, top: int, p_values):
    """``_block_spectra`` of the block-diagonal operator with these runs
    (``_label_runs``), in full and windowed to the labels <= ``top``: each
    run's singular values are taken once, and the window keeps the runs
    that end by ``top`` whole and cuts the one it ends inside."""
    full = _block_spectra([mat for _, _, mat in runs], p_values)
    whole = sum(hi <= top + 1 for _, hi, _ in runs)
    windowed = full[:whole]
    if whole < len(runs) and runs[whole][0] <= top:
        lo, _, mat = runs[whole]
        cut = starts[top + 1] - starts[lo]
        windowed = windowed + _block_spectra([mat[:cut, :cut]], p_values)
    return full, windowed


def essential_normality_profile(
    model: QuotientModel,
    symbols,
    p_values,
    *,
    family: str = "symbols",
    window: int | None = None,
) -> list[ProfileRow]:
    """Schatten norms of the cross-commutators [S_i, S_j*] on one quotient
    model; the domain, the weight and the truncation degree D are those of
    ``model.basis``.

    The windowed value restricts the commutator to quotient basis vectors
    of degree <= D - w, with w defaulting to one more than the top symbol
    degree; that discards rows and columns polluted by the truncation edge.

    Each symbol is compressed once as label blocks (``_symbol_blocks``), and
    [S_a, S_b*] is formed from them and taken over the runs of labels it is
    block-diagonal on (``_label_runs``).  A commutator whose entries or
    squared Frobenius norm (the p = 2 cell squared) overflow to inf or NaN
    raises :class:`NonFiniteValue`.
    """
    symbols, basis = list(symbols), model.basis
    if not symbols:
        raise ValidationError("need at least one symbol")
    D = basis.max_degree
    w = window if window is not None else max(s.degree() for s in symbols) + 1
    starts, denominators = model.label_starts, {}
    compressed = [_symbol_blocks(model, s, denominators)[1] for s in symbols]
    rows: list[ProfileRow] = []
    for i, j in itertools.combinations_with_replacement(range(len(symbols)), 2):
        # complex products whether the blocks are stored real or complex
        sb = {key[::-1]: np.asarray(v, complex).conj().T for key, v in compressed[j].items()}
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises just below
            comm = dict(_label_commutator(compressed[i], sb))
            squares = sum(np.vdot(c, c).real for c in comm.values())  # also inf at an inf entry
        names = (symbols[i].label(), symbols[j].label())
        if not np.isfinite(squares):
            raise NonFiniteValue(f"commutator [{names[0]}, {names[1]}*] overflows at D {D}")
        full, windowed = _run_spectra(_label_runs(comm, starts), starts, D - w, p_values)
        rows += [
            ProfileRow(
                basis.dom.label(), basis.lam, D, family, *names, float(p),
                _spectra_norm(full, p), _spectra_norm(windowed, p), model.dim_quotient,
            )
            for p in p_values
        ]
    return rows
