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
of M^(D) orth, each vector labelled by a degree, and the compressed tuple
S_i = Q^H T_i Q, both as block entries (rows, cols, stack) of
``blocksparse``: stack[e] sits on the rows rows[e] and the columns
cols[e], and blocks of one shape share one stack.  T_i raises the degree
and T_i* keeps the quotient, so S_i is strictly lower in the labels.  The
submodule is never stored; its invariance is checked from Q alone as
||Q^H T_i - S_i Q^H||_2, which equals ||Q^H T_i M||_2 for any orthonormal
basis M of M^(D).  ``quotient_model`` picks one of two paths from its
generators:

- graded path, when every generator is homogeneous: the submodule is
  graded and the quotient splits as the sum over d of P_d orth M_d, each
  degree further by groups of torus-weight classes (``_graded_model``).
  Every quotient column lies in one degree, its label, and in one group's
  classes.  Q is stored as its class frames, and S_i, which carries each
  group into one group of the next degree, as group-pair blocks
  (``_compress_coordinate``).  An empty generator list is the zero submodule:
  the quotient is the whole space.
- filtration path, when some generator is inhomogeneous (z1^2 + z2, say):
  the complement is built degree by degree, one SVD per degree
  (``_filtration_complement``).  Each quotient basis vector is supported on
  degrees <= its label, the complement at a lower D is the label prefix of
  the one at a higher D, and S_i has every label block l > k.  Q is stored
  by degree and S_i by label pair.

One routine takes both guards on both paths from blocks (``_check_tuple``):
invariance, the defect above against ``INVARIANCE_TOL`` times
max(1, largest ||T_i||_2), and commuting, max ||[S_i, S_j]||_2 against
``koszul.COMMUTE_TOL`` times max(1, largest ||S_i||_2).  ||X||_2 <= ||X||_F
and both scales are at least 1, so each guard takes the Frobenius norm over
all its blocks first; only one above the tolerance assembles the defects
and takes their 2-norms (SVDs) and the scale, so verdicts and messages are
those of the 2-norms.

Multipliers raise the degree, and degrees are orthogonal, so
P_D M_f P_D M_g P_D = P_D M_fg P_D; M^(D) is invariant under the truncated
multipliers, so the quotient's projector drops out between them, and
f -> S_f is an algebra homomorphism: S_f = f(S_1, ..., S_n).  So S_f -
f(0) I is a sum of products of the stored blocks, one chain of
``blocksparse._products`` per term of f, and a commutator is formed from
such entries the same way (``blocksparse._commutator``); f(0) I drops out
of every commutator.  One block-product route serves every symbol.
S_f - f(0) I is strictly lower in the labels, so S_{p/q} = S_p S_q^{-1}
solves X S_q = S_p by block substitution over the labels, with no inverse
(``_rational``), into a dense matrix.  Products match blocks by their
cells, so the two symbols of a commutator share one cell system: where
either is rational, both are cut to the same two cells, the labels that
start before the middle column and the rest (``_halves``).  Moebius symbols mix the
classes, so their compressions and commutators are dense, and their
profiles stay at moderate D.
A profile takes the singular values of [S_a, S_b*] per connected block of
its nonzero pattern (``blocksparse._connected_blocks``), one batched SVD
per block shape, shared by every p and the window
(``blocksparse._block_spectra``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import koszul
from .blocksparse import (
    _block_spectra,
    _by_shape,
    _check_p,
    _commutator,
    _components,
    _connected_blocks,
    _distinct,
    _products,
    _scatter,
    _spectra,
    _spectra_norm,
)
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
    """Matrix of P_D M_f P_D in the orthonormal graded basis, labelled by
    degree, its degree blocks (``_dense_block``) written in place."""
    _check_symbol(basis.dom, f)
    out = np.zeros((basis.dim,) * 2, dtype=complex)
    for k, part in f.homogeneous_parts().items():
        for d in range(basis.max_degree - k + 1):
            out[basis.block_slice(d + k), basis.block_slice(d)] = _dense_block(
                basis, _mult_block(basis, part, d), d, k
            )
    return out


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


@dataclass(frozen=True)
class QuotientModel:
    """Compression of the coordinate multipliers to the quotient M^(D) orth.

    The model holds only the complement Q, whose orthonormal columns are
    sorted by ``degree_labels`` (the labels drive windowed Schatten norms);
    the submodule is ``I - projector()``.  Q and each S_i are stored as
    block entries (rows, cols, stack), blocks of one shape in one stack
    (module notes), real while the generators are:

    - ``frames``, the blocks of Q: rows are positions of the truncated
      space, columns quotient columns.  On the graded path each block is a
      torus-weight class against the columns of its class group
      (``_class_frames``); on the filtration path each is a degree d
      against the columns labelled d or higher.
    - ``tuple_stacks[i]``, the blocks of S_i, on quotient rows and columns.
      On the graded path (every generator homogeneous, or none) each is a
      group pair: S_i carries the columns of one class group of degree d
      into those of one group of degree d + 1, and is zero elsewhere.  On
      the filtration path each is a label pair l > k.

    Blocks that are empty are not stored.  ``quotient_onb``, ``projector``
    and ``tuple_mats`` assemble the dense matrices on each access; the
    profile and the compressions never read them.
    """

    basis: TruncatedBasis
    frames: tuple
    degree_labels: np.ndarray
    tuple_stacks: tuple

    @property
    def tuple_mats(self) -> tuple[np.ndarray, ...]:
        """The compressed tuple S_1 .. S_n as dense dim_quotient x
        dim_quotient matrices, assembled from ``tuple_stacks`` on each
        access (Koszul tests, the boundary calculus and tests)."""
        shape = (self.dim_quotient,) * 2
        return tuple(_scatter(s, shape) for s in self.tuple_stacks)

    @property
    def label_starts(self) -> np.ndarray:
        """The first column of each label 0 .. D, then dim_quotient."""
        return np.searchsorted(self.degree_labels, np.arange(self.basis.max_degree + 2))

    @property
    def dim_quotient(self) -> int:
        return self.degree_labels.size

    @property
    def quotient_onb(self) -> np.ndarray:
        """Q as a dense dim x dim_quotient matrix, assembled from ``frames``
        on each access."""
        return _scatter(self.frames, (self.basis.dim, self.dim_quotient))

    def projector(self) -> np.ndarray:
        """Orthogonal projector of the truncated space onto the quotient."""
        q = self.quotient_onb
        return q @ q.conj().T


def _filtration_complement(basis: TruncatedBasis, generators):
    """The filtration-adapted complement of arbitrary generators' span as a
    pair (start, block) per degree d, block the degree-d rows of Q on the
    columns from start on (those labelled d or higher; Q's degree-d rows
    vanish on the others), and the labels.  B is an orthonormal basis of the
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


def _check_tuple(basis: TruncatedBasis, nq: int, tuple_stacks, residues) -> None:
    """The invariance and commuting guards of the module notes, from the
    block entries of the tuple on ``nq`` quotient columns, Frobenius norm
    first: above the tolerance, the invariance defects are assembled and
    the scale taken only when a 2-norm exceeds it, and the tuple is
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
            dense = np.zeros((nq + 1, basis.dim), dtype=complex)  # row -1 takes the padding
            for rows, cols, values in pieces:
                dense[rows[..., :, None], cols[..., None, :]] = values
            defect = max(defect, float(np.linalg.norm(dense[:-1], 2)))
        if defect > INVARIANCE_TOL and defect > INVARIANCE_TOL * max(
            1.0, _multiplier_scale(basis)
        ):
            raise NumericallySingular(f"truncated submodule not invariant, defect {defect:.2e}")
    squares = sum(
        np.vdot(s, s).real
        for a, b in itertools.combinations(tuple_stacks, 2)
        for _, _, s in _connected_blocks(_commutator(a, b), nq)
    )
    if math.sqrt(squares) > koszul.COMMUTE_TOL:
        koszul.check_commuting([_scatter(s, (nq, nq)) for s in tuple_stacks])


def _class_ids(dom: DomainSpec, d: int) -> np.ndarray:
    """The torus-weight class of each degree-d position, the classes of
    ``_weight_classes(dom, d)`` numbered stack by stack and row by row."""
    stack, row, _ = _class_slots(dom, d).T
    firsts = np.cumsum([0] + [len(s) for s in _weight_classes(dom, d)])
    return firsts[stack] + row


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


def _complement_block(free: np.ndarray, svds, cutoff: float, row_group):
    """The degree-d complement: the basis vectors of the classes no column
    reaches, then each group's left singular vectors past its rank, the
    singular values above ``cutoff``; real when the generator columns are.
    Returns the group (``row_group`` of its positions) that owns each
    column, and the columns as (positions (c, m), values (c, m)) runs: Q_d
    is nonzero on column c only at its positions."""
    kept = [(free[:, None], np.ones((free.size, 1)))]
    for pos, u, s in svds:
        g, j = np.nonzero(np.arange(u.shape[1]) >= np.sum(s > cutoff, axis=1)[:, None])
        kept.append((pos[g], u[g, :, j]))
    return np.concatenate([row_group[pos[:, 0]] for pos, _ in kept]), kept


def _cells(owner: np.ndarray):
    """The cells of the complement's columns, a cell being the columns that
    one class group of one degree owns (``owner``, distinct across
    degrees), ascending.  Per column c, and a padding column nq =
    owner.size after them: its cell's first column (-1 for the padding),
    its cell's width and its rank in its cell, as the rows of one array;
    and the cells' columns, those of the cell with first column f at
    members[where[f]:][:width]."""
    nq = owner.size
    members, starts, counts = _sorted_runs(owner)
    info = np.empty((3, nq + 1), dtype=np.intp)
    info[:, nq] = (-1, 0, 0)
    info[:, members] = np.repeat([members[starts], counts, starts], counts, axis=1)
    info[2, members] = np.arange(nq) - info[2, members]
    where = np.zeros(nq + 1, dtype=np.intp)
    where[members] = np.arange(nq)
    return info, members, where


def _class_frames(dom: DomainSpec, d: int, heads, cells, first: int, columns) -> list:
    """Q_d class by class, for the class-pair products of
    ``_compress_coordinate``.

    Per stack of ``_weight_classes(dom, d)``, a triple (positions (k, s),
    columns (k, W), frame (k, s, W)): the columns of Q that the class's
    group owns, ascending and padded to the stack's widest (at least one)
    with the padding column nq, and Q_d's rows on the class there.
    ``heads`` gives each class's first column (nq when its group owns
    none), and ``columns`` the column runs of ``_complement_block``,
    numbered from ``first``.  Q_d vanishes on a class outside its group's
    columns, and a padded column of a frame is zero."""
    info, members, where = cells
    nq = members.size
    # Q_d's nonzero entries (position, column, value), and where each position sits
    firsts = np.cumsum([first] + [len(pos) for pos, _ in columns])
    col = np.concatenate([
        np.repeat(np.arange(f, f + len(p)), p.shape[1]) for f, (p, _) in zip(firsts, columns)
    ])
    value = np.concatenate([v.ravel() for _, v in columns])
    slot = _class_slots(dom, d)[np.concatenate([p.ravel() for p, _ in columns])]
    frames, at = [], 0
    for k, stack in enumerate(_weight_classes(dom, d)):
        head = heads[at:at + len(stack)]
        at += len(stack)
        width = info[1, head]
        place = np.arange(max(width.max(initial=0), 1))
        valid = place < width[:, None]
        cols = np.full(valid.shape, nq)
        cols[valid] = members[(where[head][:, None] + place)[valid]]
        frame = np.zeros(stack.shape + place.shape, value.dtype)
        on = slot[:, 0] == k
        frame[slot[on, 1], slot[on, 2], info[2, col[on]]] = value[on]
        frames.append((stack, cols, frame))
    return frames


def _graded_complement(basis: TruncatedBasis, generators):
    """The complement Q of homogeneous generators: its class frames per
    degree (``_class_frames``), the cells of its columns (``_cells``) and
    the first column of each degree, then dim_quotient; real when the
    generator columns are.  The rank counts the singular values above
    ``SPAN_RANK_TOL`` times the largest one over every group of every
    degree."""
    parts = [_group_svds(basis, generators, d) for d in range(basis.max_degree + 1)]
    cutoff = SPAN_RANK_TOL * max(
        (s.max() for _, svds, _ in parts for _, _, s in svds if s.size), default=0.0
    )
    blocks = [
        _complement_block(free, svds, cutoff, group[_class_ids(basis.dom, d)])
        for d, (free, svds, group) in enumerate(parts)
    ]
    starts = np.cumsum([0] + [owner.size for owner, _ in blocks])
    # groups are labelled by a class of their degree: number the classes on
    offsets = np.cumsum([0] + [group.size for _, _, group in parts])
    owner = np.concatenate([owner + at for (owner, _), at in zip(blocks, offsets)])
    cells = _cells(owner)
    heads = np.full(offsets[-1], owner.size)
    heads[owner] = cells[0][0, :-1]
    frames = [
        _class_frames(basis.dom, d, heads[at + group], cells, first, columns)
        for d, ((_, _, group), at, first, (_, columns))
        in enumerate(zip(parts, offsets, starts, blocks))
    ]
    return frames, cells, starts


def _adjoint(stack: np.ndarray) -> np.ndarray:
    """The conjugate transpose of every matrix of a stack."""
    return stack.conj().swapaxes(-1, -2)


def _compress_coordinate(basis: TruncatedBasis, i: int, frames, cells):
    """S_i = Q^H T_i Q as group-pair block entries, and the pieces of the
    invariance defect Q^H T_i - S_i Q^H (``_check_tuple``), from the class
    frames and cells of ``_graded_complement``.

    T_i carries class c of degree d into one class tau of degree d + 1, and
    Q vanishes on tau outside the columns of tau's group, so the pair adds
    F_tau^H B F_c to the block of (tau's group, c's group), and the defect
    on c's positions is X - S[tau's columns, c's columns] F_c^H with
    X = F_tau^H B.  The class pairs (``_shift_plan``) lay the blocks out in
    one flat array, those of one shape consecutive; then each degree's
    multiplier blocks are solved, added in and read back for the defect,
    one degree at a time.  The products stay real while the frames are.
    Padded frame columns are zero and land in one spare entry past the
    blocks; their defect rows are zero and get row -1.
    """
    info, members, where = cells
    nq = members.size
    gamma = tuple(int(j == i) for j in range(basis.dom.dim))
    plans = [_shift_plan(basis.dom, gamma, d) for d in range(basis.max_degree)]
    # each class pair's block: (target cell, source cell) by their first columns
    none = [np.zeros(0, np.intp)]
    heads = [
        info[0, np.concatenate(none + [
            frames[d + 1][k][1][rows, 0] for d, plan in enumerate(plans) for (k, rows), _, _ in plan
        ])],
        info[0, np.concatenate(none + [
            frames[d][j][1][cols, 0] for d, plan in enumerate(plans) for _, (j, cols), _ in plan
        ])],
    ]
    stride = nq + 1
    key = heads[0] * stride + heads[1]
    keys = _distinct(key[(heads[0] >= 0) & (heads[1] >= 0)])
    heights, widths = info[1, keys // stride], info[1, keys % stride]
    order, starts, _ = _sorted_runs(heights * (widths.max(initial=0) + 1) + widths)
    sizes = (heights * widths)[order]
    base = np.empty(keys.size, dtype=np.intp)
    base[order] = np.cumsum(sizes) - sizes
    spare = int(sizes.sum())  # the entry past the blocks takes the padding
    flat = np.zeros(spare + 1, np.result_type(float, *(f for fs in frames for _, _, f in fs)))
    # a class pair without a block (a cell without columns) starts at the
    # spare entry, and so does a padding column: every index past it is cut to it
    pair = np.searchsorted(keys, key)
    pair[(heads[0] < 0) | (heads[1] < 0)] = keys.size
    first, width = np.append(base, spare)[pair], np.append(widths, 0)[pair]
    rank = np.append(info[2, :-1], spare)
    offsets = np.cumsum([0] + basis.degree_sizes)
    pieces, at = [], 0
    for d in range(basis.max_degree):
        parts = []
        for (k, rows), (j, cols), block in _shift_block(basis, gamma, d):
            (_, lcols, lframe), (pos, rcols, rframe) = frames[d + 1][k], frames[d][j]
            lcols, rcols, rframe = lcols[rows], rcols[cols], rframe[cols]
            x = _adjoint(lframe[rows]) @ block
            on = slice(at, at + len(rows))
            at += len(rows)
            lead = first[on, None] + width[on, None] * rank[lcols]
            place = np.minimum(lead[:, :, None] + rank[rcols][:, None, :], spare)
            np.add.at(flat, place.ravel(), (x @ rframe).ravel())  # 1-D: numpy's fast path
            parts.append((lcols, offsets[d] + pos[cols], x, rframe, place))
        # the blocks from degree d are complete: the defect on its positions
        for lcols, pos, x, rframe, place in parts:
            residue = x - flat[place] @ _adjoint(rframe)
            if residue.any():  # a zero piece (all of them, for monomial generators) adds nothing
                pieces.append((np.where(lcols < nq, lcols, -1), pos, residue))
    entries = []
    for same in np.split(order, starts[1:]) if keys.size else []:
        m, n = heights[same[0]], widths[same[0]]
        entries.append((
            members[where[keys[same] // stride][:, None] + np.arange(m)],
            members[where[keys[same] % stride][:, None] + np.arange(n)],
            flat[base[same[0]]:base[same[0]] + len(same) * m * n].reshape(len(same), m, n),
        ))
    return tuple(entries), pieces


def _graded_model(basis: TruncatedBasis, generators) -> QuotientModel:
    """Quotient by homogeneous generators: M^(D) and its complement split
    as sums over d of M_d and P_d orth M_d, and each degree further by
    groups of torus-weight classes (``_group_svds``); one SVD per group,
    with the rank counted against the largest singular value over every
    group of every degree, applies the rank rule of one SVD of all columns.
    Without generators no class is reached: the whole space.  Each
    coordinate multiplier shifts degree d to d + 1 and each class into one
    class, so S_i and the invariance defect are taken per class pair, into
    group-pair blocks (``_compress_coordinate``); Q keeps its class frames,
    less the classes whose group owns no column.
    """
    frames, cells, starts = _graded_complement(basis, generators)
    nq = int(starts[-1])
    tuple_stacks, residues = zip(*(
        _compress_coordinate(basis, i, frames, cells) for i in range(basis.dom.dim)
    ))
    _check_tuple(basis, nq, tuple_stacks, residues)
    offsets, stored = np.cumsum([0] + basis.degree_sizes), []
    for d, classes in enumerate(frames):
        for pos, cols, frame in classes:
            width = np.sum(cols < nq, axis=1)  # the padding comes last
            for w in _distinct(width[width > 0]):
                on = width == w
                stored.append((offsets[d] + pos[on], cols[on, :w], frame[on, :, :w]))
    labels = np.repeat(np.arange(len(frames)), np.diff(starts))
    return QuotientModel(basis, _by_shape(stored), labels, tuple_stacks)


def _filtration_model(basis: TruncatedBasis, generators) -> QuotientModel:
    """Quotient by arbitrary generators through the filtration-adapted
    complement; the only path for inhomogeneous generators.

    S_i sums X_d Q_d, X_d = Q_{d+1}^H T_i(d), over d, in the field of Q (real
    while the generators are, ``_filtration_complement``), and keeps the
    label blocks l > k only: the others are exactly 0, and rounding residues
    there would close the nilpotent S_i into cycles.  The invariance defect
    of the kept tuple is X_d - S_i Q_d^H on the degree-d positions (its rows
    labelled d or lower vanish).  Q is stored by degree, S_i by label pair.
    """
    blocks, labels = _filtration_complement(basis, generators)
    nq = labels.size
    starts = [start for start, _ in blocks] + [nq]
    spans = [np.arange(starts[l], starts[l + 1])[None] for l in range(len(blocks))]
    tuple_stacks, residues = [], []
    for i in range(basis.dom.dim):
        s, products = np.zeros((nq, nq), np.result_type(*(q for _, q in blocks))), []
        for d, pairs in enumerate(_coordinate_blocks(basis, i)):
            (lstart, q1), (rstart, q0) = blocks[d + 1], blocks[d]
            x = q1.conj().T @ _dense_block(basis, pairs, d, 1)
            s[lstart:, rstart:] += x @ q0
            products.append(x)
        s *= labels[:, None] > labels[None, :]  # only the blocks l > k are kept
        tuple_stacks.append(_by_shape(
            (spans[l], spans[k], s[starts[l]:starts[l + 1], starts[k]:starts[k + 1]][None].copy())
            for l in range(len(blocks)) for k in range(l)
        ))
        residues.append([
            (
                np.arange(starts[d + 1], nq),
                basis.offset(d) + np.arange(basis.degree_sizes[d]),
                x - s[starts[d + 1]:, start:] @ q.conj().T,
            )
            for d, (x, (start, q)) in enumerate(zip(products, blocks))
        ])
    _check_tuple(basis, nq, tuple_stacks, residues)
    frames = _by_shape(
        (basis.offset(d) + np.arange(q.shape[0])[None], start + np.arange(q.shape[1])[None], q[None])
        for d, (start, q) in enumerate(blocks)
    )
    return QuotientModel(basis, frames, labels, tuple(tuple_stacks))


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


def _polynomial_entries(model: QuotientModel, f: Polynomial):
    """(f(0), the block entries of S_f - f(0) I): S_f = f(S_1, ..., S_n)
    (module notes), each S^alpha the chained products of the stored
    ``tuple_stacks`` (``blocksparse._products``), S_i taken alpha_i
    times, from the left, and each term c S^alpha real while c is.  The
    entries lie on the model's cells; entries on one pair of cells, of one
    term or of different terms, are not summed."""
    _check_symbol(model.basis.dom, f)
    out = []
    for alpha, c in f.terms.items():
        if any(alpha):  # the constant term is f(0) I
            factors = [model.tuple_stacks[i] for i, a in enumerate(alpha) for _ in range(a)]
            power = functools.reduce(_products, factors)
            out += [(rows, cols, (c.real if c.imag == 0 else c) * stack) for rows, cols, stack in power]
    return f.terms.get((0,) * f.nvars, 0.0), out


def _dense(model: QuotientModel, entries) -> np.ndarray:
    """The dense matrix that block entries on the quotient sum to
    (``blocksparse._connected_blocks``)."""
    nq = model.dim_quotient
    return _scatter(_connected_blocks(entries, nq), (nq, nq))


def _halves(model: QuotientModel, matrix: np.ndarray) -> tuple:
    """A strictly lower quotient matrix as block entries on two cells: the
    columns of the labels that start before the middle column, and the
    rest.  The block on the first cell's rows and the second's columns is
    zero and left out, and with it about a quarter of the multiplications
    of a dense product.  Real when every entry is (``koszul._in_field``)."""
    starts = model.label_starts
    m = starts[np.searchsorted(starts, starts[-1] / 2)]
    low, high = np.arange(m)[None], np.arange(m, starts[-1])[None]
    blocks = koszul._in_field([matrix[:m, :m], matrix[m:, :m], matrix[m:, m:]])
    return _by_shape(
        (rows, cols, b[None]) for (rows, cols), b in zip(((low, low), (high, low), (high, high)), blocks)
    )


def compress(model: QuotientModel, f: Polynomial) -> np.ndarray:
    """S_f = P M_f P restricted to the quotient: f(S_1, ..., S_n)."""
    f0, entries = _polynomial_entries(model, f)
    return _dense(model, entries) + f0 * np.eye(model.dim_quotient)


@functools.lru_cache(maxsize=None)
def _denominator_samples(dom: DomainSpec) -> np.ndarray:
    """The ``DENOMINATOR_SAMPLES`` closed-domain points drawn from the fixed
    seed ``DENOMINATOR_SEED``, drawn once per domain and read-only."""
    pts = closed_domain_samples(dom, DENOMINATOR_SAMPLES, Stream(DENOMINATOR_SEED))
    pts.flags.writeable = False
    return pts


def _denominator(model: QuotientModel, q: Polynomial):
    """(q(0), the dense S_q - q(0) I), after the guards of
    ``compress_rational``."""
    values = np.abs(q.eval_batch(_denominator_samples(model.basis.dom)))
    if values.size and values.min() < DENOMINATOR_MARGIN:
        raise DenominatorVanishes(
            f"denominator modulus drops to {values.min():.2e} on the closed domain"
        )
    q0, entries = _polynomial_entries(model, q)
    low = _dense(model, entries)
    if not model.dim_quotient:
        return 1.0, low  # the empty S_q: nothing to invert
    # real S_q (real q) takes a real SVD: only this guard reads its values
    (s_q,) = koszul._in_field([low + q0 * np.eye(model.dim_quotient)])
    sv = np.linalg.svd(s_q, compute_uv=False)
    if sv[-1] == 0 or sv[0] / sv[-1] > CONDITION_CUTOFF:
        raise NumericallySingular(
            "compressed denominator condition number exceeds cutoff"
        )
    return q0, low


def _rational(model: QuotientModel, p: Polynomial, q: Polynomial, q0, low: np.ndarray):
    """(x0, the dense Z = X - x0 I) for X = S_p S_q^{-1}, given
    S_q = q0 I + M (``_denominator``).

    M is strictly lower in the labels, so X is lower with diagonal
    x0 = p(0) / q0, and X S_q = S_p says Z (q0 I + M) = S_p - x0 S_q =
    S_{p - x0 q}, strictly lower too.  Block substitution over the label
    columns, the last first, overwrites the right side with Z, whose rows
    labelled k or lower vanish on the label-k columns:
    Z[> k, k] = (S_{p - x0 q}[> k, k] - Z[> k, > k] M[> k, k]) / q0."""
    starts = model.label_starts
    x0 = p.terms.get((0,) * p.nvars, 0.0) / q0
    z = _dense(model, _polynomial_entries(model, p - q * x0)[1])
    for k in reversed(range(len(starts) - 1)):
        cols, below = slice(starts[k], starts[k + 1]), slice(starts[k + 1], None)
        rows = starts[k + 1] + np.flatnonzero(low[below, cols].any(axis=1))  # where M[> k, k] is not zero
        z[below, cols] = (z[below, cols] - z[below, rows] @ low[rows, cols]) / q0
    return x0, z


def compress_rational(model: QuotientModel, p: Polynomial, q: Polynomial) -> np.ndarray:
    """S_{p/q} = S_p (S_q)^{-1}.

    The denominator must stay away from zero on the closed domain and S_q
    must be invertible with condition number below ``CONDITION_CUTOFF``.
    The lower bound on |q| is the minimum over the domain's
    ``_denominator_samples`` (evaluated in one batch) and must be at least
    ``DENOMINATOR_MARGIN``.  No inverse is formed: X S_q = S_p is solved by
    block substitution over the labels (``_rational``).
    """
    x0, z = _rational(model, p, q, *_denominator(model, q))
    return z + x0 * np.eye(model.dim_quotient)


def _symbol_matrix(model: QuotientModel, symbol, denominators: dict) -> np.ndarray:
    """The dense S_f - f(0) I of a polynomial or rational symbol f; each
    distinct denominator is compressed and guarded once per
    ``denominators``."""
    if not isinstance(symbol, RationalSymbol):
        return _dense(model, _polynomial_entries(model, symbol)[1])
    key = frozenset(symbol.q.terms.items())
    if key not in denominators:
        denominators[key] = _denominator(model, symbol.q)
    return _rational(model, symbol.p, symbol.q, *denominators[key])[1]


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
    be inf, must be >= 1.  A NaN or infinite entry raises
    :class:`ValidationError`."""
    _check_p([p])
    x = np.asarray(x, dtype=complex)
    if not np.isfinite(x).all():
        raise ValidationError("matrix has a NaN or infinite entry")
    frob2, sv = _spectra(x[None], p != 2)
    return _spectra_norm([(frob2.sum(), sv.ravel())], p)


def permissive_transform(mats, c: float, shift, dom: DomainSpec) -> list[np.ndarray]:
    """Affine reparametrization T -> c T + shift of a commuting tuple.

    Permissive means the transformed joint eigenvalues stay in the closed
    domain; otherwise :class:`NotPermissive` is raised.  The tuple must be
    nonempty, of square matrices of one size with finite entries
    (``koszul._as_tuple``); the transformed tuple is complex.
    """
    if c <= 0:
        raise ValidationError("scale c must be positive")
    mats = [m.astype(complex) for m in koszul._as_tuple(mats)]
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

    Each polynomial symbol is the block entries of products of the stored
    blocks (``_polynomial_entries``), on the model's cells.  When any symbol
    is rational, every symbol is also compressed to a dense matrix and cut
    to two cells (``_halves``), and the commutators that a rational symbol
    enters are formed from those.  Every commutator is formed block by block
    (``blocksparse._commutator``) and taken over the connected blocks of
    its pattern (``blocksparse._connected_blocks``).  A commutator whose
    entries or squared Frobenius norm (the p = 2 cell squared) overflow to
    inf or NaN raises :class:`NonFiniteValue`.
    """
    symbols, basis = list(symbols), model.basis
    if not symbols:
        raise ValidationError("need at least one symbol")
    _check_p(p_values)
    D, nq = basis.max_degree, model.dim_quotient
    w = window if window is not None else max(s.degree() for s in symbols) + 1
    cells = [None if isinstance(s, RationalSymbol) else _polynomial_entries(model, s)[1] for s in symbols]
    if any(c is None for c in cells):
        denominators: dict = {}
        halves = [_halves(model, _symbol_matrix(model, s, denominators)) for s in symbols]
    rows: list[ProfileRow] = []
    for i, j in itertools.combinations_with_replacement(range(len(symbols)), 2):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises just below
            a, b = (halves[i], halves[j]) if cells[i] is None or cells[j] is None else (cells[i], cells[j])
            comm = _commutator(a, [(c, r, _adjoint(s)) for r, c, s in b])
            blocks = _connected_blocks(comm, nq)
            squares = sum(np.vdot(s, s).real for _, _, s in blocks)  # also inf at an inf entry
        names = (symbols[i].label(), symbols[j].label())
        if not np.isfinite(squares):
            raise NonFiniteValue(f"commutator [{names[0]}, {names[1]}*] overflows at D {D}")
        full, windowed = _block_spectra(blocks, model.degree_labels, D - w, p_values)
        del comm, blocks  # a dense Moebius commutator is freed before the next one is formed
        rows += [
            ProfileRow(
                basis.dom.label(), basis.lam, D, family, *names, float(p),
                _spectra_norm(full, p), _spectra_norm(windowed, p), nq,
            )
            for p in p_values
        ]
    return rows
