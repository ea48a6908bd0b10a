"""Truncated multiplication operators, polynomial submodules and their
quotient compressions.

Everything acts on the degree-<= D orthonormal basis of a continuous-weight
kernel space.  z^gamma maps degree d to degree d + |gamma| and carries each
torus-weight class into one class, so P_D M_f P_D is held as class-pair
blocks (``_shift_block``, ``_mult_block``), one small block per
(destination class, source class); ``_dense_block`` assembles a dense
degree block from them for the public ``mult_op``, and no dense dim x dim
product is formed.  The submodule generated by f_1, ..., f_m is the span of
the ranges of the P_D M_{f_j} P_D, which keeps it exactly invariant under
the truncated coordinate multipliers, so the compressed tuple commutes in
exact arithmetic for every generator set.  A model holds only the complement: an orthonormal basis Q
of M^(D) orth, each vector labelled by a degree, and the compressed tuple
S_i = Q^H T_i Q, both as block entries (rows, cols, stack) of
``blocksparse``: stack[e] sits on the rows rows[e] and the columns
cols[e], and blocks of one shape share one stack.  T_i raises the degree
and T_i* keeps the quotient, so S_i is strictly lower in the labels.  The
submodule is never stored; its invariance is checked from Q alone as
||Q^H T_i - S_i Q^H||_2, which equals ||Q^H T_i M||_2 for any orthonormal
basis M of M^(D).

``quotient_model`` is one build for every generator set.  The complement is
built degree by degree: the label-k columns span the degree-<= k
polynomials orthogonal to the degree-<= k rows of the generator columns, so
each is supported on degrees <= its label, and the complement at a lower D
is the label prefix of the one at a higher D.  The lambda inner product is
invariant under the torus, so its weight classes are orthogonal, and the
generator columns and rows of degree <= k are block-diagonal by group: the
classes that one column reaches, joined (``_group_svds``).  So each degree
takes one SVD per group, of the group's carried coordinates over its
degree-k rows, batched by shape (``_complement``).  A homogeneous generator
reaches one degree per column, so each group lies in one degree and carries
nothing: the quotient splits as the sum over d of P_d orth M_d, group by
group.  An inhomogeneous one (z1 - z2^2, say) joins classes of several
degrees.  A cell is the columns of one group at one label; Q is stored as
class frames, and S_i, which carries each group into one group of the next
degree, as cell-pair blocks (``_compress_coordinate``).  An empty generator
list is the zero submodule: the quotient is the whole space.

One routine takes both guards from blocks (``_check_tuple``):
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


@dataclass(frozen=True, eq=False)
class QuotientModel:
    """Compression of the coordinate multipliers to the quotient M^(D) orth.

    The model holds only the complement Q, whose orthonormal columns are
    sorted by ``degree_labels`` (the labels drive windowed Schatten norms);
    the submodule is ``I - projector()``.  Q and each S_i are stored as
    block entries (rows, cols, stack), blocks of one shape in one stack
    (module notes), real while the generators are:

    - ``frames``, the blocks of Q: rows are positions of the truncated
      space, columns quotient columns.  Each block is one torus-weight
      class against the columns of every cell whose group holds it
      (``_class_frames``): for homogeneous generators, one cell of the
      class's degree; for inhomogeneous ones, cells of that degree or
      higher.
    - ``tuple_stacks[i]``, the blocks of S_i, on quotient rows and columns.
      Each is a cell pair: S_i carries the columns of one group into those
      of groups of higher labels (for homogeneous generators, one group of
      the next degree), and is zero elsewhere.

    The model is compared by identity (``eq=False``): its fields are
    arrays.
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


def _multiplier_scale(basis: TruncatedBasis) -> float:
    """Largest ||T_i||_2 over the truncated coordinate multipliers: the
    largest class-pair block norm (``_shift_block``, ``_pair_norm``) of any
    coordinate z_i from any degree d to d + 1."""
    n = basis.dom.dim
    return max((
        _pair_norm(_shift_block(basis, tuple(int(j == i) for j in range(n)), d))
        for i in range(n) for d in range(basis.max_degree)
    ), default=0.0)


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


def _block_diagonal(mats) -> np.ndarray:
    """The block-diagonal matrix of ``mats``, in their order."""
    out = np.zeros(tuple(np.sum([m.shape for m in mats], axis=0)), np.result_type(*mats))
    r = c = 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


@dataclass(eq=False)
class _Run:
    """The columns P_D M_f P_D z^p of one generator f on the degree-``source``
    monomials p: its degree-j part carries p into degree source + j, the
    last of them into degree ``last``.  ``groups`` and ``slots`` give each
    column's group and its place among the group's columns, once it has
    entered."""

    parts: dict
    source: int
    last: int
    groups: np.ndarray | None = None
    slots: np.ndarray | None = None


def _group_svds(basis: TruncatedBasis, runs: list, states: dict, k: int, first: int, offset: int):
    """Degree k of the complement: the groups of torus-weight classes, and
    one full SVD per group, batched by shape.

    Each run (``_Run``) enters the columns of one generator.  z^gamma
    carries class mu into class mu + wt(gamma), so a column's rows of
    degree <= k lie in the classes that the terms of f of degree
    <= k - source carry p's class to.  Classes that share such a column form a group,
    the columns and the rows of degree <= k are block-diagonal by group,
    and a group grows with k; it is labelled by its smallest class
    (classes and positions numbered degree by degree, degree k's from
    ``first`` and ``offset``).  ``states`` maps each group that later
    degrees may still reach to (positions, B, Y, last): B an orthonormal
    basis on its positions of the span of its columns' rows, Y = B^H C
    their coordinates, and last the highest degree its columns reach.

    Each group's matrix stacks its carried Y (block-diagonal over the
    groups that degree k joins, zero on the columns entering now) over its
    degree-k rows, filled straight from the class-pair blocks
    (``_mult_block``).  The runs are updated and the joined states popped.
    Returns the degree-k positions of the classes that no column reaches,
    and per stack of groups of one shape (r carried rows over m degree-k
    rows, n columns, P carried positions): the groups' labels, their
    positions (g, P + m), their left singular vectors lifted through
    diag(B, I) (g, P + m, r + m), their singular values and V^H, and their
    last degrees.
    """
    dom = basis.dom
    cls = _class_ids(dom, k)
    empty = [np.zeros(0, dtype=np.intp)]
    reach = [(run, run.parts[k - run.source]) for run in runs if k - run.source in run.parts]
    # hit[t, p]: the degree-k class that term t carries source p into
    hits = [
        cls[np.array([_shift_positions(dom.dim, run.source, gamma) for gamma in part.terms])]
        for run, part in reach
    ]
    # the nodes: the groups that reach degree k, then the degree-k classes
    old = _distinct(np.concatenate(empty + [run.groups for run, _ in reach if run.groups is not None]))
    tails = [
        old.size + hit[0] if run.groups is None else np.searchsorted(old, run.groups)
        for (run, _), hit in zip(reach, hits)
    ]
    ncls = sum(len(s) for s in _weight_classes(dom, k))
    label = np.concatenate([old, first + np.arange(ncls)])[_components(
        old.size + ncls,
        np.concatenate(empty + [np.broadcast_to(t, hit.shape).ravel() for t, hit in zip(tails, hits)]),
        np.concatenate(empty + [old.size + hit.ravel() for hit in hits]),
    )]
    reached = np.zeros(ncls, dtype=bool)
    reached[np.concatenate(empty + [hit.ravel() for hit in hits])] = True
    rows = np.flatnonzero(reached[cls])
    by_group, row_starts, heights = _sorted_runs(label[old.size + cls[rows]])
    rows = rows[by_group]
    groups = label[old.size + cls[rows[row_starts]]]
    # the joined states, each group's in label order, and where each old
    # group's columns start among its new group's
    joined: dict = {}
    shift = np.zeros(old.size, dtype=np.intp)
    for a, b in enumerate(np.searchsorted(groups, label[:old.size])):
        shift[a] = sum(state[2].shape[1] for state in joined.get(b, []))
        joined.setdefault(b, []).append(states.pop(int(old[a])))
    for run in runs:
        if run.groups is not None and old.size:
            a = np.minimum(np.searchsorted(old, run.groups), old.size - 1)
            moved = old[a] == run.groups
            run.slots = np.where(moved, run.slots + shift[a], run.slots)
            run.groups = np.where(moved, label[a], run.groups)
    r, size, n, last = (np.zeros(groups.size, dtype=np.intp) for _ in range(4))
    carried = {}
    for b, js in joined.items():
        carried[b] = (np.concatenate([s[0] for s in js]), *map(_block_diagonal, zip(*(s[1:3] for s in js))))
        size[b], r[b], n[b] = carried[b][1].shape + carried[b][2].shape[1:]
        last[b] = max(s[3] for s in js)
    # the columns entering now come after the carried ones, in run order
    fresh = [(run, hit) for (run, _), hit in zip(reach, hits) if run.groups is None]
    col_group = np.concatenate(empty + [label[old.size + hit[0]] for _, hit in fresh])
    order, col_starts, widths = _sorted_runs(col_group)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - np.repeat(col_starts, widths)
    slot = n[np.searchsorted(groups, col_group)] + rank
    n[np.searchsorted(groups, col_group[order[col_starts]])] += widths
    at = 0
    for run, hit in fresh:
        run.groups, run.slots = col_group[at:at + hit.shape[1]], slot[at:at + hit.shape[1]]
        at += hit.shape[1]
        np.maximum.at(last, np.searchsorted(groups, run.groups), run.last)
    stacks = []
    if rows.size:
        # entry (position p, column c) of its group's matrix sits at
        # flat[at_row[p] + slot of c], groups of one shape consecutive
        h = r + heights
        order = np.lexsort((n, heights, size, r))
        area = (h * n)[order]
        base = np.empty(groups.size, dtype=np.intp)
        base[order] = np.cumsum(area) - area
        of = np.repeat(np.arange(groups.size), heights)
        at_row = np.zeros(cls.size, dtype=np.intp)
        at_row[rows] = base[of] + n[of] * (r[of] + np.arange(rows.size) - np.repeat(row_starts, heights))
        columns = [(run, _mult_block(basis, part, run.source)) for run, part in reach]
        flat = np.zeros(int(area.sum()), np.result_type(
            float, *(b for _, pairs in columns for _, _, b in pairs), *(c[2] for c in carried.values())
        ))
        for b, (_, _, y) in carried.items():
            flat[base[b]:base[b] + h[b] * n[b]].reshape(h[b], n[b])[:r[b], :y.shape[1]] = y
        targets = _weight_classes(dom, k)
        for run, pairs in columns:
            sources = _weight_classes(dom, run.source)
            for (t, trows), (j, srows), block in pairs:
                at = run.slots[sources[j][srows]]
                flat[at_row[targets[t][trows]][:, :, None] + at[:, None, :]] += block
        keys = np.stack([r, size, heights, n])[:, order]
        starts = np.flatnonzero(np.append(True, np.any(keys[:, 1:] != keys[:, :-1], axis=0)))
        for same in np.split(order, starts[1:]):
            b = same[0]
            mats = flat[base[b]:base[b] + len(same) * h[b] * n[b]].reshape(len(same), h[b], n[b])
            u, s, vh = np.linalg.svd(mats, full_matrices=True)
            pos = offset + rows[row_starts[same][:, None] + np.arange(heights[b])]
            if size[b]:  # lift through diag(B, I)
                span = np.stack([carried[a][1] for a in same])
                pos = np.concatenate([np.stack([carried[a][0] for a in same]), pos], axis=1)
                u = np.concatenate([span @ u[:, :r[b]], u[:, r[b]:]], axis=1)
            stacks.append((groups[same], pos, u, s, vh, last[same]))
    return np.flatnonzero(~reached[cls]), stacks


def _complement(basis: TruncatedBasis, generators):
    """The complement Q of the generators' span, built degree by degree and
    split by group (``_group_svds``): its class frames (``_class_frames``),
    the cells of its columns (``_cells``) and its labels; real when the
    generator columns are.

    Per group, the left singular vectors past the rank are its label-k
    columns, those up to the rank the next B, and Sigma V^H the next Y.
    The rank counts the singular values above ``SPAN_RANK_TOL`` times the
    largest of degree k over every group, the rank rule of one SVD of the
    block-diagonal whole.  A class that no column reaches keeps its basis
    vectors.  Each quotient column is supported on degrees <= its label,
    and degree k sees only the columns and rows that reach it, the same at
    every D, so the complement at a lower D is the label prefix of the one
    at a higher D.  A cell is the columns of one group at one label.
    """
    dom, top = basis.dom, basis.max_degree
    parts = [f.homogeneous_parts() for f in generators]
    firsts = np.cumsum([0] + [sum(len(s) for s in _weight_classes(dom, d)) for d in range(top + 1)])
    offsets = np.cumsum([0] + basis.degree_sizes)
    runs, states, pieces, owners, counts = [], {}, [], [], []
    for k in range(top + 1):
        runs += [_Run(p, k - min(p), k - min(p) + max(p)) for p in parts if min(p) <= k]
        free, stacks = _group_svds(basis, runs, states, k, firsts[k], offsets[k])
        cutoff = SPAN_RANK_TOL * max((s.max() for *_, s, _, _ in stacks if s.size), default=0.0)
        pieces.append((offsets[k] + free[:, None], np.ones((free.size, 1))))
        owner = [firsts[k] + _class_ids(dom, k)[free]]
        for groups, pos, lifted, s, vh, last in stacks:
            kept = np.sum(s > cutoff, axis=1)
            g, j = np.nonzero(np.arange(lifted.shape[2]) >= kept[:, None])
            pieces.append((pos[g], lifted[g, :, j]))
            owner.append(groups[g])
            for a in np.flatnonzero(last > k):
                states[int(groups[a])] = (
                    pos[a], lifted[a, :, :kept[a]], s[a, :kept[a], None] * vh[a, :kept[a]], last[a]
                )
        runs = [run for run in runs if run.last > k]
        owners.append(k * firsts[-1] + np.concatenate(owner))  # distinct across labels
        counts.append(owners[-1].size)
    nq = sum(counts)
    starts = np.cumsum([0] + [len(p) for p, _ in pieces])
    col = np.concatenate([
        np.repeat(np.arange(f, f + len(p)), p.shape[1]) for f, (p, _) in zip(starts, pieces)
    ])
    frames = _class_frames(
        basis, firsts, offsets, np.concatenate([p.ravel() for p, _ in pieces]), col,
        np.concatenate([v.ravel() for _, v in pieces]), nq,
    )
    return frames, _cells(np.concatenate(owners)), np.repeat(np.arange(top + 1), counts)


def _cells(owner: np.ndarray):
    """The cells of the complement's columns, a cell being the columns that
    one group owns at one label (``owner``, distinct across labels),
    ascending.  Per column c, and a padding column nq =
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


def _class_frames(basis: TruncatedBasis, firsts, offsets, pos, col, value, nq: int) -> list:
    """Q class by class, for the class-pair products of
    ``_compress_coordinate``, from its entries (position, column, value)
    and the first class and position of each degree.

    Per degree d and stack of ``_weight_classes(dom, d)``, a triple
    (positions (k, s), columns (k, W), frame (k, s, W)): the columns of Q
    that hold entries on the class, those of every cell whose group holds
    it, ascending and padded to the stack's widest (at least one) with the
    padding column nq, and Q's rows on the class there.  Q vanishes on a
    class outside these columns, and a padded column of a frame is zero."""
    dom = basis.dom
    cls = np.concatenate([at + _class_ids(dom, d) for d, at in enumerate(firsts[:-1])])[pos]
    order = np.argsort(cls * (nq + 1) + col, kind="stable")
    cls, pos, col, value = cls[order], pos[order], col[order], value[order]
    new = np.ones(cls.size, dtype=bool)
    new[1:] = (cls[1:] != cls[:-1]) | (col[1:] != col[:-1])
    # each class's distinct columns, ascending, from pair_start[class] on
    pair_start = np.searchsorted(cls[new], np.arange(firsts[-1] + 1))
    rank = np.cumsum(new) - 1 - pair_start[cls]
    width, pair_col = np.diff(pair_start), col[new]
    frames = []
    for d, (lo, hi) in enumerate(zip(*np.searchsorted(cls, [firsts[:-1], firsts[1:]]))):
        stack, row, at = _class_slots(dom, d)[pos[lo:hi] - offsets[d]].T
        classes, ids = [], firsts[d]
        for k, members in enumerate(_weight_classes(dom, d)):
            w = width[ids:ids + len(members)]
            place = np.arange(max(w.max(initial=0), 1))
            valid = place < w[:, None]
            cols = np.full(valid.shape, nq)
            cols[valid] = pair_col[(pair_start[ids:ids + len(members), None] + place)[valid]]
            frame = np.zeros(members.shape + place.shape, value.dtype)
            on = stack == k
            frame[row[on], at[on], rank[lo:hi][on]] = value[lo:hi][on]
            classes.append((members, cols, frame))
            ids += len(members)
        frames.append(classes)
    return frames


def _adjoint(stack: np.ndarray) -> np.ndarray:
    """The conjugate transpose of every matrix of a stack."""
    return stack.conj().swapaxes(-1, -2)


def _compress_coordinate(basis: TruncatedBasis, i: int, frames, cells, labels):
    """S_i = Q^H T_i Q as cell-pair block entries, and the pieces of the
    invariance defect Q^H T_i - S_i Q^H (``_check_tuple``), from the class
    frames, cells and labels of ``_complement``.

    T_i carries class c of degree d into one class tau of degree d + 1,
    and Q vanishes on tau outside the columns of tau's frame, so the pair
    adds F_tau^H B F_c to the blocks of (tau's cells, c's cells).  T_i
    carries a group into one group of the next degree, and groups only
    grow, so S_i carries c's columns into tau's, and the defect on c's
    positions is X - S[tau's columns, c's columns] F_c^H with X = F_tau^H
    B.  Only the entries whose row label exceeds their column label are
    kept: the others are exactly 0, and rounding residues there would
    close the nilpotent S_i into cycles.  The class pairs
    (``_shift_plan``) lay the blocks out in one flat array, those of one
    shape consecutive; then each degree's multiplier blocks are solved and
    added in, and a pair's defect is read once the blocks it reads are
    complete, after the degree of the highest label among c's columns.
    The products stay real while the frames are.  Padded frame columns and
    the cut entries land in one spare entry past the blocks, which is
    zeroed before the defect reads it; padded defect rows get row -1.
    """
    info, members, where = cells
    nq, top = members.size, basis.max_degree
    gamma = tuple(int(j == i) for j in range(basis.dom.dim))
    # entry (row l, column c) lies in the block keyed head(l) stride + head(c)
    # and is kept when l is past the last column of c's label; a padding
    # column or a cut entry gets the key ``never``, past every block's
    stride = nq + 1
    never = stride * stride
    row_key, col_key = np.append(info[0, :-1] * stride, never), np.append(info[0, :-1], never)
    after = np.append(np.searchsorted(labels, labels, side="right"), 0)
    pairs, found = [], [np.zeros(0, dtype=np.intp)]
    for d in range(top):
        degree = []
        for (k, rows), (j, cols), _ in _shift_plan(basis.dom, gamma, d):
            lcols, rcols = frames[d + 1][k][1][rows], frames[d][j][1][cols]
            key = row_key[lcols][:, :, None] + col_key[rcols][:, None, :]
            key[lcols[:, :, None] < after[rcols][:, None, :]] = never
            pairs.append((lcols, rcols, key))
            degree.append(key[key < never])
        found.append(_distinct(np.concatenate(found[:1] + degree)))
    keys = _distinct(np.concatenate(found))
    heights, widths = info[1, keys // stride], info[1, keys % stride]
    order, starts, _ = _sorted_runs(heights * (widths.max(initial=0) + 1) + widths)
    sizes = (heights * widths)[order]
    base = np.empty(keys.size, dtype=np.intp)
    base[order] = np.cumsum(sizes) - sizes
    spare = int(sizes.sum())  # the entry past the blocks
    flat = np.zeros(spare + 1, np.result_type(float, *(f for fs in frames for _, _, f in fs)))
    # an entry without a block starts at the spare entry, and so does a
    # padding column: every index past it is cut to it
    first, step = np.append(base, spare), np.append(widths, 0)
    rank = np.append(info[2, :-1], spare)
    label = np.append(labels, -1)
    offsets = np.cumsum([0] + basis.degree_sizes)
    pieces, pending, at = [], [], 0  # at: the class pairs so far
    for d in range(top):
        for (k, rows), (j, cols), block in _shift_block(basis, gamma, d):
            (lcols, rcols, key), pairs[at] = pairs[at], None  # the keys are freed as they are read
            pair = np.searchsorted(keys, key)
            at += 1
            rframe = frames[d][j][2][cols]
            x = _adjoint(frames[d + 1][k][2][rows]) @ block
            place = np.minimum(
                first[pair] + step[pair] * rank[lcols][:, :, None] + rank[rcols][:, None, :],
                spare,
            )
            np.add.at(flat, place.ravel(), (x @ rframe).ravel())  # 1-D: numpy's fast path
            pending.append((label[rcols].max(), lcols, (d, j, cols), x, rframe, place))
        # the blocks of the columns labelled d or lower are complete
        flat[spare] = 0.0
        done = d if d + 1 < top else top
        for _, lcols, (e, j, cols), x, rframe, place in (part for part in pending if part[0] <= done):
            residue = x - flat[place] @ _adjoint(rframe)
            if residue.any():  # a zero piece (all of them, for monomial generators) adds nothing
                pieces.append((np.where(lcols < nq, lcols, -1), offsets[e] + frames[e][j][0][cols], residue))
        pending = [part for part in pending if part[0] > done]
    entries = []
    for same in np.split(order, starts[1:]) if keys.size else []:
        m, n = heights[same[0]], widths[same[0]]
        entries.append((
            members[where[keys[same] // stride][:, None] + np.arange(m)],
            members[where[keys[same] % stride][:, None] + np.arange(n)],
            flat[base[same[0]]:base[same[0]] + len(same) * m * n].reshape(len(same), m, n),
        ))
    return tuple(entries), pieces


def quotient_model(basis: TruncatedBasis, generators) -> QuotientModel:
    """Quotient module model: projector onto M^(D) orth and compressed tuple.

    One build serves every generator set (module notes): the complement
    degree by degree, split by group of torus-weight classes
    (``_complement``), and S_i per class pair into cell-pair blocks
    (``_compress_coordinate``).  An empty generator list is the zero
    submodule, whose quotient is the whole space.  The model asserts the
    two structural identities that hold in exact arithmetic: M^(D) is
    invariant under the truncated multipliers (defect <= 1e-12) and the
    compressed coordinates commute (defect <= 1e-10).  Q keeps its class
    frames, less the classes that no column holds.
    """
    generators = tuple(generators)
    _check_generators(basis, generators)
    frames, cells, labels = _complement(basis, generators)
    nq = labels.size
    tuple_stacks, residues = zip(*(
        _compress_coordinate(basis, i, frames, cells, labels) for i in range(basis.dom.dim)
    ))
    _check_tuple(basis, nq, tuple_stacks, residues)
    offsets, stored = np.cumsum([0] + basis.degree_sizes), []
    for d, classes in enumerate(frames):
        for pos, cols, frame in classes:
            width = np.sum(cols < nq, axis=1)  # the padding comes last
            for w in _distinct(width[width > 0]):
                on = width == w
                stored.append((offsets[d] + pos[on], cols[on, :w], frame[on, :, :w]))
    return QuotientModel(basis, _by_shape(stored), labels, tuple_stacks)


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
