"""Block-sparse operators: sums of dense blocks on index sets.

An operator is a list of block entries (rows, cols, stack): stack[e] is
the block on the rows rows[e] and the columns cols[e], ascending index
arrays of shapes (k, m) and (k, n) for a (k, m, n) stack, and the operator
is the sum of its blocks.  Blocks of one shape share one stack, so the
number of numpy calls follows the number of shapes, not of blocks.  The
quotient models of ``operators`` store Q and the compressed tuple in this
form; there the rows and columns of a block are cells, the column sets of
one class group of one degree or of one label, each known by its first
index.  This module forms products and commutators of such operators,
sums them into the dense blocks of their connected components, and takes
the Schatten spectra of those blocks.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .kernels import _sorted_runs


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array, ascending (``np.unique`` imports
    ``numpy.ma`` on some numpy versions)."""
    order, starts, _ = _sorted_runs(values)
    return values[order[starts]]


def _by_shape(entries) -> tuple:
    """The entries, those whose blocks share a shape joined into one, in
    the order each shape first comes; entries with empty blocks dropped."""
    shapes: dict = {}
    for rows, cols, stack in entries:
        if stack.size:
            shapes.setdefault(stack.shape[1:], []).append((rows, cols, stack))
    return tuple(
        same[0] if len(same) == 1 else tuple(np.concatenate(part) for part in zip(*same))
        for same in shapes.values()
    )


def _scatter(entries, shape) -> np.ndarray:
    """The dense complex ``shape`` matrix of block entries."""
    out = np.zeros(shape, dtype=complex)
    for rows, cols, stack in entries:
        out[rows[:, :, None], cols[:, None, :]] = stack
    return out


def _products(x, y) -> list:
    """Block entries of X Y: each block of X times each block of Y whose
    row cell is its column cell.  The products on one (row, column) pair
    are separate entries; ``_connected_blocks`` sums them."""
    out = []
    for xrows, xcols, xs in x:
        for yrows, ycols, ys in y:
            if xs.shape[2] != ys.shape[1]:
                continue  # cells of different widths: no block matches
            order = np.argsort(yrows[:, 0], kind="stable")
            keys = yrows[order, 0]
            lo = np.searchsorted(keys, xcols[:, 0], "left")
            count = np.searchsorted(keys, xcols[:, 0], "right") - lo
            if not count.any():
                continue
            ix = np.repeat(np.arange(len(xs)), count)
            iy = order[np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)]
            out.append((xrows[ix], ycols[iy], xs[ix] @ ys[iy]))
    return out


def _commutator(a, b) -> list:
    """Block entries of A B - B A (``_products``)."""
    return _products(a, b) + [(r, c, -s) for r, c, s in _products(b, a)]


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


def _connected_blocks(entries, size: int) -> list:
    """The sum of block entries on ``size`` rows and columns as the dense
    blocks of the connected components of its pattern, one entry per block
    shape.

    Each block joins its rows to its first column and its columns to its
    first row (rows are nodes 0 .. size - 1, columns the nodes after), so a
    component's rows and columns (``_components``) hold every block that
    touches them: the sum is block-diagonal over the components, after a
    permutation of rows and of columns, and its singular values are the
    union of theirs.  Rows and columns keep their ascending order inside a
    component, so a prefix of labels is a leading sub-block."""
    entries = [(r, c, s) for r, c, s in entries if s.size]
    if not entries:
        return []
    a = np.concatenate(
        [r.ravel() for r, _, _ in entries] + [np.repeat(r[:, 0], c.shape[1]) for r, c, _ in entries]
    )
    b = np.concatenate(
        [np.repeat(c[:, 0], r.shape[1]) for r, c, _ in entries] + [c.ravel() for _, c, _ in entries]
    ) + size
    label = _components(2 * size, a, b)
    touched = np.zeros(2 * size, dtype=bool)
    touched[a] = touched[b] = True
    # the touched nodes by component, each component's rows then its columns, ascending
    nodes = np.flatnonzero(touched)
    order, starts, counts = _sorted_runs(label[nodes])
    nodes = nodes[order]
    height = np.add.reduceat((nodes < size).astype(np.intp), starts)
    width = counts - height
    comp = np.empty(2 * size, dtype=np.intp)
    comp[nodes] = np.repeat(np.arange(starts.size), counts)
    local = np.empty(2 * size, dtype=np.intp)
    local[nodes] = np.arange(nodes.size) - np.repeat(starts, counts)
    local[nodes[nodes >= size]] -= np.repeat(height, width)
    shape, firsts, _ = _sorted_runs(height * (width.max() + 1) + width)
    area = (height * width)[shape]
    base = np.empty(starts.size, dtype=np.intp)
    base[shape] = np.cumsum(area) - area
    flat = np.zeros(int(area.sum()), np.result_type(*(s for _, _, s in entries)))
    for rows, cols, stack in entries:
        at = comp[rows[:, 0]]
        rows_at = base[at][:, None] + local[rows] * width[at][:, None]
        place = rows_at[:, :, None] + local[cols + size][:, None, :]
        np.add.at(flat, place.ravel(), stack.ravel())  # 1-D: numpy's fast path
    out = []
    for same in np.split(shape, firsts[1:]):
        h, w = height[same[0]], width[same[0]]
        out.append((
            nodes[starts[same][:, None] + np.arange(h)],
            nodes[starts[same][:, None] + h + np.arange(w)] - size,
            flat[base[same[0]]:base[same[0]] + len(same) * h * w].reshape(len(same), h, w),
        ))
    return out


def _check_p(p_values) -> None:
    for p in p_values:
        if not p >= 1:  # NaN too
            raise ValidationError(f"Schatten norm needs p >= 1, got {p}")


def _spectra(stack: np.ndarray, need_sv: bool):
    """The squared Frobenius norm and the singular values of each matrix of
    a stack, the singular values in one batched SVD and only when some
    p != 2 needs them."""
    parts = (stack.real, stack.imag) if np.iscomplexobj(stack) else (stack,)
    frob2 = sum(np.einsum("kij,kij->k", x, x) for x in parts)  # no squared copy
    if need_sv and stack.size:
        return frob2, np.linalg.svd(stack, compute_uv=False)
    return frob2, np.zeros((len(stack), 0))


def _block_spectra(blocks, labels: np.ndarray, top: int, p_values):
    """The spectra (``_spectra_norm``) of the operator with these connected
    blocks (``_connected_blocks``), in full and windowed to the rows and
    columns labelled <= ``top``.

    Rows and columns ascend inside a block, so the window keeps a leading
    sub-block of each.  Each block's singular values are taken once and
    serve the window where it keeps the block whole; the blocks it cuts are
    taken again, cut, one batched SVD per cut shape."""
    need_sv = any(p != 2 for p in p_values)
    full, windowed = [], []
    for rows, cols, stack in blocks:
        frob2, sv = _spectra(stack, need_sv)
        full.append((frob2.sum(), sv.ravel()))
        m, n = (labels[rows] <= top).sum(axis=1), (labels[cols] <= top).sum(axis=1)
        whole = (m == stack.shape[1]) & (n == stack.shape[2])
        windowed.append((frob2[whole].sum(), sv[whole].ravel()))
        cut = m * (stack.shape[2] + 1) + n  # the shape each block is cut to
        for shape in _distinct(cut[~whole & (m > 0) & (n > 0)]):
            on = cut == shape
            # a view where the window cuts every block alike (one dense block, say)
            sub = stack[:, :m[on][0], :n[on][0]]
            frob2, sv = _spectra(sub if on.all() else sub[on], need_sv)
            windowed.append((frob2.sum(), sv.ravel()))
    return full, windowed


def _spectra_norm(spectra, p: float) -> float:
    """Schatten p-norm of the block-diagonal operator whose blocks have
    these (summed squared Frobenius norm, singular values) pairs: its
    singular values are the union of the blocks' ones, and its Frobenius
    norm (p = 2) the root of their summed squares."""
    if p == 2:  # the Frobenius norm needs no singular values
        return float(np.sqrt(sum(frob2 for frob2, _ in spectra)))
    sv = np.concatenate([np.zeros(0)] + [sv for _, sv in spectra])
    top = sv.max(initial=0.0)
    if top == 0 or np.isinf(p):
        return float(top)
    # scaled by the largest, so that no power underflows to 0 at large p
    return float(top * np.sum((sv / top) ** p) ** (1.0 / p))
