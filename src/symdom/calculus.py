"""Functional calculus for commuting tuples with interior joint spectrum.

Two routes to f(T) are implemented and played against each other:

* direct polynomial evaluation, summed degree by degree, and
* the boundary integral  f(T) = sum_nodes weight f(node) Delta(T, node)^{-n/r}
  over a quadrature of the normalized Shilov measure.

The Szegoe kernel Delta(T, node)^{-n/r} depends only on the tuple and the
node, so it is built once per tuple and node and shared by every polynomial
and by the error estimate, whose rule is a subset of the same nodes.  It is
built from the terms of Delta in a simultaneous Schur basis of the tuple,
where every node's Delta(T, node) is upper triangular up to the
triangularization defect: chunks of 2048 nodes are factored by one unpivoted
LU vectorized over the node axis and solved n/r times, in buffers allocated
once per tuple and reused by every chunk; each total is rotated back once.
The rule keeps only per-rule constants (roots of unity; Sobol' XOR tables
and a quantile table) and makes each chunk of nodes just before its batch,
so no per-node array is held.

On top of that sit principal powers Delta(T, w)^{-lam} (closed forms for
ball and polydisc, a degree-block series for the matrix ball) and Moebius
transformations of tuples through their rational component symbols.  All
read the one expansion of Delta: the kernels its terms at the tuple, the
Moebius symbols q(w) = det(I + w z0*) = Delta(w, -z0) and, by Jacobi's
formula, adj(I + w z0*) w = -grad_{conj u} Delta(w, u) at u = -z0.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import zipfile
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import koszul
from .domains import (
    DomainSpec,
    as_matrix,
    flatten_point,
    generic_poly_terms,
    hermitian_sqrt,
    in_domain,
    spectral_norm,
)
from .errors import (
    BranchCutError,
    PointOutsideDomain,
    QuadratureUnderResolved,
    SeriesDivergence,
    SingularDenominator,
    SpectrumTouchesBoundary,
    ValidationError,
)
from .polynomials import Polynomial, RationalSymbol

BOUNDARY_TOL = 1e-9
SERIES_TERM_TOL = 1e-14
SERIES_MAX_DEGREE = 400
DENOM_SPECTRUM_MARGIN = 1e-6
SPHERE_BASE_NODES = 1000
_CHUNK = 2048  # nodes per kernel batch: (h, h, 2048) stacks stay in cache
# scipy's Joe-Kuo direction-number table, found without importing scipy;
# its arrays are streamed out of the zip without importing scipy.stats,
# which would cost more than drawing the points
_SOBOL_TABLE = os.path.join(
    importlib.util.find_spec("scipy").submodule_search_locations[0],
    "stats",
    "_sobol_direction_numbers.npz",
)
_SOBOL_BITS = 30
# torus nodes times coordinates: it bounds a sum's work (the nodes are never
# held; assembled, as ``nodes`` does for diagnostics, they would take 1 GiB)
_MAX_TORUS_ENTRIES = 1 << 26


# ---------------------------------------------------------------------
# quadrature of the normalized Shilov measure
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ShilovQuadrature:
    """An equal-weight rule and its estimate rule, kept as per-rule
    constants; ``chunks`` makes the nodes (rows, flattened points) a run at
    a time, so no per-node array is held.

    On the circle and torus ``axis`` holds the 2^level roots of unity, and
    node k takes its coordinate c from the c-th base-2^level digit of k,
    most significant first: the product grid in "ij" order.  On the sphere
    node k is Sobol' point k + 1 (see ``shilov_quadrature``): ``gray``
    holds the two XOR tables of ``_gray_tables`` of the direction numbers,
    shifted to the bits of the ``quantiles`` table.

    The estimate rule puts equal weights on a subset of the rule's own
    nodes: every other node per axis on the circle and torus, those whose
    digits are all even (the nodes of the rule one level down, in the same
    order; one node at level 1), and the first half of the node stream on
    the sphere.  ``nodes``, ``weights`` and ``estimate`` assemble the whole
    rule on access, for tests and diagnostics.
    """

    dom: DomainSpec
    level: int
    node_count: int
    axis: np.ndarray | None = None
    gray: tuple[np.ndarray, np.ndarray] | None = None
    quantiles: np.ndarray | None = None

    def __len__(self) -> int:  # the node count, as the array of nodes had it
        return self.node_count

    @property
    def estimate_count(self) -> int:  # half the sphere's nodes, 2^-n of the torus's
        return self.node_count >> (1 if self.axis is None else self.dom.dim)

    def chunks(self, size: int = _CHUNK):
        """(start, nodes[start:stop], local) for consecutive runs of
        ``size`` nodes, where local indexes the estimate rule's nodes among
        them: a slice on the sphere, an index array on the circle and torus."""
        n, half = self.dom.dim, self.estimate_count
        lowest = sum(1 << (self.level * c) for c in range(n))  # each digit's lowest bit
        for start in range(0, self.node_count, size):
            stop = min(start + size, self.node_count)
            if self.axis is None:  # a slice: cheaper than a fancy index
                yield start, _sphere_nodes(self, start, stop), slice(0, max(0, half - start))
                continue
            k = np.arange(start, stop)
            nodes = np.empty((stop - start, n), dtype=complex)
            for c in range(n):
                nodes[:, c] = self.axis[(k >> (self.level * (n - 1 - c))) & (self.axis.size - 1)]
            yield start, nodes, np.flatnonzero(k & lowest == 0)

    @property
    def nodes(self) -> np.ndarray:
        return np.concatenate([nodes for _, nodes, _ in self.chunks()])

    @property
    def estimate(self) -> np.ndarray:
        return np.concatenate(
            [np.arange(start, start + len(nodes))[local] for start, nodes, local in self.chunks()]
        )

    @property
    def weights(self) -> np.ndarray:
        return np.broadcast_to(1.0 / self.node_count, (self.node_count,))


def shilov_quadrature(dom: DomainSpec, level: int) -> ShilovQuadrature:
    """Quadrature adapted to the Shilov boundary of the domain.

    circle (disc): 2^level equispaced points, exact for trigonometric
    polynomials of degree < 2^level; torus (polydisc): the product rule;
    sphere (ball, n >= 2): count = 4^level * 1000 equal-weight
    low-discrepancy nodes, the unscrambled Sobol' points 1..count in 2n
    dimensions sent to the sphere through the normal quantile and
    normalized.  The matrix ball is not supported here.  Every guard is
    decided here, before any node is made.

    The sphere rule works on integers.  With bits = count.bit_length(), the
    first 2^bits Sobol' points take only the values k / 2^bits in each
    coordinate (the (0,1)-property), and point 0 alone takes 0.  So the
    30-bit integers of ``_sobol_chunk`` (bit for bit
    ``scipy.stats.qmc.Sobol`` before its 2^-30 scaling), shifted right by
    30 - bits, index a table of the 2^bits - 1 quantiles ndtri(k / 2^bits).
    ``_ndtri`` (a numpy port of Cephes, bit for bit ``scipy.special.ndtri``)
    fills its lower half, and the mirror ndtri(1 - p) = -ndtri(p), exact for
    dyadic p, the rest.  As bits <= 23, the grid lies inside
    [1e-12, 1 - 1e-12], the domain of ``_ndtri``: the nodes are bit for bit
    ndtri of every point, normalized.  The shift is XOR-linear, so the rule
    keeps the direction numbers shifted and its chunks index the table
    directly.
    """
    if level < 1:
        raise ValidationError("level must be at least 1")
    if dom.kind == "matrixball":
        raise ValidationError(
            "no Shilov quadrature for the matrix ball; use the series calculus"
        )
    if dom.kind == "polydisc" or (dom.kind == "ball" and dom.dim == 1):
        n = dom.dim
        # (2^level)^n nodes past 2^24, or their n coordinates past
        # _MAX_TORUS_ENTRIES, decided before 2^level is formed
        if level * n > 24 or n << (level * n) > _MAX_TORUS_ENTRIES:
            raise ValidationError("torus rule too large at this level")
        per_axis = 2**level
        angles = 2.0 * np.pi * np.arange(per_axis) / per_axis
        return ShilovQuadrature(dom, level, per_axis**n, axis=np.exp(1j * angles))
    if level >= 7:  # 4^level * 1000 nodes past 5_000_000, decided before 4^level is formed
        raise ValidationError("sphere rule too large at this level")
    count = (4**level) * SPHERE_BASE_NODES
    bits = count.bit_length()
    rows = _direction_numbers(2 * dom.dim)[:bits] >> (_SOBOL_BITS - bits)
    gray = _gray_tables(rows.astype(np.intp))  # the table's own index type: no cast per gather
    return ShilovQuadrature(dom, level, count, gray=gray, quantiles=_dyadic_quantiles(bits))


def _sphere_nodes(quad: ShilovQuadrature, start: int, stop: int) -> np.ndarray:
    """Sphere nodes start..stop - 1: the table's quantile of each Sobol'
    coordinate, normalized, the real and imaginary parts of one complex
    coordinate in two adjacent columns."""
    gauss = quad.quantiles[_sobol_chunk(quad.gray, start, stop)]
    squares = gauss * gauss
    # np.linalg.norm(gauss, axis=1) bit for bit: numpy sums a row of fewer
    # than 8 entries in order, so it is summed a column at a time there
    norms = np.sqrt(functools.reduce(np.add, squares.T) if gauss.shape[1] < 8 else squares.sum(1))
    # the all-0.5 low-discrepancy point maps to the origin; pin it to a axis
    degenerate = norms < 1e-300
    gauss[degenerate, 0] = 1.0
    norms[degenerate] = 1.0
    gauss /= norms[:, None]
    return gauss.view(complex)


def _sobol_chunk(gray: tuple[np.ndarray, np.ndarray], start: int, stop: int) -> np.ndarray:
    """Points start + 1..stop of the unscrambled Sobol' sequence, shape
    (stop - start, d), from the ``_gray_tables`` of its direction numbers.

    Point k is the XOR of the direction numbers at the set bits of its Gray
    code k ^ (k >> 1) (Antonov & Saleev, 1979): one entry of each table, at
    the code's low and high bits.  From the 30-bit ``_direction_numbers(d)``
    the points times 2^-30 are bit for bit ``scipy.stats.qmc.Sobol(d,
    scramble=False)`` after ``fast_forward(1)``.
    """
    low, high = gray
    code = np.arange(start + 1, stop + 1)
    code ^= code >> 1
    out = np.take(low, code & (low.shape[0] - 1), axis=0)
    out ^= np.take(high, code >> (low.shape[0].bit_length() - 1), axis=0)
    return out


def _gray_tables(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For direction-number rows v_0, ..., v_(b-1): the XOR of the v_i at
    the set bits i of g, for every g below 2^b, as two tables.  The first
    holds the codes g < 2^m, m = ceil(b / 2), and the second g's bits from m
    on, so neither has more than 2^m rows."""
    tables = []
    for part in np.array_split(rows, [(len(rows) + 1) // 2]):
        table = np.zeros((1 << len(part), rows.shape[1]), dtype=rows.dtype)
        for b, row in enumerate(part):  # doubling: the codes with bit b are those without, XOR v_b
            np.bitwise_xor(table[: 1 << b], row, out=table[1 << b : 2 << b])
        tables.append(table)
    return tuple(tables)


def _direction_numbers(d: int) -> np.ndarray:
    """The unscrambled d-dimensional Sobol' direction numbers as 30-bit
    integers, shape (30, d), dtype uint32: scipy's, built from the Joe-Kuo
    table (Joe & Kuo, SIAM J. Sci. Comput. 30, 2008)."""
    with zipfile.ZipFile(_SOBOL_TABLE) as table:
        with table.open("poly.npy") as f:
            rows, poly = _leading_rows(f, d)
        if d > rows:
            raise ValidationError(
                f"the sphere rule needs {d} Sobol dimensions; the direction-number "
                f"table has {rows}"
            )
        with table.open("vinit.npy") as f:
            vinit = _leading_rows(f, d)[1]
    # row i's primitive polynomial x^m + a_1 x^(m-1) + ... + a_(m-1) x + 1
    # has degree m = bit_length - 1; taps[i, k] is its bit m-1-k, k < m
    degree = np.frexp(poly)[1] - 1
    k = np.arange(vinit.shape[1])
    below = k < degree[:, None]
    taps = (poly[:, None] >> np.maximum(degree[:, None] - 1 - k, 0)) & 1 & below
    v = np.zeros((d, _SOBOL_BITS), dtype=np.int64)
    v[:, : k.size] = vinit * below
    v[0] = 1  # the first coordinate is van der Corput's
    for j in range(_SOBOL_BITS):
        # v_j = v_(j-m) ^ XOR_k taps_k 2^(k+1) v_(j-k-1); columns below a
        # row's degree keep their table values (np.where discards the
        # wrapped indices those rows read)
        new = v[np.arange(d), j - degree]
        for i in range(int(degree.max())):
            new ^= (taps[:, i] * v[:, j - i - 1]) << (i + 1)
        v[:, j] = np.where(degree <= j, new, v[:, j])
    return np.ascontiguousarray((v << np.arange(_SOBOL_BITS - 1, -1, -1)).astype(np.uint32).T)


def _leading_rows(f, d: int) -> tuple[int, np.ndarray]:
    """The row count of the 1-D or 2-D ``.npy`` array streamed from the
    open file f, and its first min(d, rows) rows.

    The data is read in the order the header states and only those rows
    are kept: a Fortran-ordered array one column at a time, so the whole
    array is never held.
    """
    version = np.lib.format.read_magic(f)
    read_header = {
        (1, 0): np.lib.format.read_array_header_1_0,
        (2, 0): np.lib.format.read_array_header_2_0,
    }[version]
    shape, fortran_order, dtype = read_header(f)
    rows, tail = shape[0], shape[1:]
    keep = min(d, rows)
    if not fortran_order:
        out = np.frombuffer(f.read(keep * math.prod(tail) * dtype.itemsize), dtype)
        return rows, out.reshape((keep,) + tail)
    out = np.empty((math.prod(tail), keep), dtype)
    for column in out:
        column[:] = np.frombuffer(f.read(rows * dtype.itemsize), dtype, count=keep)
    return rows, out.T.reshape((keep,) + tail)


def _dyadic_quantiles(bits: int) -> np.ndarray:
    """ndtri(k / 2^bits) at entry k for 0 < k < 2^bits; entry 0 is not set.

    ``_ndtri`` fills the lower half, k <= 2^(bits - 1), and the mirror
    ndtri(1 - p) = -ndtri(p) the upper: for dyadic p Cephes takes the same
    steps on 1 - p as on p and only flips the sign.
    """
    out = np.empty(1 << bits)
    half = 1 << (bits - 1)
    lower = out[1 : half + 1]
    lower[:] = np.arange(1, half + 1) * 2.0**-bits
    _ndtri(lower)
    np.negative(out[half - 1 : 0 : -1], out=out[half + 1 :])
    return out


# Cephes ndtri (Moshier, Methods and Programs for Mathematical Functions,
# 1989): rational approximations in y - 1/2 on the centre and in
# 1/sqrt(-2 ln y) on the tails, coefficients highest power first; the tables
# for sqrt(-2 ln y) >= 8, y < exp(-32), are left out, as the sphere rule
# takes the quantile only on the grid k / 2^bits, bits <= 23, inside
# [1e-12, 1 - 1e-12]
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (  # monic: the leading 1 is implied
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (  # monic
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242e0


def _ndtri(p: np.ndarray) -> None:
    """Overwrite p, probabilities in [1e-12, 1 - 1e-12], with the standard
    normal quantiles, bit for bit ``scipy.special.ndtri``.

    The arithmetic is Cephes' own, in its order: Horner's rule from the
    highest coefficient (``polevl``, and ``p1evl`` for the monic
    denominators), and the tail's two logarithms from ``math.log``, which is
    the C library's; ``np.log`` differs from it in the last bit on some
    inputs.
    """
    def horner(x, coeffs, monic=False):
        acc = x + coeffs[0] if monic else np.full_like(x, coeffs[0])
        for c in coeffs[1:]:
            acc = acc * x + c
        return acc

    def log(x):
        return np.fromiter(map(math.log, x.tolist()), float, x.size)

    upper = p > 1.0 - _EXP_MINUS_2
    np.subtract(1.0, p, out=p, where=upper)  # the lower tail's mirror image
    centre = p > _EXP_MINUS_2
    y = p[centre] - 0.5
    y2 = y * y
    y += y * (y2 * horner(y2, _NDTRI_P0) / horner(y2, _NDTRI_Q0, monic=True))
    p[centre] = y * _SQRT_2PI
    tail = ~centre
    x = np.sqrt(-2.0 * log(p[tail]))
    z = 1.0 / x
    x = x - log(x) / x - z * horner(z, _NDTRI_P1) / horner(z, _NDTRI_Q1, monic=True)
    p[tail] = np.where(upper[tail], x, -x)


# ---------------------------------------------------------------------
# principal matrix powers
# ---------------------------------------------------------------------

def matrix_power_principal(a: np.ndarray, mu: float) -> np.ndarray:
    """a^mu through the principal branch.

    Integer exponents use solves/products; fractional exponents go through
    the Schur-based algorithm after checking that no eigenvalue touches the
    closed negative real axis.
    """
    a = np.asarray(a, dtype=complex)
    if abs(mu - round(mu)) <= 1e-12:
        k = round(mu)
        if k >= 0:
            return np.linalg.matrix_power(a, k)
        return np.linalg.matrix_power(np.linalg.inv(a), -k)
    eigs = np.linalg.eigvals(a)
    if np.any((eigs.real <= 0) & (np.abs(eigs.imag) <= 1e-14 * np.abs(eigs))):
        raise BranchCutError("matrix has an eigenvalue on the negative real axis")
    from scipy.linalg import fractional_matrix_power  # absent from numpy

    return fractional_matrix_power(a, mu)


def _interior_tuple(mats, dom: DomainSpec):
    """The tuple as complex arrays, its joint eigenvalues and the spectrum
    guard's first draw (Z, Z* T_i Z); raises :class:`SpectrumTouchesBoundary`
    unless the joint spectral radius is strictly below 1."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if len(mats) != dom.dim:
        raise ValidationError(
            f"tuple has {len(mats)} components, {dom.label()} needs {dom.dim}"
        )
    eigs, draw = koszul._joint_eigenvalues_and_draw(mats)
    radius = max((spectral_norm(dom, mu) for mu in eigs), default=0.0)
    if radius >= 1.0 - BOUNDARY_TOL:
        raise SpectrumTouchesBoundary(
            f"joint spectral radius {radius:.8f} is not strictly interior"
        )
    return mats, eigs, draw


def delta_power_tuple(mats, w, lam: float, dom: DomainSpec) -> np.ndarray:
    """Delta(T, w)^{-lam} for a commuting tuple with interior spectrum.

    ball: (I - sum conj(w_i) T_i)^{-lam}; polydisc: the factorwise product;
    matrixball: the kernel series summed over total-degree blocks with the
    power recurrence transported to matrix arguments.
    """
    mats = _interior_tuple(mats, dom)[0]
    wf = flatten_point(dom, w)
    if spectral_norm(dom, wf) > 1.0 + BOUNDARY_TOL:
        raise PointOutsideDomain("second argument must lie in the closed domain")
    h = mats[0].shape[0]
    eye = np.eye(h, dtype=complex)
    if dom.kind == "ball":
        base = eye - sum(np.conj(wi) * t for wi, t in zip(wf, mats))
        return matrix_power_principal(base, -lam)
    if dom.kind == "polydisc":
        out = eye.copy()
        for wi, t in zip(wf, mats):
            out = out @ matrix_power_principal(eye - np.conj(wi) * t, -lam)
        return out
    return _delta_power_series(mats, wf, lam, dom)


def _delta_power_series(
    mats: list[np.ndarray], wf: np.ndarray, lam: float, dom: DomainSpec
) -> np.ndarray:
    """Sum of the degree blocks of Delta(T, w)^{-lam}.

    The scalar power recurrence survives evaluation at a commuting tuple
    because polynomial evaluation is an algebra map:
    d F_d = sum_j ((mu+1) j - d) P_j(T) F_{d-j} with mu = -lam.
    """
    h = mats[0].shape[0]
    eye = np.eye(h, dtype=complex)
    parts = _delta_expansion(dom, wf)[0].homogeneous_parts()
    hom = {d: p.eval_tuple(mats) for d, p in parts.items() if d}
    mu = -lam
    blocks = [eye]
    total = eye.copy()
    small_streak = 0
    for d in range(1, SERIES_MAX_DEGREE + 1):
        acc = np.zeros((h, h), dtype=complex)
        for j, pj in hom.items():
            if j <= d:
                acc += (((mu + 1.0) * j - d) / d) * (pj @ blocks[d - j])
        blocks.append(acc)
        total += acc
        term = np.linalg.norm(acc, 2)
        if term <= SERIES_TERM_TOL * max(1.0, np.linalg.norm(total, 2)):
            small_streak += 1
            if small_streak >= 3:
                return total
        else:
            small_streak = 0
        if term > 1e9 * max(1.0, np.linalg.norm(total, 2)):
            raise SeriesDivergence(
                f"degree-{d} block has norm {term:.2e}; series is not contracting"
            )
    raise SeriesDivergence(
        f"series did not contract within {SERIES_MAX_DEGREE} degree blocks"
    )


# ---------------------------------------------------------------------
# polynomial calculus: direct and integral
# ---------------------------------------------------------------------

def series_calculus(mats, f: Polynomial) -> np.ndarray:
    """f(T) by summing homogeneous parts in increasing degree."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    h = mats[0].shape[0]
    out = np.zeros((h, h), dtype=complex)
    for _, part in sorted(f.homogeneous_parts().items()):
        out += part.eval_tuple(mats)
    return out


def _delta_factors(dom: DomainSpec, mats) -> list[tuple[list, np.ndarray]]:
    """Delta(T, w) as a product of factors I + sum_(beta != 0) conj(w)^beta
    P_beta(T) from ``generic_poly_terms``: per factor the support of each beta
    and the (h, h, K) stack of the P_beta(T).  Ball and matrix ball take their
    whole table (on the ball P_(e_k) = -T_k); the polydisc, whose table has
    2^n - 1 terms, one disc factor Delta(T_k, w_k) per coordinate."""
    if dom.kind == "polydisc":
        return [([[k]], _delta_factors(DomainSpec.ball(1), [m])[0][1]) for k, m in enumerate(mats)]
    parts: dict = {}
    for (alpha, beta), coeff in generic_poly_terms(dom).items():
        if any(beta):
            parts.setdefault(beta, {})[alpha] = coeff
    blocks = [Polynomial(dom.dim, p).eval_tuple(mats) for p in parts.values()]
    return [([[i for i, b in enumerate(beta) if b] for beta in parts], np.stack(blocks, axis=-1))]


def _szegoe_batch(factors: list, power: int, nodes: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Delta(R, node)^{-power} for a batch of N boundary nodes, shape (h, h, N).

    ``factors`` is ``_delta_factors`` of R_k = Z* T_k Z in a simultaneous
    Schur basis Z and ``power`` the Hardy exponent n/r.  The first factor is
    one (h^2, K) by (K, N) product per batch; each further one multiplies it
    from the right.  Delta(R, node) is upper triangular up to the
    triangularization defect, with diagonal Delta(eigenvalue, node) away from
    0, so one unpivoted LU over the node axis factors it stably and exactly
    to rounding (the strict lower part is kept).  It is solved ``power``
    times, first against I, whose forward pass skips L^{-1}'s zero columns.

    ``work`` holds three complex (h * h, >= N) buffers, overwritten in their
    first N columns and reused by every chunk: the factored base, the
    right-hand side (the result is a view of it) and a scratch array.
    """
    (picks, blocks), *rest = factors
    h, count = blocks.shape[0], nodes.shape[0]
    base, out, scratch = (w[:, :count].reshape(h, h, count) for w in work)
    eye = np.eye(h, dtype=complex)[:, :, None]
    conj = np.conj(nodes).T
    monomials = np.array([conj[pick].prod(axis=0) for pick in picks])
    np.matmul(blocks.reshape(h * h, len(picks)), monomials, out=work[0, :, :count])
    np.add(eye, base, out=base)
    for picks, blocks in rest:  # base <- base @ factor; row i of base @ P_beta is P_beta^T base[i]
        for pick, block in zip(picks, np.moveaxis(blocks, 2, 0)):
            np.matmul(block.T, base, out=scratch)
            scratch *= conj[pick].prod(axis=0)
            base += scratch
    pivots = _lu_in_place(base, scratch)
    np.copyto(out, eye)
    for k in range(power):
        _lu_solve_in_place(base, pivots, out, scratch, identity=k == 0)
    return out


def _lu_in_place(a: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Unpivoted LU of each a[:, :, j]: U on and above the diagonal, the
    unit lower factor's multipliers below it.  Returns the reciprocals of
    U's diagonal, shape (h, N).  ``scratch`` has a's shape."""
    h = a.shape[0]
    for p in range(h - 1):
        a[p + 1:, p] *= 1.0 / a[p, p]
        rest = h - p - 1
        update = np.multiply(a[p + 1:, p, None], a[p, None, p + 1:], out=scratch[:rest, :rest])
        a[p + 1:, p + 1:] -= update
    return 1.0 / np.diagonal(a).T


def _lu_solve_in_place(
    lu: np.ndarray, pivots: np.ndarray, b: np.ndarray, scratch: np.ndarray, identity: bool
) -> None:
    """Overwrite each b[:, :, j] with A_j^{-1} b[:, :, j], given the factors
    and pivot reciprocals of the A_j from ``_lu_in_place``.  ``scratch`` has
    b's shape.  With ``identity`` (b is I) the forward pass builds the unit
    lower triangular L^{-1} on the columns <= p alone: the columns above
    would only take exact zeros."""
    h = lu.shape[0]
    for p in range(h - 1):
        cols = p + 1 if identity else h
        update = np.multiply(lu[p + 1:, p, None], b[p, None, :cols], out=scratch[p + 1:, :cols])
        b[p + 1:, :cols] -= update
    for p in reversed(range(h)):
        b[p] *= pivots[p]
        update = np.multiply(lu[:p, p, None], b[p, None], out=scratch[:p])
        b[:p] -= update


@dataclass(frozen=True, eq=False)
class CalculusResult:
    value: np.ndarray
    est_error: float
    node_count: int
    level: int


def integral_calculus(
    mats,
    polys: Sequence[Polynomial],
    quad: ShilovQuadrature,
    dom: DomainSpec,
    tol: float | None = None,
) -> list[CalculusResult]:
    """Boundary-integral values of f(T), one result per polynomial in ``polys``.

    The spectrum guards run once per tuple, and each node's Szegoe kernel is
    built once and shared by every polynomial and both rules.  Each result
    carries a self-reported error estimate: the relative 2-norm gap to the
    quadrature's estimate rule (equal weights on ``quad.estimate``, a subset
    of its nodes).  When ``tol`` is given and any polynomial's estimate
    exceeds it, :class:`QuadratureUnderResolved` is raised.  Chunked
    accumulation runs in a fixed order, so results are reproducible bit for
    bit.
    """
    if quad.dom != dom:
        raise ValidationError("quadrature was built for a different domain")
    draw = _interior_tuple(mats, dom)[2]
    polys = list(polys)
    if not polys:
        return []
    full, coarse = _quadrature_sum(dom, draw, polys, quad)
    out = []
    for value, rough in zip(full, coarse):
        est = float(np.linalg.norm(value - rough, 2) / max(1.0, np.linalg.norm(value, 2)))
        if tol is not None and not (est <= tol):
            raise QuadratureUnderResolved(
                f"error estimate {est:.3e} exceeds requested tolerance {tol:.1e}"
            )
        out.append(CalculusResult(value, est, quad.node_count, quad.level))
    return out


def _quadrature_sum(
    dom: DomainSpec,
    draw: tuple[np.ndarray, list[np.ndarray]],
    polys: list[Polynomial],
    quad: ShilovQuadrature,
) -> tuple[np.ndarray, np.ndarray]:
    """Full-rule and estimate-rule sums of f(node) Delta(T, node)^{-n/r}.

    Returns two (P, h, h) stacks, one matrix per polynomial.  The sums run in
    the simultaneous Schur basis Z of the spectrum guard's first draw, passed
    as ``draw`` = (Z, Z* T_i Z).  The rotated tuple's Delta factors are
    built once; each chunk of nodes is made by ``quad.chunks`` just before
    its kernel batch, in the one work array every chunk reuses, and gets one
    (2P, chunk) coefficient block (full weights, then the estimate rule's
    equal weights on its nodes, times the values f(node)), accumulated with
    one matrix product, and each total S is rotated back once as Z S Z*.
    """
    basis, rotated = draw
    factors, power = _delta_factors(dom, rotated), round(dom.hardy_weight)
    h = basis.shape[0]
    count = len(polys)
    weight, estimate_weight = 1.0 / quad.node_count, 1.0 / quad.estimate_count
    total = np.zeros((2 * count, h * h), dtype=complex)
    work = np.empty((3, h * h, min(_CHUNK, quad.node_count)), dtype=complex)
    for _, nodes, local in quad.chunks():
        kernel = _szegoe_batch(factors, power, nodes, work).reshape(h * h, nodes.shape[0])
        coeff = np.zeros((2 * count, nodes.shape[0]), dtype=complex)
        values = coeff[:count]  # f(node), weighted in place once the estimate rule has read it
        for row, f in zip(values, polys):
            row[:] = f.eval_batch(nodes)
        coeff[count:, local] = estimate_weight * values[:, local]
        values *= weight
        total += coeff @ kernel.T
    total = basis @ total.reshape(2 * count, h, h) @ basis.conj().T
    return total[:count], total[count:]


# ---------------------------------------------------------------------
# Moebius transformations of tuples
# ---------------------------------------------------------------------

def mobius_rational_components(dom: DomainSpec, z0) -> list[RationalSymbol]:
    """Components of g_{z0} as rational symbols p_i / q_i.

    polydisc: factorwise (w_i + z0_i)/(1 + conj(z0_i) w_i).  matrixball:
    with A = I + w z0*, the shared denominator is q = det A = Delta(w, -z0)
    and the numerators are z0 q + L adj(A) w R, with the Bergman square
    roots L = (I - z0 z0*)^{1/2} and R = (I - z0* z0)^{1/2}.  Jacobi's
    formula d det A = tr(adj A dA) gives adj(I + w z0*) w =
    -grad_{conj u} Delta(w, u) at u = -z0, so q and every numerator come
    from one expansion of Delta (``_delta_expansion``).  The ball is the
    r = 1 matrix ball: q = 1 + <w, z0> and the adjugate is 1.  Only the
    names follow the family: ``mobius1..n`` on the ball, ``mobius<k><l>`` on
    the matrix ball.
    """
    z0f = flatten_point(dom, z0)
    if not in_domain(dom, z0f):
        raise PointOutsideDomain("moebius base point must be interior")
    n = dom.dim

    if dom.kind == "polydisc":
        out = []
        for i in range(n):
            coord = Polynomial.coordinate(i, n)
            p = coord + Polynomial.constant(n, z0f[i])
            q = Polynomial.constant(n, 1.0) + np.conj(z0f[i]) * coord
            out.append(RationalSymbol(p, q, name=f"mobius{i + 1}"))
        return out

    r, c = dom.rows, dom.cols
    z0m = as_matrix(dom, z0f)
    left_root = hermitian_sqrt(np.eye(r, dtype=complex) - z0m @ z0m.conj().T)
    right_root = hermitian_sqrt(np.eye(c, dtype=complex) - z0m.conj().T @ z0m)
    q, grad = _delta_expansion(dom, -z0f)
    out = []
    for k in range(r):
        for l in range(c):
            p = z0m[k, l] * q
            for a in range(r):
                for b in range(c):
                    weight = left_root[k, a] * right_root[b, l]
                    if weight != 0:
                        p = p - weight * grad[a * c + b]
            name = f"mobius{l + 1}" if dom.kind == "ball" else f"mobius{k + 1}{l + 1}"
            out.append(RationalSymbol(p, q, name=name))
    return out


def _delta_expansion(dom: DomainSpec, u) -> tuple[Polynomial, list[Polynomial]]:
    """Delta(., u) and its n derivatives in conj(u_1), ..., conj(u_n), as
    polynomials in z, from one pass over ``generic_poly_terms``.

    Delta has degree at most one in each conj(u_m), so the m-th derivative
    of a term is the term with conj(u_m) struck out.  Exactly zero
    contributions are skipped, so a monomial is listed where its first
    nonzero contribution falls.
    """
    ubar = np.conj(flatten_point(dom, u))
    parts: list[dict] = [{} for _ in range(dom.dim + 1)]  # the derivatives, then Delta
    for (alpha, beta), coeff in generic_poly_terms(dom).items():
        picked = [i for i, b in enumerate(beta) if b]
        for m in picked + [dom.dim]:
            term = coeff
            for i in picked:
                if i != m:
                    term *= ubar[i]
            if term != 0:
                parts[m][alpha] = parts[m].get(alpha, 0.0) + term
    *grad, value = (Polynomial(dom.dim, p) for p in parts)
    return value, grad


def mobius_of_tuple(mats, z0, dom: DomainSpec) -> list[np.ndarray]:
    """Apply g_{z0} to a commuting tuple through its rational components.

    Denominators are checked on the joint spectrum first; a modulus below
    ``DENOM_SPECTRUM_MARGIN`` raises :class:`SingularDenominator`.
    """
    mats, eigs, _ = _interior_tuple(mats, dom)
    components = mobius_rational_components(dom, z0)
    out = []
    for sym in components:
        margin = np.abs(sym.q.eval_batch(eigs)).min()
        if margin < DENOM_SPECTRUM_MARGIN:
            raise SingularDenominator(
                f"denominator of {sym.name} reaches modulus {margin:.2e} on the spectrum"
            )
        qt = sym.q.eval_tuple(mats)
        pt = sym.p.eval_tuple(mats)
        out.append(np.linalg.solve(qt.T, pt.T).T)  # p(T) q(T)^{-1}
    return out


def composition_residual(mats, z0, dom: DomainSpec) -> float:
    """Largest component deviation of g_{-z0}(g_{z0}(T)) from T."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    forward = mobius_of_tuple(mats, z0, dom)
    back = mobius_of_tuple(forward, -np.asarray(z0, dtype=complex), dom)
    return max(
        float(np.linalg.norm(a - b, 2)) for a, b in zip(back, mats)
    )
