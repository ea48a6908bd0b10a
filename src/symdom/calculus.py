"""Functional calculus for commuting tuples with interior joint spectrum.

Two routes to f(T) are implemented and played against each other:

* direct polynomial evaluation, summed degree by degree, and
* the boundary integral  f(T) = sum_nodes weight f(node) Delta(T, node)^{-n/r}
  over a quadrature of the normalized Shilov measure.

The Szegoe kernel Delta(T, node)^{-n/r} depends only on the tuple and the
node, so it is built once per tuple and node and shared by every polynomial
and by the error estimate, whose rule is a subset of the same nodes.

On top of that sit principal powers Delta(T, w)^{-lam} (closed forms for
ball and polydisc, a degree-block series for the matrix ball) and Moebius
transformations of tuples through their rational component symbols.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import ndtri

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
from .polynomials import Polynomial, RationalSymbol, poly_det

BOUNDARY_TOL = 1e-9
SERIES_TERM_TOL = 1e-14
SERIES_MAX_DEGREE = 400
DENOM_SPECTRUM_MARGIN = 1e-6
SPHERE_BASE_NODES = 1000
_CHUNK = 8192


# ---------------------------------------------------------------------
# quadrature of the normalized Shilov measure
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class ShilovQuadrature:
    """Nodes (rows, flattened points), probability weights and an estimate rule.

    The estimate rule puts equal weights on ``nodes[estimate]``, a sorted
    subset of the rule's own nodes: every other node per axis on the circle
    and torus (the nodes of the rule one level down, in the same order; one
    node at level 1) and the first half of the node stream on the sphere.
    """

    dom: DomainSpec
    level: int
    nodes: np.ndarray
    weights: np.ndarray
    estimate: np.ndarray

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]


def shilov_quadrature(dom: DomainSpec, level: int) -> ShilovQuadrature:
    """Quadrature adapted to the Shilov boundary of the domain.

    circle (disc): 2^level equispaced points, exact for trigonometric
    polynomials of degree < 2^level; torus (polydisc): the product rule;
    sphere (ball, n >= 2): 4^level * 1000 equal-weight low-discrepancy
    nodes.  The matrix ball is not supported here.
    """
    if level < 1:
        raise ValidationError("level must be at least 1")
    if dom.kind == "matrixball":
        raise ValidationError(
            "no Shilov quadrature for the matrix ball; use the series calculus"
        )
    if dom.kind == "polydisc" or (dom.kind == "ball" and dom.dim == 1):
        per_axis = 2**level
        if per_axis ** dom.dim > 2**24:
            raise ValidationError("torus rule too large at this level")
        angles = 2.0 * np.pi * np.arange(per_axis) / per_axis
        axes = np.exp(1j * angles)
        if dom.dim == 1:
            nodes = axes[:, None]
        else:
            grids = np.meshgrid(*([axes] * dom.dim), indexing="ij")
            nodes = np.column_stack([g.reshape(-1) for g in grids])
        weights = np.full(nodes.shape[0], 1.0 / nodes.shape[0])
        grid = np.arange(nodes.shape[0]).reshape((per_axis,) * dom.dim)
        estimate = grid[(slice(None, None, 2),) * dom.dim].reshape(-1)
        return ShilovQuadrature(dom, level, nodes, weights, estimate)
    count = (4**level) * SPHERE_BASE_NODES
    if count > 5_000_000:
        raise ValidationError("sphere rule too large at this level")
    from scipy.stats import qmc  # costly to import; only the sphere rule needs it

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sampler = qmc.Sobol(d=2 * dom.dim, scramble=False)
        sampler.fast_forward(1)
        u = sampler.random(count)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    gauss = ndtri(u)
    norms = np.linalg.norm(gauss, axis=1)
    # the all-0.5 low-discrepancy point maps to the origin; pin it to a axis
    degenerate = norms < 1e-300
    gauss[degenerate, 0] = 1.0
    norms[degenerate] = 1.0
    gauss /= norms[:, None]
    nodes = gauss[:, 0::2] + 1j * gauss[:, 1::2]
    weights = np.full(count, 1.0 / count)
    return ShilovQuadrature(dom, level, nodes, weights, np.arange(count // 2))


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
    return scipy.linalg.fractional_matrix_power(a, mu)


def _tuple_and_radius(mats, dom: DomainSpec, seed: int = 0):
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if len(mats) != dom.dim:
        raise ValidationError(
            f"tuple has {len(mats)} components, {dom.label()} needs {dom.dim}"
        )
    eigs = koszul.joint_eigenvalues(mats, seed=seed)
    radius = max((spectral_norm(dom, mu) for mu in eigs), default=0.0)
    return mats, eigs, radius


def _require_interior(radius: float) -> None:
    if radius >= 1.0 - BOUNDARY_TOL:
        raise SpectrumTouchesBoundary(
            f"joint spectral radius {radius:.8f} is not strictly interior"
        )


def delta_power_tuple(mats, w, lam: float, dom: DomainSpec, seed: int = 0) -> np.ndarray:
    """Delta(T, w)^{-lam} for a commuting tuple with interior spectrum.

    ball: (I - sum conj(w_i) T_i)^{-lam}; polydisc: the factorwise product;
    matrixball: the kernel series summed over total-degree blocks with the
    power recurrence transported to matrix arguments.
    """
    mats, _, radius = _tuple_and_radius(mats, dom, seed)
    _require_interior(radius)
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


def _delta_homogeneous_parts(dom: DomainSpec, wf: np.ndarray) -> dict[int, Polynomial]:
    """z-homogeneous parts of Delta(., w) with w fixed, as polynomials in z."""
    parts: dict[int, dict] = {}
    for (alpha, beta), coeff in generic_poly_terms(dom).items():
        d = sum(alpha)
        if d == 0:
            continue
        value = coeff
        for wi, bi in zip(wf, beta):
            if bi:
                value *= np.conj(wi) ** bi
        bucket = parts.setdefault(d, {})
        bucket[alpha] = bucket.get(alpha, 0.0) + value
    return {d: Polynomial(dom.dim, terms) for d, terms in sorted(parts.items())}


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
    hom = {d: p.eval_tuple(mats) for d, p in _delta_homogeneous_parts(dom, wf).items()}
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


def _szegoe_batch(dom: DomainSpec, mats: list[np.ndarray], nodes: np.ndarray) -> np.ndarray:
    """Delta(T, node)^{-n/r} for a batch of boundary nodes, shape (N, h, h).

    The Hardy exponent n/r is an integer for every quadrature-supported
    family, so only batched inverses and products are needed.
    """
    exponent = round(dom.hardy_weight)
    eye = np.eye(mats[0].shape[0], dtype=complex)
    if dom.kind == "ball":
        inv = np.linalg.inv(eye - np.einsum("nk,kij->nij", np.conj(nodes), np.stack(mats)))
        out = inv
        for _ in range(exponent - 1):
            out = out @ inv
        return out
    out = None
    for k, t in enumerate(mats):
        inv = np.linalg.inv(eye - np.conj(nodes[:, k])[:, None, None] * t)
        out = inv if out is None else out @ inv
    return out


@dataclass(frozen=True)
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
    seed: int = 0,
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
    mats, _, radius = _tuple_and_radius(mats, dom, seed)
    _require_interior(radius)
    if quad.dom != dom:
        raise ValidationError("quadrature was built for a different domain")
    polys = list(polys)
    if not polys:
        return []
    full, coarse = _quadrature_sum(dom, mats, polys, quad.nodes, quad.weights, quad.estimate)
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
    mats: list[np.ndarray],
    polys: list[Polynomial],
    nodes: np.ndarray,
    weights: np.ndarray,
    estimate: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Full-rule and estimate-rule sums of f(node) Delta(T, node)^{-n/r}.

    Returns two (P, h, h) stacks, one matrix per polynomial.  Each chunk of
    nodes gets one kernel batch and one (2P, chunk) coefficient block (full
    weights, then the estimate rule's equal weights on its nodes, times the
    values f(node)), accumulated with one matrix product.
    """
    h = mats[0].shape[0]
    count = len(polys)
    estimate_weight = 1.0 / estimate.size
    total = np.zeros((2 * count, h * h), dtype=complex)
    for start in range(0, nodes.shape[0], _CHUNK):
        stop = min(start + _CHUNK, nodes.shape[0])
        kernel = _szegoe_batch(dom, mats, nodes[start:stop]).reshape(stop - start, h * h)
        values = np.array([f.eval_batch(nodes[start:stop]) for f in polys])
        coeff = np.zeros((2 * count, stop - start), dtype=complex)
        coeff[:count] = weights[start:stop] * values
        local = estimate[np.searchsorted(estimate, start):np.searchsorted(estimate, stop)] - start
        coeff[count:, local] = estimate_weight * values[:, local]
        total += coeff @ kernel
    total = total.reshape(2 * count, h, h)
    return total[:count], total[count:]


# ---------------------------------------------------------------------
# Moebius transformations of tuples
# ---------------------------------------------------------------------

def mobius_rational_components(dom: DomainSpec, z0) -> list[RationalSymbol]:
    """Components of g_{z0} as rational symbols p_i / q_i.

    polydisc: factorwise (w_i + z0_i)/(1 + conj(z0_i) w_i); matrixball:
    the adjugate of I + w z0* over det(I + w z0*), sandwiched between the
    Bergman square roots.  The ball is the r = 1 matrix ball: the shared
    denominator is 1 + <w, z0> and the adjugate is 1.  Only the names follow
    the family: ``mobius1..n`` on the ball, ``mobius<k><l>`` on the matrix
    ball.
    """
    z0f = flatten_point(dom, z0)
    if not in_domain(dom, z0f):
        raise PointOutsideDomain("moebius base point must be interior")
    n = dom.dim
    coords = [Polynomial.coordinate(i, n) for i in range(n)]

    if dom.kind == "polydisc":
        out = []
        for i in range(n):
            p = coords[i] + Polynomial.constant(n, z0f[i])
            q = Polynomial.constant(n, 1.0) + np.conj(z0f[i]) * coords[i]
            out.append(RationalSymbol(p, q, name=f"mobius{i + 1}"))
        return out

    r, c = dom.rows, dom.cols
    z0m = as_matrix(dom, z0f)
    left_root = hermitian_sqrt(np.eye(r, dtype=complex) - z0m @ z0m.conj().T)
    right_root = hermitian_sqrt(np.eye(c, dtype=complex) - z0m.conj().T @ z0m)
    wpoly = [[coords[k * c + j] for j in range(c)] for k in range(r)]
    amat = [
        [
            Polynomial.constant(n, 1.0 if k == l else 0.0)
            + sum(
                (np.conj(z0m[l, j]) * wpoly[k][j] for j in range(c)),
                Polynomial.zero(n),
            )
            for l in range(r)
        ]
        for k in range(r)
    ]
    q = poly_det(amat)
    adj = _poly_adjugate(amat)
    # numeric-left, symbolic-middle, numeric-right product, entry by entry
    middle = [
        [
            sum((adj[k][m] * wpoly[m][j] for m in range(r)), Polynomial.zero(n))
            for j in range(c)
        ]
        for k in range(r)
    ]
    out = []
    for k in range(r):
        for l in range(c):
            p = z0m[k, l] * q
            for a in range(r):
                for b in range(c):
                    weight = left_root[k, a] * right_root[b, l]
                    if weight != 0:
                        p = p + weight * middle[a][b]
            name = f"mobius{l + 1}" if dom.kind == "ball" else f"mobius{k + 1}{l + 1}"
            out.append(RationalSymbol(p, q, name=name))
    return out


def _poly_adjugate(mat: list[list[Polynomial]]) -> list[list[Polynomial]]:
    r = len(mat)
    n = mat[0][0].nvars
    if r == 1:
        return [[Polynomial.constant(n, 1.0)]]
    adj = [[Polynomial.zero(n) for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(r):
            minor = [
                [mat[a][b] for b in range(r) if b != j]
                for a in range(r)
                if a != i
            ]
            cof = poly_det(minor)
            if (i + j) % 2:
                cof = -1.0 * cof
            adj[j][i] = cof
    return adj


def mobius_of_tuple(mats, z0, dom: DomainSpec, seed: int = 0) -> list[np.ndarray]:
    """Apply g_{z0} to a commuting tuple through its rational components.

    Denominators are checked on the joint spectrum first; a modulus below
    ``DENOM_SPECTRUM_MARGIN`` raises :class:`SingularDenominator`.
    """
    mats, eigs, radius = _tuple_and_radius(mats, dom, seed)
    _require_interior(radius)
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


def composition_residual(mats, z0, dom: DomainSpec, seed: int = 0) -> float:
    """Largest component deviation of g_{-z0}(g_{z0}(T)) from T."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    forward = mobius_of_tuple(mats, z0, dom, seed=seed)
    back = mobius_of_tuple(forward, -np.asarray(z0, dtype=complex), dom, seed=seed)
    return max(
        float(np.linalg.norm(a - b, 2)) for a, b in zip(back, mats)
    )
