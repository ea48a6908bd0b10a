"""Jordan-triple geometry of three families of bounded symmetric domains.

Supported families, realized as spectral-norm unit balls:

* ``ball``       unit ball of C^n, rank 1, treated as 1 x n matrices
* ``polydisc``   unit polydisc of C^n, rank n, coordinatewise triple product
* ``matrixball`` r x c complex matrices (r <= c) of spectral norm < 1

All point-valued operations accept either the flattened coordinate vector
(length ``dim``, row-major for matrices) or the natural matrix shape, and
return results in the shape of the primary argument.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import (
    PointOutsideDomain,
    SingularBergmanOperator,
    ValidationError,
)

BERGMAN_RCOND_CUTOFF = 1e-12


@dataclass(frozen=True)
class DomainSpec:
    """Immutable description of one domain.

    ``rows``/``cols`` are the matrix dimensions of the realization: the ball
    is 1 x n, the polydisc keeps rows = n as a formal rank marker but acts
    coordinatewise, the matrix ball is rows x cols with rows <= cols.
    """

    kind: str
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.kind not in ("ball", "polydisc", "matrixball"):
            raise ValidationError(f"unknown domain kind {self.kind!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValidationError("domain dimensions must be positive")
        if self.kind == "ball" and self.rows != 1:
            raise ValidationError("ball realization must have one row")
        if self.kind == "polydisc" and self.rows != self.cols:
            raise ValidationError("polydisc marker requires rows == cols == n")
        if self.kind == "matrixball" and self.rows > self.cols:
            raise ValidationError("matrixball requires rows <= cols")

    # -- constructors -------------------------------------------------
    @staticmethod
    def ball(n: int) -> "DomainSpec":
        return DomainSpec("ball", 1, n)

    @staticmethod
    def polydisc(n: int) -> "DomainSpec":
        return DomainSpec("polydisc", n, n)

    @staticmethod
    def matrix_ball(r: int, c: int) -> "DomainSpec":
        return DomainSpec("matrixball", r, c)

    # -- numerical invariants -----------------------------------------
    @property
    def dim(self) -> int:
        """Complex dimension n of the domain."""
        if self.kind == "matrixball":
            return self.rows * self.cols
        return self.cols

    @property
    def rank(self) -> int:
        return 1 if self.kind == "ball" else self.rows

    @property
    def char_a(self) -> float:
        """Characteristic multiplicity a of the root system."""
        return 0.0 if self.kind == "polydisc" else 2.0

    @property
    def char_b(self) -> float:
        if self.kind == "ball":
            return float(self.cols - 1)
        if self.kind == "polydisc":
            return 0.0
        return float(self.cols - self.rows)

    @property
    def genus(self) -> float:
        """N = 2 + a(r-1) + b; equals dim/rank + a(r-1)/2 + 1."""
        return 2.0 + self.char_a * (self.rank - 1) + self.char_b

    @property
    def hardy_weight(self) -> float:
        """Weight n/r whose kernel is the Szegoe kernel of the Shilov boundary."""
        return self.dim / self.rank

    @property
    def drury_arveson_weight(self) -> float:
        """Smallest weight (r-1)a/2 + 1 of the 1/Delta-type row contraction model."""
        return (self.rank - 1) * self.char_a / 2.0 + 1.0

    def discrete_wallach_points(self) -> list[float]:
        return [(j - 1) * self.char_a / 2.0 for j in range(1, self.rank + 1)]

    def label(self) -> str:
        if self.kind == "ball":
            return f"ball{self.cols}"
        if self.kind == "polydisc":
            return f"polydisc{self.cols}"
        return f"matrixball{self.rows}x{self.cols}"

    # -- serialization ------------------------------------------------
    def to_json(self) -> dict:
        if self.kind == "matrixball":
            return {"kind": "matrixball", "n": self.cols, "r": self.rows}
        return {"kind": self.kind, "n": self.cols}

    @staticmethod
    def from_json(obj: dict) -> "DomainSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValidationError("domain spec must be an object with a 'kind' field")
        kind = obj["kind"]
        n = _integer_field(obj, "n", "domain spec")
        if kind == "ball":
            return DomainSpec.ball(n)
        if kind == "polydisc":
            return DomainSpec.polydisc(n)
        if kind == "matrixball":
            return DomainSpec.matrix_ball(_integer_field(obj, "r", "matrixball spec"), n)
        raise ValidationError(f"unknown domain kind {kind!r}")


def _integer_field(obj: dict, key: str, what: str) -> int:
    """``obj[key]`` if it is an integer; floats, strings and booleans are
    rejected rather than coerced."""
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} needs an integer field {key!r}, got {value!r}")
    return value


# ---------------------------------------------------------------------
# point shapes
# ---------------------------------------------------------------------

def as_matrix(dom: DomainSpec, z) -> np.ndarray:
    """Coerce a point to its matrix realization (ball: 1 x n row)."""
    z = np.asarray(z, dtype=complex)
    if dom.kind == "polydisc":
        if z.size != dom.dim:
            raise ValidationError(f"point has {z.size} entries, expected {dom.dim}")
        return z.reshape(-1)
    shape = (1, dom.cols) if dom.kind == "ball" else (dom.rows, dom.cols)
    if z.size != dom.dim:
        raise ValidationError(f"point has {z.size} entries, expected {dom.dim}")
    return z.reshape(shape)


def flatten_point(dom: DomainSpec, z) -> np.ndarray:
    return np.asarray(z, dtype=complex).reshape(-1)


def _shape_like(ref, flat: np.ndarray) -> np.ndarray:
    ref = np.asarray(ref)
    return flat.reshape(ref.shape)


# ---------------------------------------------------------------------
# triple product and Bergman operator
# ---------------------------------------------------------------------

def triple_product(dom: DomainSpec, u, v, w) -> np.ndarray:
    """Jordan triple product {u v* w}.

    Matrix families use (u v* w + w v* u)/2; the polydisc acts
    coordinatewise as u_i conj(v_i) w_i.
    """
    if dom.kind == "polydisc":
        um, vm, wm = (flatten_point(dom, x) for x in (u, v, w))
        return _shape_like(w, um * np.conj(vm) * wm)
    um, vm, wm = (as_matrix(dom, x) for x in (u, v, w))
    res = (um @ vm.conj().T @ wm + wm @ vm.conj().T @ um) / 2.0
    return _shape_like(w, res.reshape(-1))


def bergman_apply(dom: DomainSpec, u, v, w) -> np.ndarray:
    """B(u, v)w = w - 2{u v* w} + {u {v w* v}* u}, in closed form."""
    if dom.kind == "polydisc":
        um, vm, wm = (flatten_point(dom, x) for x in (u, v, w))
        return _shape_like(w, (1.0 - um * np.conj(vm)) ** 2 * wm)
    um, vm, wm = (as_matrix(dom, x) for x in (u, v, w))
    left = np.eye(um.shape[0], dtype=complex) - um @ vm.conj().T
    right = np.eye(um.shape[1], dtype=complex) - vm.conj().T @ um
    return _shape_like(w, (left @ wm @ right).reshape(-1))


def bergman_matrix(dom: DomainSpec, u, v) -> np.ndarray:
    """Matrix of B(u, v) on flattened (row-major) coordinates."""
    if dom.kind == "polydisc":
        um, vm = (flatten_point(dom, x) for x in (u, v))
        return np.diag((1.0 - um * np.conj(vm)) ** 2)
    um, vm = (as_matrix(dom, x) for x in (u, v))
    left = np.eye(um.shape[0], dtype=complex) - um @ vm.conj().T
    right = np.eye(um.shape[1], dtype=complex) - vm.conj().T @ um
    # row-major flattening turns w -> left @ w @ right into kron(left, right^T)
    return np.kron(left, right.T)


def triple_product_bergman_apply(dom: DomainSpec, u, v, w) -> np.ndarray:
    """B(u, v)w assembled from triple products only; cross-check route."""
    t1 = triple_product(dom, u, v, w)
    inner = triple_product(dom, v, w, v)
    t2 = triple_product(dom, u, inner, u)
    wf = flatten_point(dom, w)
    return _shape_like(w, wf - 2.0 * flatten_point(dom, t1) + flatten_point(dom, t2))


# ---------------------------------------------------------------------
# quasi-inverse, generic polynomial, norms
# ---------------------------------------------------------------------

def quasi_inverse(dom: DomainSpec, z, xi) -> np.ndarray:
    """Quasi-inverse z^xi = B(z, xi)^{-1} (z - {z xi* z}).

    Exists whenever B(z, xi) is invertible, in particular when
    ``spectral_norm(z) * spectral_norm(xi) < 1``.  Raises
    :class:`SingularBergmanOperator` when the reciprocal condition number of
    the flattened Bergman matrix falls below ``BERGMAN_RCOND_CUTOFF``.
    """
    zf = flatten_point(dom, z)
    xif = flatten_point(dom, xi)
    bmat = bergman_matrix(dom, zf, xif)
    rhs = zf - flatten_point(dom, triple_product(dom, zf, xif, zf))
    sv = np.linalg.svd(bmat, compute_uv=False)
    if sv[0] == 0 or sv[-1] / sv[0] < BERGMAN_RCOND_CUTOFF:
        raise SingularBergmanOperator(
            f"B(z, xi) has rcond {0 if sv[0] == 0 else sv[-1] / sv[0]:.2e}"
        )
    return _shape_like(z, np.linalg.solve(bmat, rhs))


def generic_poly(dom: DomainSpec, z, w) -> complex:
    """Generic norm Delta(z, w); Delta(0, 0) = 1.

    ball: 1 - <z, w>; polydisc: prod(1 - z_i conj(w_i));
    matrixball: det(I - z w*).
    """
    if dom.kind == "ball":
        zf, wf = flatten_point(dom, z), flatten_point(dom, w)
        return complex(1.0 - np.sum(zf * np.conj(wf)))
    if dom.kind == "polydisc":
        zf, wf = flatten_point(dom, z), flatten_point(dom, w)
        return complex(np.prod(1.0 - zf * np.conj(wf)))
    zm, wm = as_matrix(dom, z), as_matrix(dom, w)
    eye = np.eye(dom.rows, dtype=complex)
    return complex(np.linalg.det(eye - zm @ wm.conj().T))


@functools.lru_cache(maxsize=None)
def generic_poly_terms(dom: DomainSpec) -> MappingProxyType[tuple[tuple[int, ...], tuple[int, ...]], float]:
    """Delta as a sparse bi-polynomial {(alpha, beta): coeff}, read-only and
    built once per domain, on first use.

    ``alpha`` indexes monomials in z, ``beta`` in conj(w), both over the
    flattened coordinates; every term has equal total degree in each slot.
    The polydisc is prod(1 - z_i conj(w_i)), one term per subset.  Ball and
    matrix ball expand det(I_r - z w*) by Cauchy-Binet,

        Delta(z, w) = sum_k (-1)^k sum_{|S| = |T| = k} det z_{S,T} conj(det w_{S,T}),

    over row sets S and column sets T: the monomial of a permutation sigma
    of the minor fixes S, T and sigma, so each (S, T, sigma, tau) is one
    term, with coefficient (-1)^k sgn(sigma) sgn(tau), and nothing cancels.
    """
    n = dom.dim
    if dom.kind == "polydisc":
        subsets = itertools.product((0, 1), repeat=n)
        return MappingProxyType({(s, s): float((-1) ** sum(s)) for s in subsets})

    r, c = dom.rows, dom.cols
    terms = {}
    for k in range(r + 1):
        perms = [
            (p, (-1) ** sum(a > b for a, b in itertools.combinations(p, 2)))
            for p in itertools.permutations(range(k))
        ]
        for rows in itertools.combinations(range(r), k):
            for cols in itertools.combinations(range(c), k):
                minor = []  # det z_{S,T}: one (monomial, sign) per permutation
                for perm, sign in perms:
                    picked = {i * c + cols[j] for i, j in zip(rows, perm)}
                    minor.append((tuple(int(m in picked) for m in range(n)), sign))
                for (alpha, s), (beta, t) in itertools.product(minor, repeat=2):
                    terms[(alpha, beta)] = float((-1) ** k * s * t)
    return MappingProxyType(terms)


def spectral_norm(dom: DomainSpec, z) -> float:
    """Jordan spectral norm: Euclidean (ball), max modulus (polydisc), top
    singular value (matrixball)."""
    if dom.kind == "ball":
        return float(np.linalg.norm(flatten_point(dom, z)))
    if dom.kind == "polydisc":
        return float(np.max(np.abs(flatten_point(dom, z)))) if dom.dim else 0.0
    return float(np.linalg.norm(as_matrix(dom, z), 2))


def in_domain(dom: DomainSpec, z) -> bool:
    return spectral_norm(dom, z) < 1.0


# ---------------------------------------------------------------------
# Moebius transformations
# ---------------------------------------------------------------------

def hermitian_sqrt(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    Eigendecomposition with eigenvalues clamped at zero; deterministic and
    exactly Hermitian output.
    """
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    return (root + root.conj().T) / 2.0


@dataclass(frozen=True, eq=False)
class Mobius:
    """Moebius transformation g_{z0}(w) = z0 + B(z0,z0)^{1/2} (w quasi-inverse
    at -z0); g_{z0}(0) = z0, g_{z0}(-z0) = 0, inverse is g_{-z0}."""

    dom: DomainSpec
    z0: np.ndarray
    half: np.ndarray  # flattened B(z0, z0)^{1/2}

    def __call__(self, w) -> np.ndarray:
        qi = flatten_point(self.dom, quasi_inverse(self.dom, flatten_point(self.dom, w), -self.z0))
        return _shape_like(w, self.z0 + self.half @ qi)

    def inverse(self) -> "Mobius":
        return mobius(self.dom, -self.z0)


def mobius(dom: DomainSpec, z0) -> Mobius:
    z0f = flatten_point(dom, z0)
    if not in_domain(dom, z0f):
        raise PointOutsideDomain(
            f"moebius base point has spectral norm {spectral_norm(dom, z0f):.6f} >= 1"
        )
    half = hermitian_sqrt(bergman_matrix(dom, z0f, z0f))
    return Mobius(dom, z0f, half)
