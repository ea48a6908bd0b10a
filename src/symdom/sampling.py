"""Seeded random points, boundary samples and commuting test tuples."""

from __future__ import annotations

import numpy as np

from .domains import DomainSpec, spectral_norm
from .errors import ValidationError


def random_point(
    dom: DomainSpec, rng: np.random.Generator, max_norm: float = 0.9
) -> np.ndarray:
    """A random point with spectral norm uniformly below ``max_norm``."""
    raw = rng.standard_normal(dom.dim) + 1j * rng.standard_normal(dom.dim)
    norm = spectral_norm(dom, raw)
    if norm == 0:
        return raw
    radius = max_norm * rng.uniform(0.05, 0.999)
    return raw * (radius / norm)


def shilov_samples(dom: DomainSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Points on the Shilov boundary, one flattened point per row.

    ball: unit vectors; polydisc: torus points; matrixball: co-isometries
    (r x c matrices with w w* = I) from the polar part of Gaussian draws.
    """
    if dom.kind == "ball":
        raw = rng.standard_normal((count, dom.dim)) + 1j * rng.standard_normal(
            (count, dom.dim)
        )
        return raw / np.linalg.norm(raw, axis=1)[:, None]
    if dom.kind == "polydisc":
        return np.exp(2j * np.pi * rng.uniform(size=(count, dom.dim)))
    r, c = dom.rows, dom.cols
    out = np.empty((count, r * c), dtype=complex)
    for i in range(count):
        a = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
        u, _, vh = np.linalg.svd(a, full_matrices=False)
        out[i] = (u @ vh).reshape(-1)
    return out


def closed_domain_samples(
    dom: DomainSpec, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Mix of Shilov-boundary points and interior scalings of them, used to
    lower-bound symbol denominators on the closed domain."""
    boundary = shilov_samples(dom, count // 2, rng)
    interior = shilov_samples(dom, count - count // 2, rng)
    radii = rng.uniform(0.0, 1.0, size=interior.shape[0]) ** (1.0 / max(dom.dim, 1))
    return np.vstack([boundary, interior * radii[:, None]])


def random_commuting_tuple(
    n: int,
    h: int,
    rng: np.random.Generator,
    spectral_radius: float = 0.7,
    jordan: bool = False,
) -> list[np.ndarray]:
    """Commuting n-tuple on C^h built as polynomials of one seed matrix.

    With ``jordan=True`` the seed is a similarity transform of a Jordan
    block, so the tuple has defective joint eigenvalues.
    """
    if n < 1 or h < 1:
        raise ValidationError("need n >= 1 and h >= 1")
    if jordan:
        seed = np.diag(np.full(h, 0.5 + 0.0j)) + np.diag(np.ones(h - 1), 1)
        sim = np.eye(h) + 0.3 * rng.standard_normal((h, h))
        seed = np.linalg.solve(sim, seed @ sim)
    else:
        seed = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
    radius = max(np.abs(np.linalg.eigvals(seed)))
    if radius > 0:
        seed *= 0.9 / radius
    mats = []
    eye = np.eye(h, dtype=complex)
    for _ in range(n):
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        mat = coeffs[0] * 0.2 * eye + coeffs[1] * seed + coeffs[2] * (seed @ seed)
        rho = max(np.abs(np.linalg.eigvals(mat)))
        if rho > 0:
            mat *= spectral_radius * rng.uniform(0.5, 1.0) / rho
        mats.append(mat)
    return mats
