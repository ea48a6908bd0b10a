"""Sparse polynomials in several complex variables.

A polynomial is a map from exponent multi-indices (length-n integer tuples)
to complex coefficients.  This is deliberately small: just enough arithmetic
to express symbols, submodule generators and rational Moebius components,
plus evaluation at commuting matrix tuples and at points, the latter through
one batched evaluator, :meth:`Polynomial.eval_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ValidationError

MultiIndex = tuple[int, ...]


def _clean(terms: Mapping[MultiIndex, complex]) -> dict[MultiIndex, complex]:
    out: dict[MultiIndex, complex] = {}
    for alpha, c in terms.items():
        key = tuple(int(a) for a in alpha)
        if any(a < 0 for a in key):
            raise ValidationError(f"negative exponent in multi-index {key}")
        c = complex(c)
        if c != 0:
            out[key] = out.get(key, 0.0) + c
            if out[key] == 0:
                del out[key]
    return out


@dataclass(frozen=True)
class Polynomial:
    """Immutable sparse polynomial in ``nvars`` complex variables."""

    nvars: int
    terms: Mapping[MultiIndex, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = _clean(self.terms)
        for alpha in cleaned:
            if len(alpha) != self.nvars:
                raise ValidationError(
                    f"multi-index {alpha} does not have {self.nvars} entries"
                )
        object.__setattr__(self, "terms", cleaned)

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars, {})

    @staticmethod
    def constant(nvars: int, value: complex) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: value})

    @staticmethod
    def coordinate(i: int, nvars: int) -> "Polynomial":
        """The coordinate function z_i (zero-based index)."""
        if not 0 <= i < nvars:
            raise ValidationError(f"coordinate index {i} out of range for n={nvars}")
        alpha = [0] * nvars
        alpha[i] = 1
        return Polynomial(nvars, {tuple(alpha): 1.0})

    @staticmethod
    def monomial(alpha: Iterable[int], coeff: complex = 1.0) -> "Polynomial":
        alpha = tuple(int(a) for a in alpha)
        return Polynomial(len(alpha), {alpha: coeff})

    # -- structure ----------------------------------------------------
    def __iter__(self) -> Iterator[tuple[MultiIndex, complex]]:
        return iter(sorted(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(alpha) for alpha in self.terms)

    def homogeneous_parts(self) -> dict[int, "Polynomial"]:
        parts: dict[int, dict[MultiIndex, complex]] = {}
        for alpha, c in self.terms.items():
            parts.setdefault(sum(alpha), {})[alpha] = c
        return {d: Polynomial(self.nvars, t) for d, t in sorted(parts.items())}

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        merged = dict(self.terms)
        for alpha, c in other.terms.items():
            merged[alpha] = merged.get(alpha, 0.0) + c
        return Polynomial(self.nvars, merged)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (other * (-1.0))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            prod: dict[MultiIndex, complex] = {}
            for a, ca in self.terms.items():
                for b, cb in other.terms.items():
                    key = tuple(x + y for x, y in zip(a, b))
                    prod[key] = prod.get(key, 0.0) + ca * cb
            return Polynomial(self.nvars, prod)
        return Polynomial(self.nvars, {a: c * other for a, c in self.terms.items()})

    __rmul__ = __mul__

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValidationError(
                f"polynomials in {self.nvars} and {other.nvars} variables"
            )

    # -- evaluation ---------------------------------------------------
    def eval_point(self, z) -> complex:
        """Value at one point; a one-row call into :meth:`eval_batch`."""
        z = np.asarray(z, dtype=complex).reshape(1, -1)
        return complex(self.eval_batch(z)[0])

    def eval_batch(self, points) -> np.ndarray:
        """Values at many points at once, one point per row of ``points``.

        ``points`` has shape (N, nvars); the result has shape (N,).  Each
        monomial is formed column by column and the terms are summed in a
        fixed order.
        """
        points = np.asarray(points, dtype=complex)
        if points.ndim != 2 or points.shape[1] != self.nvars:
            raise ValidationError(
                f"points have shape {points.shape}, expected (N, {self.nvars})"
            )
        out = np.zeros(points.shape[0], dtype=complex)
        for alpha, c in self.terms.items():
            term = np.full(points.shape[0], c, dtype=complex)
            for i, a in enumerate(alpha):
                if a:
                    term *= points[:, i] ** a
            out += term
        return out

    def eval_tuple(self, mats) -> np.ndarray:
        """Evaluate on a commuting tuple of square matrices.

        Monomials are formed as ordered products T_1^a1 ... T_n^an; for a
        commuting tuple the order is immaterial.
        """
        mats = [np.asarray(m, dtype=complex) for m in mats]
        if len(mats) != self.nvars:
            raise ValidationError(
                f"tuple has {len(mats)} components, expected {self.nvars}"
            )
        h = mats[0].shape[0]
        for m in mats:
            if m.shape != (h, h):
                raise ValidationError("tuple components must be square, same size")
        powers: list[dict[int, np.ndarray]] = [
            {0: np.eye(h, dtype=complex)} for _ in mats
        ]

        def power(i: int, k: int) -> np.ndarray:
            cache = powers[i]
            if k not in cache:
                have = max(j for j in cache if j <= k)
                cur = cache[have]
                while have < k:
                    cur = cur @ mats[i]
                    have += 1
                    cache[have] = cur
            return cache[k]

        out = np.zeros((h, h), dtype=complex)
        for alpha, c in self.terms.items():
            term = np.eye(h, dtype=complex)
            for i, ai in enumerate(alpha):
                if ai:
                    term = term @ power(i, ai)
            out += c * term
        return out

    def label(self) -> str:
        """Compact human-readable form, used in CSV symbol columns."""
        if not self.terms:
            return "0"
        bits = []
        for alpha, c in sorted(self.terms.items()):
            mono = "*".join(
                f"z{i + 1}" + (f"^{a}" if a > 1 else "")
                for i, a in enumerate(alpha)
                if a
            )
            if not mono:
                mono = "1"
            if c == 1 and mono != "1":
                bits.append(mono)
            else:
                cs = f"{c.real:g}" if c.imag == 0 else f"({c.real:g}{c.imag:+g}j)"
                bits.append(cs if mono == "1" else f"{cs}*{mono}")
        return "+".join(bits).replace("+-", "-")


@dataclass(frozen=True)
class RationalSymbol:
    """Quotient p/q of two polynomials in the same variables."""

    p: Polynomial
    q: Polynomial
    name: str = ""

    def __post_init__(self) -> None:
        self.p._check_compatible(self.q)
        if self.q.is_zero():
            raise ValidationError("rational symbol with zero denominator")

    @property
    def nvars(self) -> int:
        return self.p.nvars

    def degree(self) -> int:
        return max(self.p.degree(), self.q.degree())

    def eval_point(self, z) -> complex:
        return self.p.eval_point(z) / self.q.eval_point(z)

    def label(self) -> str:
        return self.name or f"({self.p.label()})/({self.q.label()})"
