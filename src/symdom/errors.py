"""Exception hierarchy shared across the package.

Every guard that turns a numerical degeneracy into a hard failure raises a
subclass of :class:`SymdomError`, so callers (and the CLI) can distinguish
"bad input" from "computation fell off a cliff".
"""

from __future__ import annotations


class SymdomError(Exception):
    """Base class for all package-specific failures."""


class ValidationError(SymdomError):
    """Malformed input: shapes, JSON configs, unsupported domain kinds."""


class PointOutsideDomain(SymdomError):
    """A point that must lie in the open domain has spectral norm >= 1."""


class SingularBergmanOperator(SymdomError):
    """Bergman operator B(z, xi) is numerically singular (rcond below cutoff)."""


class PoleError(SymdomError):
    """Gamma factor evaluated at a non-positive integer argument."""


class NotAModuleWeight(SymdomError):
    """Weight is outside the continuous Wallach range, so no Hilbert module."""


class BranchCutError(SymdomError):
    """Principal power undefined: base touches the closed negative real axis."""


class DenominatorVanishes(SymdomError):
    """Rational symbol denominator comes too close to zero on the closed domain."""


class NumericallySingular(SymdomError):
    """Matrix inversion requested past the conditioning cutoff."""


class SingularDenominator(SymdomError):
    """Denominator of a rational symbol vanishes on the spectrum of the tuple."""


class NotCommuting(SymdomError):
    """Operator tuple fails the pairwise commutation tolerance."""


class ConsensusFailure(SymdomError):
    """Two randomized joint-eigenvalue extractions disagree after matching."""


class NotPermissive(SymdomError):
    """Affine transform would push the joint spectrum outside the closed domain."""


class SpectrumTouchesBoundary(SymdomError):
    """Joint spectrum not strictly interior, series calculus would diverge."""


class SeriesDivergence(SymdomError):
    """Operator power series failed to contract within the degree budget."""


class QuadratureUnderResolved(SymdomError):
    """Self-reported quadrature error estimate exceeds the requested tolerance."""


class NonFiniteValue(SymdomError):
    """A computed value overflowed to inf or NaN: an input past the float range."""


class ConfigError(ValidationError):
    """Experiment configuration failed validation; message carries the field path."""
