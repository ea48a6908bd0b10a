"""The frozen dataclasses that hold numpy arrays compare by identity.

The generated ``__eq__`` of a dataclass compares its fields as a tuple, and
an array field makes that comparison raise (the truth value of an array is
ambiguous); the generated ``__hash__`` of a frozen one hashes the fields,
and an array is unhashable.  Each of these classes is declared with
``eq=False``: equality is identity, and the hash is the object's own.
"""

import dataclasses

import numpy as np
import pytest

from symdom.calculus import CalculusResult, ShilovQuadrature, shilov_quadrature
from symdom.domains import DomainSpec, Mobius, mobius
from symdom.kernels import (
    GramBlock,
    SeriesBlock,
    TruncatedBasis,
    gram_blocks,
    kernel_series,
    truncated_basis,
)
from symdom.koszul import KoszulComplex, koszul_boundaries
from symdom.operators import QuotientModel, quotient_model
from symdom.polynomials import Polynomial

BALL2 = DomainSpec.ball(2)

MAKERS = {
    ShilovQuadrature: lambda: shilov_quadrature(BALL2, 1),
    CalculusResult: lambda: CalculusResult(np.array([1.0, 2.0j]), 0.0, 8, 1),
    Mobius: lambda: mobius(BALL2, [0.3, 0.1]),
    SeriesBlock: lambda: kernel_series(BALL2, 2.0, 3)[2],
    GramBlock: lambda: gram_blocks(BALL2, 2.0, 3)[2],
    TruncatedBasis: lambda: truncated_basis(BALL2, 2.0, 3),
    KoszulComplex: lambda: koszul_boundaries([np.diag([1.0, 2.0]), np.diag([0.5, 0.0])]),
    QuotientModel: lambda: quotient_model(truncated_basis(BALL2, 2.0, 3), [Polynomial.coordinate(0, 2)]),
}


@pytest.mark.parametrize("cls", MAKERS, ids=lambda cls: cls.__name__)
def test_array_dataclasses_compare_by_identity(cls):
    a = MAKERS[cls]()
    b = dataclasses.replace(a)  # the same field values, another object
    assert isinstance(a, cls) and any(
        isinstance(getattr(a, f.name), (np.ndarray, tuple)) for f in dataclasses.fields(a)
    )
    assert a == a and not a != a
    assert a != b and not a == b
    assert len({a, b, a}) == 2 and hash(a) == hash(a)
