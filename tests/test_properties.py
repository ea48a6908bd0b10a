"""Property tests with Hypothesis: quotient models by random homogeneous
generator sets agree across the graded and filtration paths, in their
submodules (invariant under the dense truncated multipliers) and in the
Schatten cells of the coordinate symbols."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from symdom import operators
from symdom.domains import DomainSpec
from symdom.kernels import multi_indices, truncated_basis
from symdom.operators import _filtration_model, _graded_model, essential_normality_profile, mult_op
from symdom.polynomials import Polynomial

# (domain, weight, largest truncation degree) with continuous-class weights
DOMAINS = [
    (DomainSpec.ball(2), 2.0, 5),
    (DomainSpec.polydisc(2), 2.0, 5),
    (DomainSpec.matrix_ball(2, 2), 2.5, 5),
    (DomainSpec.matrix_ball(2, 3), 3.5, 3),
]
COEFFS = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 1.5])
P_VALUES = [1.0, 2.0, 3.0, np.inf]


@st.composite
def homogeneous_generator(draw, n):
    """A monomial or a real binomial of degree 1 or 2 in n variables."""
    alphas = multi_indices(n, draw(st.integers(1, 2)))
    picked = draw(st.lists(st.sampled_from(alphas), min_size=1, max_size=2, unique=True))
    return Polynomial(n, {alpha: draw(COEFFS) for alpha in picked})


@st.composite
def quotient_cases(draw):
    dom, lam, top = draw(st.sampled_from(DOMAINS))
    gens = draw(st.lists(homogeneous_generator(dom.dim), min_size=1, max_size=2))
    d_trunc = draw(st.integers(max(g.degree() for g in gens), top))
    return dom, lam, d_trunc, gens


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(quotient_cases())
def test_graded_and_filtration_paths_agree_on_invariant_submodules(case):
    dom, lam, d_trunc, gens = case
    basis = truncated_basis(dom, lam, d_trunc)
    graded = _graded_model(basis, gens)
    filtered = _filtration_model(basis, gens)
    assert np.array_equal(graded.degree_labels, filtered.degree_labels)
    proj = graded.projector()
    assert np.abs(proj - filtered.projector()).max(initial=0.0) < 1e-12
    module = np.eye(basis.dim) - proj
    for i in range(dom.dim):
        op = mult_op(basis, Polynomial.coordinate(i, dom.dim))
        defect = np.linalg.norm(proj @ op @ module, 2)
        assert defect <= 1e-12 * max(1.0, np.linalg.norm(op, 2))


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(quotient_cases())
def test_graded_and_filtration_paths_give_the_same_coordinate_cells(case):
    # both read [S_i, S_j*] from the label blocks: one label per run on the
    # graded path, one run cut by the window on the filtration path
    dom, lam, d_trunc, gens = case
    z = [Polynomial.coordinate(i, dom.dim) for i in range(dom.dim)]
    args = (dom, lam, gens, z, P_VALUES, [d_trunc])
    graded = essential_normality_profile(*args)
    with mock.patch.object(operators, "quotient_model", _filtration_model):
        filtered = essential_normality_profile(*args)
    assert len(graded) == len(filtered) > 0
    for a, b in zip(graded, filtered):
        assert a.dim_quotient == b.dim_quotient
        for got, want in (
            (a.schatten_full, b.schatten_full),
            (a.schatten_windowed, b.schatten_windowed),
        ):
            assert abs(got - want) <= 1e-12 * want or max(got, want) < 1e-13
