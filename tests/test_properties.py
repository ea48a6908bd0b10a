"""Property tests with Hypothesis: quotient models by random homogeneous
generator sets agree with the dense filtration route
(``prefix_svd_complement``: SVDs of the dense ``mult_op`` columns), in
their submodules (invariant under the dense truncated multipliers) and in
the Schatten cells of the coordinate and Moebius symbols, which the dense
route takes from the sandwiches Q^H P_D M_f P_D Q on its own Q; the
compressions of polynomial symbols (products of the stored blocks) and of
rational ones (block substitution over the labels) are the dense sandwich
and S_p S_q^{-1} with a dense inverse.  The profile cells of coordinate,
Moebius, degree-2 and mixed symbol lists are those of the dense route."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_operators import prefix_svd_complement

from symdom.calculus import mobius_rational_components
from symdom.domains import DomainSpec
from symdom.kernels import multi_indices, truncated_basis
from symdom.operators import (
    compress,
    compress_rational,
    cross_commutator,
    essential_normality_profile,
    mult_op,
    quotient_model,
    schatten_norm,
)
from symdom.polynomials import Polynomial

# (domain, weight, largest truncation degree) with continuous-class weights
DOMAINS = [
    (DomainSpec.ball(2), 2.0, 5),
    (DomainSpec.polydisc(2), 2.0, 5),
    (DomainSpec.matrix_ball(2, 2), 2.5, 5),
    (DomainSpec.matrix_ball(2, 3), 3.5, 3),
]
COEFFS = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 1.5])
# Moebius base points: every entry at most 0.3, so each base point is
# interior on all four domains (Frobenius norm at most 0.3 sqrt(6) < 1)
BASE_ENTRIES = st.sampled_from([0.0, 0.2, -0.1, 0.15j, 0.3, -0.2 + 0.1j])
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


@st.composite
def symbol(draw, n):
    """A polynomial of degree at most 3 in n variables, with one to four
    terms and complex coefficients, a constant term allowed."""
    alphas = [a for d in range(4) for a in multi_indices(n, d)]
    picked = draw(st.lists(st.sampled_from(alphas), min_size=1, max_size=4, unique=True))
    return Polynomial(n, {a: draw(COEFFS) + 1j * draw(COEFFS) for a in picked})


def both_paths(case):
    """The basis, the model and the dense filtration route's (Q, labels) of
    one case."""
    dom, lam, d_trunc, gens = case
    basis = truncated_basis(dom, lam, d_trunc)
    return basis, quotient_model(basis, gens), prefix_svd_complement(basis, gens)


def sandwich(basis, q, f):
    """The dense oracle Q^H P_D M_f P_D Q."""
    return q.conj().T @ mult_op(basis, f) @ q


def assert_dense_cells(model, rows, basis, reference, symbols):
    """The profile rows of ``model`` against the dense cells on the
    reference's Q, each within 1e-12 relative or both below 1e-13."""
    q, labels = reference
    assert np.array_equal(model.degree_labels, labels)
    want = dense_cells(basis, q, labels, symbols, max(f.degree() for f in symbols) + 1, P_VALUES)
    assert len(rows) == len(want) > 0
    for row, cells in zip(rows, want):
        assert row.dim_quotient == labels.size
        for got, ref in zip((row.schatten_full, row.schatten_windowed), cells):
            assert abs(got - ref) <= 1e-12 * ref or max(got, ref) < 1e-13


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(quotient_cases())
def test_graded_and_filtration_paths_agree_on_invariant_submodules(case):
    dom = case[0]
    basis, model, (q, labels) = both_paths(case)
    assert np.array_equal(model.degree_labels, labels)
    proj = model.projector()
    assert np.abs(proj - q @ q.conj().T).max(initial=0.0) < 1e-12
    module = np.eye(basis.dim) - proj
    for i in range(dom.dim):
        op = mult_op(basis, Polynomial.coordinate(i, dom.dim))
        defect = np.linalg.norm(proj @ op @ module, 2)
        assert defect <= 1e-12 * max(1.0, np.linalg.norm(op, 2))


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(quotient_cases())
def test_graded_and_filtration_paths_give_the_same_coordinate_cells(case):
    # the model forms [S_i, S_j*] from its stored cell-pair blocks, the
    # dense route from the sandwiches on its own Q
    z = [Polynomial.coordinate(i, case[0].dim) for i in range(case[0].dim)]
    basis, model, reference = both_paths(case)
    assert_dense_cells(model, essential_normality_profile(model, z, P_VALUES), basis, reference, z)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(st.data())
def test_compress_is_the_dense_sandwich(data):
    case = data.draw(quotient_cases())
    f = data.draw(symbol(case[0].dim))
    basis, model, _ = both_paths(case)
    want = sandwich(basis, model.quotient_onb, f)
    assert np.abs(compress(model, f) - want).max(initial=0.0) <= 1e-12 * max(
        1.0, np.abs(want).max(initial=0.0)
    )


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(st.data())
def test_compress_rational_is_the_dense_inverse_route(data):
    # the oracle is the dense route: S_p inv(S_q) with both compressions
    # dense sandwiches
    case = data.draw(quotient_cases())
    dom = case[0]
    z0 = data.draw(st.lists(BASE_ENTRIES, min_size=dom.dim, max_size=dom.dim))
    basis, model, _ = both_paths(case)
    q = model.quotient_onb
    for s in mobius_rational_components(dom, z0):
        want = sandwich(basis, q, s.p) @ np.linalg.inv(sandwich(basis, q, s.q))
        got = compress_rational(model, s.p, s.q)
        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * max(
            1.0, np.abs(want).max(initial=0.0)
        )


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(st.data())
def test_graded_and_filtration_paths_give_the_same_mobius_cells(data):
    case = data.draw(quotient_cases())
    dom = case[0]
    z0 = data.draw(st.lists(BASE_ENTRIES, min_size=dom.dim, max_size=dom.dim))
    symbols = mobius_rational_components(dom, z0)
    basis, model, reference = both_paths(case)
    rows = essential_normality_profile(model, symbols, P_VALUES)
    assert_dense_cells(model, rows, basis, reference, symbols)


# The dense oracle of every Schatten cell: dense sandwiches of mult_op for
# the compressions (S_p inv(S_q) with a dense inverse for the Moebius
# components), cross_commutator, and schatten_norm of the full matrix and of
# its label window.  Domains with their largest truncation degree, and per
# domain the generator sets: a coordinate, a sum of two coordinates whose
# torus classes merge into groups (z11 + z22 on a matrix ball), det on
# MB(2,2), and the inhomogeneous z1^2 + z2 of the filtration path.
ORACLE_DOMAINS = [
    (DomainSpec.ball(2), 2.0, 6, [0.3, -0.1j]),
    (DomainSpec.polydisc(2), 2.0, 6, [0.3, -0.1j]),
    (DomainSpec.matrix_ball(1, 3), 2.5, 6, [0.2, 0.1, -0.15j]),
    (DomainSpec.matrix_ball(2, 2), 2.5, 6, [0.2, 0.1, 0.0, 0.3]),
    (DomainSpec.matrix_ball(2, 3), 3.5, 4, [0.2, 0.1, 0.0, 0.0, 0.15j, -0.1]),
]
ORACLE_PS = [1.0, 1.5, 2.0, 3.0, np.inf]


def oracle_generators(dom):
    """Named generator sets for the dense-oracle cells of one domain."""
    n = dom.dim
    z = [Polynomial.coordinate(i, n) for i in range(n)]
    sets = {"z1": [z[0]], "z1^2+z2": [z[0] * z[0] + z[1]]}
    if dom.kind == "matrixball" and dom.rows > 1:
        cols = dom.cols
        sets["z11+z22"] = [z[0] + z[cols + 1]]
        if cols == 2:
            sets["det"] = [z[0] * z[3] - z[1] * z[2]]
    return sets


def dense_cells(basis, q, labels, symbols, window, ps):
    """Per pair a <= b and p in ``ps``: the full and windowed Schatten
    p-norms of [S_a, S_b*] by the dense route on the complement Q with
    these labels."""

    def dense(f):
        if isinstance(f, Polynomial):
            return q.conj().T @ mult_op(basis, f) @ q
        return dense(f.p) @ np.linalg.inv(dense(f.q))

    mats = [dense(f) for f in symbols]
    keep = np.flatnonzero(labels <= basis.max_degree - window)
    out = []
    for a, b in itertools.combinations_with_replacement(range(len(symbols)), 2):
        comm = cross_commutator(mats[a], mats[b])
        out += [(schatten_norm(comm, p), schatten_norm(comm[np.ix_(keep, keep)], p)) for p in ps]
    return out


@pytest.mark.parametrize(
    "dom, lam, d_trunc, z0", ORACLE_DOMAINS, ids=[d.label() for d, *_ in ORACLE_DOMAINS]
)
def test_cells_are_the_dense_route(dom, lam, d_trunc, z0):
    # every coordinate, Moebius, degree-2 and mixed cell within 1e-13
    # relative, plus 1e-15 absolute: the symbols are contractions (or near
    # them, for the degree-2 ones), so either route rounds the
    # commutator's entries by about 1e-16, which shows relative to a cell
    # near zero.  The polydisc's [S_1, S_2*] vanishes in exact arithmetic,
    # and MB(1,3)/z1's Moebius [S_11, S_11*] is 7.5e-4 with an 8e-17 gap
    basis = truncated_basis(dom, lam, d_trunc)
    z = [Polynomial.coordinate(i, dom.dim) for i in range(dom.dim)]
    mobius = mobius_rational_components(dom, z0)
    # degree 2: products of coordinates, a complex coefficient and a constant
    quadratic = [z[0] * z[-1], z[1] * z[1] + (0.5 - 0.25j) * z[0] + Polynomial.constant(dom.dim, 0.3)]
    families = {
        "coordinates": z,
        "mobius": mobius,
        "quadratic": quadratic,
        "mixed": [z[-1], mobius[0], quadratic[1]],
    }
    for name, gens in oracle_generators(dom).items():
        model = quotient_model(basis, gens)
        for family, symbols in families.items():
            rows = essential_normality_profile(model, symbols, ORACLE_PS)
            want = dense_cells(
                basis, model.quotient_onb, model.degree_labels, symbols,
                max(f.degree() for f in symbols) + 1, ORACLE_PS,
            )
            assert len(rows) == len(want), (name, family)
            for row, cells in zip(rows, want):
                assert row.dim_quotient == model.dim_quotient
                for got, ref in zip((row.schatten_full, row.schatten_windowed), cells):
                    assert abs(got - ref) <= 1e-13 * ref + 1e-15, (
                        name, family, row.symbol_i, row.symbol_j, row.p, got, ref,
                    )
