"""Numerical laboratory for commuting operator tuples on bounded symmetric
domains: Jordan-triple geometry, reproducing-kernel Gram data, truncated
Hilbert-module models, Koszul spectrum tests and Szegoe-type calculus."""

from .domains import (
    DomainSpec,
    bergman_apply,
    bergman_matrix,
    generic_poly,
    mobius,
    quasi_inverse,
    spectral_norm,
    triple_product,
)
from .errors import SymdomError
from .kernels import (
    TruncatedBasis,
    closed_form_norm,
    gram_block,
    gram_blocks,
    kernel_eval,
    kernel_series,
    truncated_basis,
)
from .koszul import (
    joint_eigenvalues,
    koszul_boundaries,
    taylor_point_test,
    taylor_point_tests,
)
from .operators import (
    QuotientModel,
    compress,
    compress_rational,
    cross_commutator,
    essential_normality_profile,
    mult_op,
    permissive_transform,
    quotient_model,
    schatten_norm,
)
from .polynomials import Polynomial, RationalSymbol
from .wallach import (
    classify_weight,
    embedding_ratio_profile,
    finite_rank_membership,
    gindikin_gamma,
    partitions_up_to,
    pochhammer,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
