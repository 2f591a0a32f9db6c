"""Counting engine and verification harness for integral and rational
points of bounded height on the singular cubics x^3 = (y_1^2+...+y_n^2) z,
n a positive multiple of 4.

Exact counters live in :mod:`manincount.counting`, the integer kernel in
:mod:`manincount.arith`, high-precision constants and asymptotic main
terms in :mod:`manincount.asymptotics`, and the Hessian rank audit in
:mod:`manincount.hessian`.  The ``manincount`` command drives all of it.
"""

from .arith import (
    ResourceBudgetError,
    bernoulli,
    factorize,
    mobius_sieve,
    rn_exact_table,
    rn_star,
)
from .asymptotics import (
    ConstantsBundle,
    EulerProductValue,
    PolynomialP,
    closed_form_C4,
    constants_bundle,
    euler_product_G,
    predict_S,
    predict_T,
    predict_counts,
)
from .counting import (
    apply_D,
    count_affine_bruteforce,
    count_affine_exact,
    count_projective,
    count_projective_bruteforce,
    identity_scan,
    mean_value_M,
    s_sum,
    t_sum,
)
from .hessian import (
    hessian_at,
    rank_over_rationals,
    rank_profile,
)

__version__ = "0.1.0"
