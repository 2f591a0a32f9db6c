"""Counting engine and verification harness for integral and rational
points of bounded height on the singular cubics x^3 = (y_1^2+...+y_n^2) z,
n a positive multiple of 4.

Exact counters live in :mod:`manincount.counting`, the integer kernel in
:mod:`manincount.arith`, high-precision constants and asymptotic main
terms in :mod:`manincount.asymptotics`, and the Hessian rank audit in
:mod:`manincount.hessian`.  The ``manincount`` command drives all of it.

``import manincount`` loads only the integer modules (``arith``,
``counting``, ``hessian``).  The constants names (``ConstantsBundle``,
``EulerProductValue``, ``PolynomialP``, ``closed_form_C4``,
``constants_bundle``, ``euler_product_G``, ``predict_S``, ``predict_T``,
``predict_counts``) and ``manincount.asymptotics`` itself load
:mod:`manincount.asymptotics`, and with it mpmath, on first use.  So a
pool worker started under spawn or forkserver, which imports the package
to unpickle its block job from ``counting``, loads no mpmath.
"""

from importlib import import_module as _import_module

from .arith import (
    ResourceBudgetError,
    bernoulli,
    factorize,
    mobius_sieve,
    rn_exact_table,
    rn_star,
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

_LAZY = (
    "ConstantsBundle",
    "EulerProductValue",
    "PolynomialP",
    "closed_form_C4",
    "constants_bundle",
    "euler_product_G",
    "predict_S",
    "predict_T",
    "predict_counts",
)

__all__ = [
    "arith", "asymptotics", "counting", "hessian",
    "ResourceBudgetError", "bernoulli", "factorize", "mobius_sieve", "rn_exact_table", "rn_star",
    *_LAZY,
    "apply_D", "count_affine_bruteforce", "count_affine_exact", "count_projective",
    "count_projective_bruteforce", "identity_scan", "mean_value_M", "s_sum", "t_sum",
    "hessian_at", "rank_over_rationals", "rank_profile",
]


def __getattr__(name: str):
    # Each lazy name is read from the submodule on every access and never
    # stored here, so the submodule stays its one holder.
    if name == "asymptotics" or name in _LAZY:
        module = _import_module(f"{__name__}.asymptotics")
        return module if name == "asymptotics" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
