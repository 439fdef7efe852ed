"""Anisotropic Fourier laboratory: dyadic band machinery on a 2D chart."""

from .partition import (
    BoxGrid,
    admissible_directions,
    chi_n,
    dyadic_partition_eval,
    dyadic_partition_sum,
    mixed_norm_L1F,
    mollifier_chi,
    psi_tilde_eval,
    young_check,
)
from .blocks import (
    BlockOperator,
    FlatTraceQuadrature,
    h_exponents,
    hook,
    hook_mask,
    kneading_check,
    triangularity_product_check,
)

__all__ = [
    "BoxGrid",
    "BlockOperator",
    "FlatTraceQuadrature",
    "admissible_directions",
    "chi_n",
    "dyadic_partition_eval",
    "dyadic_partition_sum",
    "h_exponents",
    "hook",
    "hook_mask",
    "kneading_check",
    "mixed_norm_L1F",
    "mollifier_chi",
    "psi_tilde_eval",
    "triangularity_product_check",
    "young_check",
]
