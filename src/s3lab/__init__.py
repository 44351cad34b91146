"""Numerical laboratory for SU(2) harmonic analysis on the three-sphere and
refined space-time estimates on R x T: Clebsch-Gordan tables, exact bilinear
eigenfunction norms, lattice measure/counting scans, and FFT-based L4
quotient experiments."""

__version__ = "0.1.0"

from .su2 import (
    GroupElement,
    HaarQuadrature,
    character,
    from_angles,
    group_mul,
    haar_quadrature,
    haar_sample,
    irrep_matrix,
    ladder_coeff,
)
from .clebsch import CGTable, casimir_matrix, cg_decompose, cg_table, verify_orthogonality
from .bilinear import (
    Eigenfunction,
    bilinear_ratio,
    evaluate,
    product_decompose,
    product_l2_exact,
    product_l2_quadrature,
    zonal,
)
from .lattice import (
    AnnulusQuery,
    SetBQuery,
    annulus_measure,
    count_hyperbola,
    count_quadric,
    setB_measure,
)
from .strichartz import (
    FrequencyGrid,
    SlabSpec,
    WavePacket,
    evolve_l4_norm,
    fejer_hat,
    fejer_weight,
    hyperbolic_l4_quotient,
    kernel_split_diagnostics,
    quadrilinear_form_frequency,
    sample_slab_packet,
    strichartz_quotient,
)
