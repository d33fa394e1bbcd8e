"""Harmonic analysis on finite inverse semigroups.

Mobius inversion and the groupoid basis, Steinberg-induced unitary irreps,
Fourier transforms of matrix-valued maps with inversion and Plancherel, and
numerical verification of Bochner's theorem, Choi's theorem, Stinespring
dilation and the CP-vs-positivity criterion.
"""

__version__ = "0.1.0"

from . import cxmat, errors, grouprep, harmonic, maps, positivity, semigroup
from .cxmat import DEFAULT_TOL, BlockTensor, is_psd, kron, partial_trace_left
from .harmonic import (
    FourierData,
    InducedRep,
    MatrixMap,
    fourier,
    fourier_invert,
    fourier_transform_all,
    from_groupoid,
    induced_irreps,
    plancherel_check,
    schur_residual,
    to_groupoid,
)
from .maps import Supermap, choi, choi_invert, convolve, representing_map, supermap_convolve
from .positivity import (
    BochnerReport,
    Dilation,
    bochner_check,
    cp_check,
    cp_correspondence_probe,
    gram_pd_map,
    is_unitary_conjugation_rep,
    pd_check,
    random_cp_map,
    stinespring,
    transpose_map,
)
from .semigroup import (
    GroupTable,
    InverseStructure,
    SemigroupTable,
    adjoin_zero,
    build_cyclic_with_zero,
    build_matrix_units,
    build_symmetric_inverse,
    from_builtin,
    groupoid_basis_matrices,
    groupoid_product,
    inverse_structure,
    maximal_subgroup,
    steinberg_phi,
    steinberg_phi_inv,
    validate_semigroup,
)
from .grouprep import GroupRep, unitary_irreps
