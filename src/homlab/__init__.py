"""homlab: a desk-scale numerical laboratory for effective-coefficient
convergence.

The package discretises elliptic and frequency-domain evolutionary operator
equations on structured grids, computes effective limits (harmonic and
arithmetic means, laminate tensors, periodic cell problems), implements the
Schur block-operator algebra with its four convergence maps, and turns the
equivalence theorems between coefficient convergence and solution-operator
convergence into quantitative experiments and property tests.
"""

from .elliptic import (
    CoefficientField,
    DiscreteGradient,
    GridDomain,
    RHSFunctional,
    build_grad,
    divcurl_pairing,
    divergence_defect,
    hminus_norm,
    projected_inverse_1d,
    solve_affine,
    solve_elliptic,
)
from .errors import HomlabError
from .evolution import (
    SkewOp,
    abstract_schur_experiment,
    recover_coefficient,
    resolvent_bounds,
    skew_split,
)
from .hilbert import (
    CoercivityReport,
    HilbertSpace,
    LinearOp,
    ProbeSet,
    Subspace,
    adjoint,
    coercivity_check,
    kernel_range,
    strong_gap,
    wot_gap,
)
from .homogenize import (
    CoefficientSequence,
    ExperimentReport,
    MeshRule,
    adjoint_symmetry_check,
    cell_problem,
    hconvergence_experiment,
    homogenized_tensor,
    laminate_limit,
    qdind_check,
    schur_equiv_check,
)
from .maxwell import (
    HelmholtzSplit,
    MaxwellSystem,
    YeeComplex,
    build_curl,
    helmholtz_decompose,
    maxwell_homogenization_experiment,
)
from .schur import (
    Decomposition,
    SchurMaps,
    block_inverse,
    blocks,
    finite_shuffle,
    inversion_swap_check,
    schur_complement_coercivity,
    schur_maps,
    tau_gap,
)
from .thermo import (
    ThermoSystem,
    assemble_thermo,
    congruence_diagonalize,
    thermo_homogenization_experiment,
)

__version__ = "0.1.0"
