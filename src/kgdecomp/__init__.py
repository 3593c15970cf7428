"""Recursive Cartan factorization of special unitaries on qubit registers.

The package factors G in SU(2^n), n >= 3, into nested products of
(n-1)-qubit unitaries, single-qubit unitaries, and exponentials of
Abelian Cartan generators, plus one global phase. Splitting is exact up
to numerical optimization: each level takes the logarithm fixed by an
involutive automorphism (conjugation by I..IZ or I..IX), conjugates it
into the level's Cartan span, and peels the last qubit off the
residual factors; the sub-unitaries recurse.

Entry points: decompose_full for the whole recursion, decompose_one_level
for a single level, run_benchmark for Haar-random error statistics, and
the kgdecomp console command for file-based workflows.
"""

from .basis import KGBasis, PauliWord, build_kg_basis, order_cartan_basis, pauli_word
from .bch import solve_bch_split, truncated_bch
from .config import DEFAULT_TOLS, Tolerances
from .engine import (
    LevelResult,
    StageResult,
    build_v,
    compute_m,
    decompose_full,
    decompose_one_level,
    extract_last_qubit,
    extract_subunitary,
    khk_stage,
    objective,
    residual_k,
    validate_special_unitary,
)
from .errors import (
    BadLabelError,
    BranchAmbiguityWarning,
    DimensionMismatchError,
    KgDecompError,
    LevelExceedsRegisterError,
    NonOrthogonalBasisError,
    NotSkewHermitianError,
    NotTensorWithIdentityError,
    NotUnitaryError,
    OptimizerFailedError,
    OrderTooHighError,
    ParseError,
    ReconstructionError,
    RootSearchFailedError,
    SingularMatrixError,
    SubspaceViolationError,
)
from .factors import (
    DecompositionReport,
    Factor,
    FactorKind,
    FactorTree,
    deserialize,
    expand,
    factor_defects,
    product,
    serialize,
)
from .involutions import AxisInvolution
from .linalg import (
    AlgebraElement,
    commutation_defect,
    eigenphase_mismatch,
    expm_skew,
    logm_unitary,
    nearest_special_unitary,
    project_onto_span,
)
from .metrics import (
    BenchmarkResult,
    BenchmarkSummary,
    format_table,
    haar_special_unitary,
    run_benchmark,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AxisInvolution",
    "BadLabelError",
    "BenchmarkResult",
    "BenchmarkSummary",
    "BranchAmbiguityWarning",
    "DecompositionReport",
    "DEFAULT_TOLS",
    "DimensionMismatchError",
    "Factor",
    "FactorKind",
    "FactorTree",
    "KGBasis",
    "KgDecompError",
    "LevelExceedsRegisterError",
    "LevelResult",
    "NonOrthogonalBasisError",
    "NotSkewHermitianError",
    "NotTensorWithIdentityError",
    "NotUnitaryError",
    "OptimizerFailedError",
    "OrderTooHighError",
    "ParseError",
    "PauliWord",
    "ReconstructionError",
    "RootSearchFailedError",
    "SingularMatrixError",
    "StageResult",
    "SubspaceViolationError",
    "Tolerances",
    "build_kg_basis",
    "build_v",
    "commutation_defect",
    "compute_m",
    "decompose_full",
    "decompose_one_level",
    "deserialize",
    "eigenphase_mismatch",
    "expand",
    "expm_skew",
    "extract_last_qubit",
    "extract_subunitary",
    "factor_defects",
    "format_table",
    "haar_special_unitary",
    "khk_stage",
    "logm_unitary",
    "nearest_special_unitary",
    "objective",
    "order_cartan_basis",
    "pauli_word",
    "product",
    "project_onto_span",
    "residual_k",
    "run_benchmark",
    "serialize",
    "solve_bch_split",
    "truncated_bch",
    "validate_special_unitary",
]
