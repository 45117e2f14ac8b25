"""Stacked rescaled-DFT tight frames and Riesz partition certificates.

The package builds explicit unit-norm r-tight families of r^2*n vectors in
C^(r*n) from column-rescaled DFT blocks, exposes the frame and projection
operations needed to check them, and certifies numerically that no split of
the family into r parts keeps every part's Riesz bound above a threshold
that shrinks like 1/n. A doubling map trades entry size for dimension while
preserving the obstruction. The `nonpaving` console script drives the same
machinery from the command line.
"""

from .constructions import (
    BlockBands,
    BlockLayout,
    DeltaSchedule,
    StackedDftFrame,
    block_layout,
    build_nonpavable_general,
    delta_schedule,
    doubled_family,
    doubling_step,
    gram_block_residual,
    restriction_identity_residual,
    sidecar_dict,
)
from .errors import (
    CertificationError,
    InternalInconsistencyError,
    MatrixParseError,
    ResourceLimitError,
)
from .frame_ops import (
    FrameFamily,
    ProjectionMatrix,
    complement_duality_check,
    frame_bounds,
    is_tight_frame,
    projection_from_tight_frame,
)
from .matrix_core import (
    as_complex_matrix,
    col_square_sums,
    column_orthogonality_defect,
    dft_matrix,
    gram,
    hermitian_extremal_eig,
    read_matrix_csv,
    require_hermitian,
    row_square_sums,
    scale_columns,
    write_matrix_csv,
)
from .paving_analysis import (
    CertificationSummary,
    Partition,
    RieszCertificate,
    Witness,
    best_partition_riesz,
    certify_nonpavable,
    partition_from_assignment,
    riesz_lower_bound,
    witness_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # matrix core
    "as_complex_matrix",
    "require_hermitian",
    "dft_matrix",
    "scale_columns",
    "gram",
    "hermitian_extremal_eig",
    "column_orthogonality_defect",
    "row_square_sums",
    "col_square_sums",
    "write_matrix_csv",
    "read_matrix_csv",
    # frame operations
    "FrameFamily",
    "ProjectionMatrix",
    "frame_bounds",
    "is_tight_frame",
    "projection_from_tight_frame",
    "complement_duality_check",
    # constructions
    "DeltaSchedule",
    "BlockBands",
    "BlockLayout",
    "StackedDftFrame",
    "delta_schedule",
    "block_layout",
    "build_nonpavable_general",
    "doubling_step",
    "doubled_family",
    "gram_block_residual",
    "restriction_identity_residual",
    "sidecar_dict",
    # paving analysis
    "Partition",
    "Witness",
    "RieszCertificate",
    "CertificationSummary",
    "partition_from_assignment",
    "riesz_lower_bound",
    "best_partition_riesz",
    "witness_coefficients",
    "certify_nonpavable",
    # errors
    "InternalInconsistencyError",
    "ResourceLimitError",
    "CertificationError",
    "MatrixParseError",
]
