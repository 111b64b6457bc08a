"""Hermitian self-orthogonal evaluation codes over GF(q^2), with certificates
for self-orthogonality, MDS-ness and distances, and the derived quantum
stabilizer parameters [[n, n-2k, d]]_q.
"""

from .codes import (
    Certificate,
    DistanceResult,
    GramCertificate,
    LinearCode,
    certify,
    dual_distance_by_columns,
    evaluation_code,
    exhaustive_distance,
    export_matrix,
    hermitian_gram,
    import_matrix,
    is_mds,
)
from .constructions import (
    CertifiedCode,
    ConstructionRequest,
    construct,
    construct_chain,
    embed_once,
)
from .curves import (
    CurveFamily,
    CurveSpec,
    curve,
    rational_points,
    rr_basis,
    x_support,
)
from .fields import (
    AdditiveMap,
    FieldTower,
    build_tower,
    norm_preimage,
)
from .points import (
    EvaluationSet,
    affine_grid_set,
    coset_union_set,
    explicit_set,
    local_derivatives,
    roots_of_unity_set,
    twist_vector,
)
from .quantum import QuantumParams, stabilizer_params

__version__ = "0.1.0"

__all__ = [
    "AdditiveMap",
    "Certificate",
    "CertifiedCode",
    "ConstructionRequest",
    "CurveFamily",
    "CurveSpec",
    "DistanceResult",
    "EvaluationSet",
    "FieldTower",
    "GramCertificate",
    "LinearCode",
    "QuantumParams",
    "affine_grid_set",
    "build_tower",
    "certify",
    "construct",
    "construct_chain",
    "coset_union_set",
    "curve",
    "dual_distance_by_columns",
    "embed_once",
    "evaluation_code",
    "exhaustive_distance",
    "explicit_set",
    "export_matrix",
    "hermitian_gram",
    "import_matrix",
    "is_mds",
    "local_derivatives",
    "norm_preimage",
    "rational_points",
    "roots_of_unity_set",
    "rr_basis",
    "stabilizer_params",
    "twist_vector",
    "x_support",
]
