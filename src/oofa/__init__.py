"""Order-of-addition experiments: models, fitting, averaging, design search.

The package covers the full workflow for experiments whose factor is the
*order* in which m components are applied (m capped at 8, so the m!
candidate orders stay explicitly enumerable): building model matrices for
the six standard model families, least-squares fitting with information
criteria, Akaike-weighted model averaging with honest variances, ranking
every candidate order, design-quality criteria, and a point-exchange search
for good small designs.  The ``oofa`` command line exposes the same
workflow on CSV files.
"""

from .averaging import (
    AveragedPrediction,
    CandidateSet,
    average_predictions,
    combine_predictions,
)
from .criteria import (
    CompoundMember,
    CompoundSpec,
    CriterionKind,
    CriterionSpec,
    OrthogonalCoding,
    a_criterion,
    apv,
    av,
    compound,
    criterion_value,
    d_criterion,
    orthogonal_coding,
)
from .dataio import read_design, write_design
from .design import Design
from .errors import (
    CapacityError,
    EstimabilityError,
    OofaError,
    ParseError,
    SaturatedModelError,
    SearchFailureError,
    UnsupportedModelError,
    ValidationError,
)
from .fitting import (
    Dataset,
    FitResult,
    akaike_weights,
    information_criteria,
    ols_fit,
)
from .models import (
    Family,
    ModelSpec,
    Taper,
    TaperKind,
    build_matrix,
    full_factorial_matrix,
    parse_model,
    pwo_to_ltpwo_maps,
    term_labels,
)
from .perms import (
    MAX_COMPONENTS,
    Permutation,
    StdPositions,
    check_capacity,
    enumerate_permutations,
    standardize,
)
from .ranking import PredictionTable, predict_all, predict_rows, rank_descending, top_k
from .search import SearchConfig, SearchResult, exchange_search, random_design

__version__ = "0.1.0"

__all__ = [
    "AveragedPrediction",
    "CandidateSet",
    "CapacityError",
    "CompoundMember",
    "CompoundSpec",
    "CriterionKind",
    "CriterionSpec",
    "Dataset",
    "Design",
    "EstimabilityError",
    "Family",
    "FitResult",
    "MAX_COMPONENTS",
    "ModelSpec",
    "OofaError",
    "OrthogonalCoding",
    "ParseError",
    "Permutation",
    "PredictionTable",
    "SaturatedModelError",
    "SearchConfig",
    "SearchFailureError",
    "SearchResult",
    "StdPositions",
    "Taper",
    "TaperKind",
    "UnsupportedModelError",
    "ValidationError",
    "a_criterion",
    "akaike_weights",
    "apv",
    "av",
    "average_predictions",
    "build_matrix",
    "check_capacity",
    "combine_predictions",
    "compound",
    "criterion_value",
    "d_criterion",
    "enumerate_permutations",
    "exchange_search",
    "full_factorial_matrix",
    "information_criteria",
    "ols_fit",
    "orthogonal_coding",
    "parse_model",
    "predict_all",
    "predict_rows",
    "pwo_to_ltpwo_maps",
    "random_design",
    "rank_descending",
    "read_design",
    "standardize",
    "term_labels",
    "top_k",
    "write_design",
    "__version__",
]
