"""Order-of-addition experiments: models, fitting, averaging, design search.

The package covers the full workflow for experiments whose factor is the
*order* in which m components are applied (m capped at 8, so the m!
candidate orders stay explicitly enumerable): building model matrices for
the six standard model families, least-squares fitting with information
criteria, Akaike-weighted model averaging with honest variances, ranking
every candidate order, design-quality criteria, and a point-exchange search
for good small designs.  The ``oofa`` command line exposes the same
workflow on CSV files.

Names are exported lazily: ``import oofa`` loads no submodule, and each
exported name imports its home module on first use, so a command pays only
for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

#: Home module of every exported name.
_EXPORTS = {
    "averaging": ("AveragedPrediction", "CandidateSet", "average_predictions",
                  "combine_predictions"),
    "criteria": ("CompoundMember", "CompoundSpec", "CriterionKind", "CriterionSpec",
                 "OrthogonalCoding", "a_criterion", "apv", "av", "compound",
                 "criterion_value", "d_criterion", "orthogonal_coding"),
    "dataio": ("read_design", "write_design"),
    "design": ("Dataset", "Design"),
    "errors": ("CapacityError", "EstimabilityError", "OofaError", "ParseError",
               "SaturatedModelError", "SearchFailureError", "UnsupportedModelError",
               "ValidationError"),
    "fitting": ("FitResult", "akaike_weights", "information_criteria", "ols_fit"),
    "models": ("Family", "ModelSpec", "Taper", "TaperKind", "build_matrix",
               "full_factorial_matrix", "parse_model", "pwo_to_ltpwo_maps", "term_labels"),
    "perms": ("MAX_COMPONENTS", "Permutation", "StdPositions", "check_capacity",
              "enumerate_permutations", "standardize"),
    "ranking": ("PredictionTable", "predict_all", "predict_rows", "rank_descending",
                "top_k"),
    "search": ("SearchConfig", "SearchResult", "exchange_search", "random_design"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
