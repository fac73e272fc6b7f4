"""Associative and hybrid rule-associative classifiers for plural inflection.

The package compares three associative classifiers (nearest neighbour, a
similarity-kernel exemplar model, and a three-layer backprop network) with
hybrid variants that keep a default rule for one class and fall back to it
whenever associative memory fails, on the task of predicting German noun
plural classes from phonological feature vectors.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ExperimentError,
    FeatureTableError,
    LexiconFormatError,
    ModelFormatError,
    PluralbenchError,
    UnknownPhonemeError,
)
from .phonology import (
    DEFAULT_SLOTS,
    UMLAUT_PAIRS,
    FeatureTable,
    PluralClass,
    bundled_data_path,
    default_feature_table,
    derive_plural_class,
    encode_word,
    load_feature_table,
    parse_phonemes,
)
from .dataset import (
    DataSplit,
    EncodedNoun,
    LexiconEntry,
    apply_exclusions,
    encode_entries,
    filter_by_type_frequency,
    ingest,
    load_exclusion_list,
    remove_compounds,
    split,
)
from .classifiers import (
    ClassifierResponse,
    Confusion,
    ExemplarMemory,
    GcmParams,
    MlpModel,
    evaluate,
    gcm_classify,
    gcm_decide_batch,
    gcm_optimize_scale,
    mlp_classify,
    mlp_decide_batch,
    mlp_gradients,
    mlp_grid_sweep,
    mlp_loss,
    mlp_train,
    nn_classify,
    nn_decide_batch,
    nn_leave_one_out,
)
from .hybrid import (
    HybridConfig,
    SweepCurve,
    grid_search_s_t,
    hybrid_decide_batch,
    hybrid_gcm_classify,
    hybrid_mlp_classify,
    hybrid_nn_classify,
    threshold_sweep,
)
from .synthetic import (
    LanguageSpec,
    SyntheticSample,
    compare_simple_vs_hybrid,
    generate_language,
    language_1,
    language_2,
    regular_taxonomy,
)
from .serialize import SavedModel, load_model, save_gcm, save_mlp, save_nn
from .harness import (
    ExperimentConfig,
    Report,
    emit_frequency_table,
    emit_summary,
    expand_grid,
    load_config,
    run_experiment,
)

__all__ = [
    "__version__",
    # errors
    "PluralbenchError",
    "FeatureTableError",
    "UnknownPhonemeError",
    "LexiconFormatError",
    "ConfigError",
    "ModelFormatError",
    "ExperimentError",
    # phonology
    "DEFAULT_SLOTS",
    "UMLAUT_PAIRS",
    "FeatureTable",
    "PluralClass",
    "parse_phonemes",
    "load_feature_table",
    "default_feature_table",
    "bundled_data_path",
    "encode_word",
    "derive_plural_class",
    # dataset
    "LexiconEntry",
    "EncodedNoun",
    "DataSplit",
    "ingest",
    "apply_exclusions",
    "load_exclusion_list",
    "filter_by_type_frequency",
    "remove_compounds",
    "encode_entries",
    "split",
    # classifiers
    "ExemplarMemory",
    "ClassifierResponse",
    "GcmParams",
    "MlpModel",
    "Confusion",
    "nn_classify",
    "nn_decide_batch",
    "nn_leave_one_out",
    "gcm_classify",
    "gcm_decide_batch",
    "gcm_optimize_scale",
    "mlp_train",
    "mlp_classify",
    "mlp_decide_batch",
    "mlp_loss",
    "mlp_gradients",
    "mlp_grid_sweep",
    "evaluate",
    # hybrid
    "HybridConfig",
    "SweepCurve",
    "hybrid_nn_classify",
    "hybrid_gcm_classify",
    "hybrid_mlp_classify",
    "hybrid_decide_batch",
    "threshold_sweep",
    "grid_search_s_t",
    # synthetic
    "LanguageSpec",
    "SyntheticSample",
    "language_1",
    "language_2",
    "generate_language",
    "compare_simple_vs_hybrid",
    "regular_taxonomy",
    # serialization
    "SavedModel",
    "save_nn",
    "save_gcm",
    "save_mlp",
    "load_model",
    # harness
    "ExperimentConfig",
    "Report",
    "run_experiment",
    "load_config",
    "emit_frequency_table",
    "emit_summary",
    "expand_grid",
]
