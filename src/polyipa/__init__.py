"""polyipa: multilingual phoneme-to-grapheme tooling.

IPA normalization, segmentation, and validation; articulatory feature
distances and embeddings; pronunciation-lexicon cleaning; sound-alike pair
mining; a trainable joint-sequence baseline with n-best beam decoding; and a
stratified evaluation harness. One CLI (`polyipa`) drives the pipeline.
"""

from .errors import (
    AlignmentFailureError,
    BothEmptyError,
    CandidateParseError,
    ConfigError,
    DimensionMismatchError,
    EmptyInputError,
    EmptyLexiconError,
    EmptyOriginalError,
    EmptyStringError,
    InsufficientDataError,
    NoCandidatesError,
    NonMonotoneScoresError,
    NoScriptError,
    PolyipaError,
    UnknownLanguageError,
    UnknownSegmentError,
    UnknownSymbolError,
    UnknownTagWarning,
    UnmappableTokenError,
)
from .ipa import (
    IpaInventory,
    IpaSegment,
    IpaString,
    TranscriptionSystem,
    convert_to_ipa,
    default_inventory,
    normalize_text,
    parse_ipa,
    segment_ipa,
    strip_diacritics_tones,
    validate_ipa,
)
from .features import (
    DistanceParams,
    FeatureTable,
    default_feature_table,
    feature_edit_distance,
    normalized_feature_distance,
    segment_features,
    string_embedding,
)
from .lexicon import (
    CleaningReport,
    IpaPair,
    LanguageRegistry,
    Lexicon,
    PronEntry,
    ScriptTable,
    clean,
    default_registry,
    default_scripts,
    detect_script,
    extract_ipa_pairs,
    lang_script_tag,
    normalize_lang_code,
    read_raw_tsv,
)
from .mining import (
    MiningParams,
    SoundalikePair,
    VectorIndex,
    build_embedding_matrix,
    filter_by_feature_distance,
    filter_generation_by_cer,
    load_embeddings_tsv,
    mine_soundalikes,
    read_pairs_tsv,
    write_embeddings_tsv,
    write_pairs_tsv,
)
from .model import (
    Candidate,
    ChunkAligner,
    JointModel,
    beam_decode,
    effective_beam_width,
    load_external_candidates,
    train,
    train_tagged,
    write_candidates_tsv,
)
from .metrics import (
    EvalItem,
    EvalReport,
    MetricsRow,
    cer,
    char_bleu,
    exact_match,
    levenshtein,
    report_from_json,
    stratify,
    top_n_wer,
    word_error_rate,
)
from .splits import (
    SplitSpec,
    TrainExample,
    read_examples_tsv,
    stratified_split,
    upsample_generate,
    variant_map_from_pairs,
    write_examples_tsv,
)
from .config import PipelineConfig, Resources

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PolyipaError", "UnknownSymbolError", "UnmappableTokenError",
    "UnknownSegmentError", "EmptyStringError", "BothEmptyError",
    "EmptyOriginalError", "DimensionMismatchError", "UnknownLanguageError",
    "NoScriptError", "AlignmentFailureError", "EmptyLexiconError",
    "EmptyInputError", "NoCandidatesError", "InsufficientDataError",
    "CandidateParseError", "NonMonotoneScoresError", "ConfigError",
    "UnknownTagWarning",
    # ipa
    "IpaInventory", "IpaSegment", "IpaString", "TranscriptionSystem",
    "convert_to_ipa", "default_inventory", "normalize_text", "parse_ipa",
    "segment_ipa", "strip_diacritics_tones", "validate_ipa",
    # features
    "DistanceParams", "FeatureTable", "default_feature_table",
    "feature_edit_distance", "normalized_feature_distance",
    "segment_features", "string_embedding",
    # lexicon
    "CleaningReport", "IpaPair", "LanguageRegistry", "Lexicon", "PronEntry",
    "ScriptTable", "clean", "default_registry", "default_scripts",
    "detect_script", "extract_ipa_pairs", "lang_script_tag",
    "normalize_lang_code", "read_raw_tsv",
    # mining
    "MiningParams", "SoundalikePair", "VectorIndex",
    "build_embedding_matrix", "filter_by_feature_distance",
    "filter_generation_by_cer", "load_embeddings_tsv", "mine_soundalikes",
    "read_pairs_tsv", "write_embeddings_tsv", "write_pairs_tsv",
    # model
    "Candidate", "ChunkAligner", "JointModel", "beam_decode",
    "effective_beam_width", "load_external_candidates", "train",
    "train_tagged", "write_candidates_tsv",
    # metrics
    "EvalItem", "EvalReport", "MetricsRow", "cer", "char_bleu",
    "exact_match", "levenshtein", "report_from_json", "stratify", "top_n_wer",
    "word_error_rate",
    # splits
    "SplitSpec", "TrainExample", "read_examples_tsv", "stratified_split",
    "upsample_generate", "write_examples_tsv",
    "variant_map_from_pairs",
    # config
    "PipelineConfig", "Resources",
]
