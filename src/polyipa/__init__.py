"""polyipa: multilingual phoneme-to-grapheme tooling.

IPA normalization, segmentation, and validation; articulatory feature
distances and embeddings; pronunciation-lexicon cleaning; sound-alike pair
mining; a trainable joint-sequence baseline with n-best stack decoding; and a
stratified evaluation harness. One CLI (`polyipa`) drives the pipeline.
"""

from .errors import (
    BothEmptyError,
    CandidateParseError,
    ConfigError,
    DimensionMismatchError,
    EmptyInputError,
    EmptyLexiconError,
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
    VectorIndex,
    build_embedding_matrix,
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
    write_examples_tsv,
)
from .config import PipelineConfig, Resources

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PolyipaError", "UnknownSymbolError", "UnmappableTokenError",
    "UnknownSegmentError", "EmptyStringError", "BothEmptyError",
    "DimensionMismatchError", "UnknownLanguageError", "NoScriptError",
    "EmptyLexiconError", "EmptyInputError", "NoCandidatesError",
    "InsufficientDataError", "CandidateParseError", "NonMonotoneScoresError",
    "ConfigError", "UnknownTagWarning",
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
    "MiningParams", "VectorIndex",
    "build_embedding_matrix", "mine_soundalikes", "read_pairs_tsv",
    "write_embeddings_tsv", "write_pairs_tsv",
    # model
    "Candidate", "ChunkAligner", "JointModel", "beam_decode",
    "load_external_candidates", "train", "train_tagged",
    "write_candidates_tsv",
    # metrics
    "EvalItem", "EvalReport", "MetricsRow", "cer", "char_bleu",
    "exact_match", "levenshtein", "report_from_json", "stratify", "top_n_wer",
    "word_error_rate",
    # splits
    "SplitSpec", "TrainExample", "read_examples_tsv", "stratified_split",
    "upsample_generate", "write_examples_tsv",
    # config
    "PipelineConfig", "Resources",
]
