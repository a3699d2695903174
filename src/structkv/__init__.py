"""Structure-aware KV-cache compression planning for code contexts."""

from .allocation import AllocationConfig, budget, multiplier, normalize_scores
from .attention import (
    AttentionWindow,
    HttpAttentionBackend,
    LayerKeepSet,
    MockAttentionBackend,
    importance,
    pool,
    select_tokens,
)
from .chunking import Chunk, ChunkConfig, partition_chunks
from .config import (
    AttentionConfig,
    PipelineConfig,
    ScorerConfig,
    SelectionConfig,
)
from .cpg import (
    Cpg,
    CpgEdge,
    CpgNode,
    EdgeKind,
    NodeKind,
    build_cpg,
    export_cpg_json,
    import_cpg_json,
)
from .lexer import SourceFile, Token, TokenKind, load_source, tokenize
from .metrics import (
    RetentionReport,
    SetMetrics,
    normalized_edit_distance,
    set_metrics,
    structure_score,
    topk_overlap_jaccard,
)
from .parsing import Ast, parse_subset
from .pipeline import load_corpus, query_position, run_pipeline
from .plan import ChunkPlan, CompressionPlan, LayerPlan, SpanRecord
from .scoring import (
    ChunkScorer,
    HttpScorer,
    MockScorer,
    StructuralFeatures,
    extract_features,
    normalize,
    score_chunk,
    select_topk,
    structural_score,
)
from .spans import (
    SpanConfig,
    SpanTable,
    build_spans,
    protect_chunk,
    protect_tokens,
    query_hits,
    select_spans,
    span_budget,
    span_scores,
)

__version__ = "0.1.0"
