"""Comparative multi-document summarization with a chunked recurrent model.

A from-scratch float64 numpy implementation: corpus tooling, the recurrent
model with its cross-chunk attention memory, hand-derived training gradients
verified by finite differences, ROUGE/G-Score evaluation, and a reproducible
CLI pipeline.
"""

from types import ModuleType as _ModuleType

from .corpus import (
    BOS,
    EOS,
    KEY_MARK,
    PAD,
    SEP_DOC,
    SEP_SUM,
    UNK,
    Chunk,
    PaperDocument,
    PaperSet,
    RawPaper,
    RawPaperSet,
    Vocabulary,
    assemble_context,
    build_vocab,
    chunk,
    extract_key_elements,
    generate_synthetic_corpus,
    load_dataset,
    tokenize,
    write_dataset,
)
from .errors import DataError, Error, InvariantError
from .metrics import (
    EvalReport,
    GScore,
    RougeScores,
    ScoreTriple,
    evaluate_dataset,
    g_score,
    rouge_l,
    rouge_n,
)
from .model import (
    AblationFlags,
    ForwardTrace,
    ModelParams,
    encode_sequence,
    forward,
    greedy_decode,
    init_params,
    load_checkpoint,
    memory_update,
    sample_decode,
    save_checkpoint,
)
from .training import (
    AdamState,
    LossSpec,
    TrainConfig,
    backward,
    clip_gradients,
    comparative_loss,
    cosine_similarity,
    finite_difference_check,
    generation_loss,
    gradcheck_probe,
    init_adam_state,
    optimizer_step,
    stage_loss,
    train_comparative,
    train_pretrain,
)

__version__ = "0.1.0"

# The names imported above, each listed once, and the version.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
