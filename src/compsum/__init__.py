"""Comparative multi-document summarization with a chunked recurrent model.

A from-scratch float64 numpy implementation: corpus tooling, the recurrent
model with its cross-chunk attention memory, hand-derived training gradients
verified by finite differences, ROUGE/G-Score evaluation, and a reproducible
CLI pipeline.
"""

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
    recurrent_cell,
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

__all__ = [
    "PAD", "BOS", "EOS", "UNK", "SEP_DOC", "SEP_SUM", "KEY_MARK",
    "Chunk", "PaperDocument", "PaperSet", "RawPaper", "RawPaperSet",
    "Vocabulary", "tokenize", "build_vocab", "chunk", "extract_key_elements",
    "assemble_context", "load_dataset", "write_dataset", "generate_synthetic_corpus",
    "Error", "DataError", "InvariantError",
    "ModelParams", "AblationFlags", "ForwardTrace", "init_params",
    "recurrent_cell", "memory_update", "forward", "encode_sequence",
    "greedy_decode", "sample_decode", "save_checkpoint", "load_checkpoint",
    "LossSpec", "TrainConfig", "AdamState",
    "generation_loss", "cosine_similarity", "comparative_loss", "stage_loss",
    "backward", "finite_difference_check", "gradcheck_probe",
    "clip_gradients", "init_adam_state", "optimizer_step",
    "train_pretrain", "train_comparative",
    "ScoreTriple", "RougeScores", "GScore", "EvalReport",
    "rouge_n", "rouge_l", "g_score", "evaluate_dataset",
    "__version__",
]
