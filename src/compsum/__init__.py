"""Comparative multi-document summarization with a chunked recurrent model.

A from-scratch float64 numpy implementation: corpus tooling, the recurrent
model with its cross-chunk attention memory, hand-derived training gradients
verified by finite differences, ROUGE/G-Score evaluation, and a reproducible
CLI pipeline.
"""

from .errors import Error

__version__ = "0.1.0"

__all__ = ["Error", "__version__"]
