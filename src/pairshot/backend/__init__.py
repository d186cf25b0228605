"""Model backends: contracts, the toy implementation, and the adapter.

Engines call the contract methods (``score``, ``train``, ``predict``,
``encode``, ``fit``) directly on whatever backend objects they are
handed, in-process toy models or remote ones behind the adapter.
``score``, ``predict`` and ``encode`` take a whole batch and return one
row per item.
"""

from .contracts import Backend, MaskedScorer, SentenceEncoder, TextClassifier
from .state import load_model, model_from_payload, model_to_payload, save_model
from .toy import (
    BackendConfig,
    ToyBackend,
    ToyEncoder,
    ToyMaskedScorer,
    ToyTextClassifier,
    default_backend_config,
)

__all__ = [
    "Backend",
    "BackendConfig",
    "MaskedScorer",
    "SentenceEncoder",
    "TextClassifier",
    "ToyBackend",
    "ToyEncoder",
    "ToyMaskedScorer",
    "ToyTextClassifier",
    "default_backend_config",
    "load_model",
    "model_from_payload",
    "model_to_payload",
    "save_model",
]
