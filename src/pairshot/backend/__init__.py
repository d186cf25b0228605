"""Model backends: contracts, the toy implementation, and the adapter.

Engines call ``predict`` and ``encode``, ``train`` and ``fit`` directly
on the classifiers and encoders they are handed, and score and train
scorers only through their backend's ``score_scorers`` and
``train_scorers``, in-process toy models or remote ones behind the
adapter alike.  Every call takes a whole batch; ``predict``, ``encode``
and ``score_scorers`` return one row per item.
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
