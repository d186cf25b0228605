"""Few-shot sentence-pair classification with prompt ensembles,
contrastive encoder tuning, and plain fine-tuning, plus the data
plumbing (ingestion, leakage-free splits, metrics, sweeps) around them.

The public names below resolve on first use: ``pairshot.run_pet`` imports
``pairshot.pet`` when it is first asked for, so a process that needs only
part of the package, such as the backend server, never loads the engines.
A name is looked up in its module on every access and never cached here,
so whatever the module's name holds, the package name gives.
"""

from importlib import import_module

# Eager, unlike every other name: once pairshot.finetune is imported, the
# import system would bind the package's finetune to that module.
from .finetune import finetune

__version__ = "0.1.0"

# The public names of each module that defines them.
_EXPORTS = {
    "data": (
        "Dataset", "LabeledExample", "LabelSet", "SentencePair", "SoftLabeledExample",
        "join_pair", "load_dataset", "normalize_sentence", "sample_training_set",
        "save_dataset", "split_no_leakage", "validate_dataset",
    ),
    "errors": (
        "BudgetError", "DataFormatError", "DatasetSizeError", "EmptyEnsembleError", "EvalError",
        "InfeasibleSplitError", "InfeasibleTripletsError", "IngestError", "NoDataError",
        "NumericError", "PairshotError", "ParseError", "ShapeError", "UnknownTaskError",
        "VerbalizerError", "VocabularyError",
    ),
    "finetune": ("FinetuneConfig", "finetune", "finetune_predict", "run_finetune"),
    "harness": (
        "ExperimentConfig", "SweepResult", "build_backend", "emit_table", "render_comparison",
        "replicate_seed", "run_sweep", "save_sweep",
    ),
    "metrics": (
        "ConfusionMatrix", "EvalReport", "ReplicateSummary", "RunResult", "aggregate_replicates",
        "confusion", "evaluate_predictions", "format_mean_std", "report",
    ),
    "pet": (
        "PetConfig", "PetRunResult", "aggregate_scores", "distill", "run_pet", "soften",
        "train_ensemble",
    ),
    "prompting": (
        "PVP", "ClozeInput", "PatternTemplate", "Segment", "builtin_label_set", "builtin_pvps",
        "builtin_task_ids", "render", "verbalizer_tokens",
    ),
    "rng": ("Rng",),
    "setfit": (
        "ContrastiveTriplet", "SetFitConfig", "SetFitModel", "generate_contrastive",
        "run_setfit", "setfit_fit", "setfit_predict",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
