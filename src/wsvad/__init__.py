"""Lightweight weakly supervised video anomaly detection on clip features.

A MIL model (multi-width temporal attention plus an hourglass scoring head)
trained with adaptive instance selection and an antagonistic top-1 loss.
The training step is a chain of three ops with hand-written gradients
(attention gate, scoring head, MIL objective), whose backward walks the
chain once from the loss; a finite-difference check verifies it. Ships
with binary/CSV feature formats, a synthetic corpus generator, frame-level
ROC/AUC evaluation, and a CLI.
"""

from .autodiff import (
    ConfigurationError,
    DimensionError,
    GradCheckReport,
    Tensor,
    backward,
    grad_check,
)
from .data import (
    ClipFeatureBag,
    FormatError,
    ManifestEntry,
    SyntheticSpec,
    expand_clip_labels,
    load_bag,
    load_bags,
    load_manifest,
    make_synthetic,
)
from .evaluation import EvalRecord, EvalResult, UndefinedMetricError, auc, evaluate_bags, score_video
from .losses import LossBreakdown, LossConfig, ais_loss, antagonistic_loss, smooth_loss, sparsity_loss, total_loss
from .model import (
    AnomalyScorer,
    CheckpointError,
    HfcConfig,
    ModelParameters,
    MtaConfig,
    count_parameters,
    hfc_forward,
    load_checkpoint,
    mta_forward,
    save_checkpoint,
)
from .selection import (
    SelectionConfig,
    SelectionResult,
    adaptive_k,
    confidence,
    select,
)
from .training import FitResult, TrainConfig, TrainState, TrainingError, adam_step, fit, train_epoch

__version__ = "0.1.0"
