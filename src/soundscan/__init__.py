"""Machine anomalous sound detection via multi-scale spectrogram scanning.

The pipeline: WAV audio -> STFT spectrogram + whole-signal spectrum ->
multi-scale kernel-box patches -> discriminatively trained embedding ->
K-Means prototype anomaly scores -> AUC / partial-AUC evaluation.
"""

from .config import ModelConfig, RunConfig, ScoringConfig, TrainConfig, micro_preset
from .dsp import AudioClip, Spectrogram, Spectrum, fix_length, load_wav, stft_magnitude, utterance_spectrum
from .metrics import LabeledScores, MetricReport, aggregate, auc, evaluate, pauc
from .network import MultiScaleNet, load_model
from .scanning import KernelBox, PatchStack, ScanPlan, coverage_map, default_kernel_set, plan_from_counts, plan_from_steps, scan, steps_from_counts
from .scoring import PrototypeSet, PrototypeStore, anomaly_score, cluster_prototypes, kmeans, score_test_rows
from .training import LabelSpace, SubClusterHead, adacos_loss, build_label_space, label_smooth, mixup, train

__version__ = "0.1.0"

__all__ = [
    "AudioClip", "Spectrogram", "Spectrum", "load_wav", "fix_length",
    "stft_magnitude", "utterance_spectrum",
    "KernelBox", "ScanPlan", "PatchStack", "steps_from_counts",
    "plan_from_steps", "plan_from_counts", "scan", "coverage_map",
    "default_kernel_set",
    "ModelConfig", "TrainConfig", "ScoringConfig", "RunConfig", "micro_preset",
    "MultiScaleNet", "load_model",
    "LabelSpace", "SubClusterHead", "build_label_space", "mixup",
    "label_smooth", "adacos_loss", "train",
    "PrototypeSet", "PrototypeStore", "kmeans", "anomaly_score",
    "cluster_prototypes", "score_test_rows",
    "LabeledScores", "MetricReport", "auc", "pauc", "aggregate", "evaluate",
    "__version__",
]
