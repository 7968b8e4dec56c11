"""Pose-based body-language recognition with downstream emotion and
psychiatric-symptom interpretation."""

from .core import (JointSubset, LabelSet, PipelineConfig, PoseSequence,
                   PoselangError, LOWER_SUBSET, UPPER_SUBSET, load_label_sets)

__version__ = "0.1.0"

__all__ = [
    "JointSubset", "LabelSet", "PipelineConfig", "PoseSequence",
    "PoselangError", "LOWER_SUBSET", "UPPER_SUBSET", "load_label_sets",
    "__version__",
]
