"""Pose-based body-language recognition with downstream emotion and
psychiatric-symptom interpretation."""

from .core import (SUBSETS, TRACKS, JointSubset, LabelSet, PipelineConfig,
                   PoseSequence, PoselangError, load_label_sets)

__version__ = "0.1.0"

__all__ = [
    "SUBSETS", "TRACKS", "JointSubset", "LabelSet", "PipelineConfig",
    "PoseSequence", "PoselangError", "load_label_sets",
    "__version__",
]
