"""Pose helpers shared by the test modules."""

import numpy as np

from poselang import core, synth


def make_sequence(rng, n_frames=24, jitter=5.0, frame_rate=24.0,
                  source_id="seq"):
    """A valid random pose sequence wobbling around the rest pose."""
    xy = np.tile(synth.REST_POSE, (n_frames, 1, 1))
    xy = xy + rng.normal(0.0, jitter, size=xy.shape)
    ones = np.ones((n_frames, core.N_JOINTS))
    return core.PoseSequence(xy=xy, confidence=ones,
                             valid=ones.astype(bool),
                             frame_rate=frame_rate, source_id=source_id)
