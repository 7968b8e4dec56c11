"""Shared fixtures: a tiny on-disk synthetic dataset."""

import pytest

from poselang import core, pipeline, synth


@pytest.fixture(scope="session")
def config():
    return core.PipelineConfig()


@pytest.fixture(scope="session")
def tiny_root(tmp_path_factory, config):
    """A 4-clips-per-split noiseless dataset written in the ingest formats."""
    root = tmp_path_factory.mktemp("tiny_dataset")
    spec = synth.ScenarioSpec(clips_per_split=4, noise_std=0.0,
                              dropout_rate=0.0)
    synth.generate_dataset(spec, root, config)
    return root


@pytest.fixture(scope="session")
def tiny_ds(tiny_root, config):
    return pipeline.load_dataset(tiny_root / "manifest.csv", config)
