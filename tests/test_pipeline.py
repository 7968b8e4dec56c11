"""Window ground truth as loaded by the dataset, the window accuracy
scored against it, and the stage-2 targets, each checked against the
names in the dataset files."""

import numpy as np
import pytest

from poselang import core, emotion, ingest, pipeline


def _gt_names(root, entry):
    """(upper, lower) class names per window, as the gt file spells them."""
    text = (root / entry.window_labels_path).read_text()
    return [tuple(line.split(",")[1:]) for line in text.splitlines()]


def test_gt_holds_the_class_ids_of_the_gt_files(tiny_root, tiny_ds):
    for entry in tiny_ds.manifest.entries:
        names = _gt_names(tiny_root, entry)
        gt = tiny_ds.gt[entry.clip_id]
        assert gt.clip_id == entry.clip_id
        for col, track in enumerate(core.TRACKS):
            want = [tiny_ds.label_sets[track].names.index(row[col])
                    for row in names]
            assert gt.ids[track].tolist() == want
        assert gt.conf["upper"].tolist() == [1.0] * len(names)
        assert gt.conf["lower"].tolist() == [1.0] * len(names)


def test_window_accuracy_matches_a_name_comparison(tiny_root, tiny_ds):
    rng = np.random.default_rng(3)
    preds, correct, total = {}, {"upper": 0, "lower": 0}, 0
    for entry in tiny_ds.manifest.split("test"):
        gt, names = tiny_ds.gt[entry.clip_id], _gt_names(tiny_root, entry)
        ids = {}
        for col, track in enumerate(core.TRACKS):
            lset = tiny_ds.label_sets[track]
            ids[track] = np.where(
                rng.random(gt.n_windows) < 0.3,
                rng.integers(len(lset), size=gt.n_windows),
                gt.ids[track])
            correct[track] += sum(lset.names[c] == row[col]
                                  for c, row in zip(ids[track], names))
        total += len(names)
        ones = np.ones(gt.n_windows)
        preds[entry.clip_id] = core.BodyLanguageSequence(
            clip_id=entry.clip_id, ids=ids, conf={"upper": ones, "lower": ones})
    want = {track: correct[track] / total for track in correct}
    want["overall"] = (correct["upper"] + correct["lower"]) / (2 * total)
    assert 0 < want["overall"] < 1
    assert pipeline.window_accuracy(tiny_ds, preds) == want


@pytest.mark.parametrize("task", ["emotion", "symptom"])
def test_stage2_targets_name_the_manifest_labels(tiny_ds, task):
    names = emotion.TASKS[task].names
    for split in ingest.SPLITS:
        data = pipeline.stage2_data(tiny_ds, split, 7, 3, tiny_ds.gt, task)
        entries = tiny_ds.manifest.split(split)
        assert len(data) == len(entries)
        for (hist, targets), entry in zip(data, entries):
            assert targets.shape == (len(names),)
            stated = [n for n, on in zip(names, targets) if on]
            want = [n for n in names if n in entry.labels[task]]
            assert stated == want
            assert np.array_equal(hist, emotion.histogram_sequence(
                tiny_ds.gt[entry.clip_id], tiny_ds.label_sets, 7, 3))
