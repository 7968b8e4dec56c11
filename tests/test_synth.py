"""Synthetic generator: ground truth, rules, and the on-disk dataset."""

import numpy as np
import pytest

from helpers import (label_sequence_dataset, order_only_emotion_rules,
                     write_clip_per_joint)
from poselang import core, ingest, synth


SPEC = synth.ScenarioSpec(clips_per_split=2, noise_std=0.0, dropout_rate=0.0)
CONFIG = core.PipelineConfig()


class TestRules:
    def test_presence_and_order(self):
        pres = synth.EmotionRule("presence", "upper", "wave", emotion=1)
        assert pres.applies(["background", "wave"])
        assert not pres.applies(["nod"])
        order = synth.EmotionRule("order", "upper", "wave", "nod", emotion=4)
        assert order.applies(["wave", "background", "nod"])
        assert not order.applies(["nod", "wave"])
        assert not order.applies(["wave"])  # both classes must appear

    def test_emotions_from_windows(self):
        rules = synth.default_emotion_rules()
        windows = {"upper": ["arms_crossed", "wave"],
                   "lower": ["background", "legs_crossed"]}
        vec = synth.emotions_from_windows(windows, rules)
        assert vec[0] == 1 and vec[1] == 1 and vec[2] == 1
        assert vec[4] == 1 and vec[5] == 0   # arms_crossed before wave
        assert vec[24] == 0
        none = synth.emotions_from_windows(
            {"upper": ["background"], "lower": ["background"]}, rules)
        assert none[24] == 1 and none.sum() == 1

    def test_rule_sets_well_formed(self):
        sets = SPEC.label_sets()
        for rules in (synth.default_emotion_rules(),
                      synth.order_rich_emotion_rules(),
                      order_only_emotion_rules()):
            for rule in rules:
                assert rule.emotion < 24
                lset = sets[rule.track]
                assert rule.class_a in lset.names
                if rule.kind == "order":
                    assert rule.class_b in lset.names

    def test_symptom_threshold(self):
        hm = {"wave"}
        windows = {"upper": ["wave"] * 3 + ["y"] * 2,
                   "lower": ["x"] * 3 + ["z"] * 2}
        assert synth.symptom_from_windows(windows, hm, 0.5) == 1
        assert synth.symptom_from_windows(windows, hm, 0.6) == 0


def test_majority_prefers_earliest_on_tie():
    labels = np.array(["b", "b", "a", "a"])
    assert synth._majority(labels) == "b"
    assert synth._majority(np.array(["a", "b", "b"])) == "b"


class TestGenerateClip:
    def test_deterministic(self):
        a, ta = synth.generate_clip(SPEC, 3, CONFIG)
        b, tb = synth.generate_clip(SPEC, 3, CONFIG)
        assert np.array_equal(np.asarray(a.xy), np.asarray(b.xy))
        assert ta.window_labels == tb.window_labels

    def test_truth_alignment(self):
        seq, truth = synth.generate_clip(SPEC, 0, CONFIG)
        n_windows = (SPEC.clip_len - CONFIG.window_len) \
            // CONFIG.window_stride + 1
        assert seq.n_frames == SPEC.clip_len
        assert len(truth.window_labels["upper"]) == n_windows
        assert len(truth.window_labels["lower"]) == n_windows
        sets = SPEC.label_sets()
        for up, lo in zip(truth.window_labels["upper"],
                          truth.window_labels["lower"]):
            assert up in sets["upper"].names
            assert lo in sets["lower"].names
        assert "symptom" in truth.video_labels
        assert truth.video_labels["symptom"][0] in ("ME", "MDD")

    def test_labels_survive_corruption(self):
        # The raw view is translated/scaled, but the truth reflects the
        # template motions, not the corruption.
        noisy_spec = synth.ScenarioSpec(clips_per_split=2, noise_std=1.0,
                                        dropout_rate=0.1)
        seq, truth = synth.generate_clip(noisy_spec, 1, CONFIG)
        assert not seq.valid.all()          # dropouts present
        assert len(truth.window_labels["upper"]) > 0


class TestGenerateDataset:
    def test_layout_and_round_trip(self, tiny_root, tiny_ds, config):
        assert (tiny_root / "labels.csv").exists()
        assert (tiny_root / "manifest.csv").exists()
        man = tiny_ds.manifest
        assert len(man.entries) == 12
        for split in ingest.SPLITS:
            assert len(man.split(split)) == 4
        # Ground truth was loaded for every clip and matches the grid.
        for entry in man.entries:
            gt = tiny_ds.gt[entry.clip_id]
            seq = tiny_ds.sequences[entry.clip_id]
            k = (seq.n_frames - config.window_len) // config.window_stride + 1
            assert gt.n_windows == k

    def test_manifest_emotions_match_rules(self, tiny_root, tiny_ds):
        names = core.EMOTION_NAMES
        spec = synth.ScenarioSpec(clips_per_split=4, noise_std=0.0,
                                  dropout_rate=0.0)
        for entry in tiny_ds.manifest.entries:
            gt = tiny_ds.gt[entry.clip_id]
            windows = {t: [tiny_ds.label_sets[t].names[i] for i in gt.ids[t]]
                       for t in core.TRACKS}
            vec = synth.emotions_from_windows(windows, spec.emotion_rules)
            expect = tuple(names[i] for i in np.flatnonzero(vec))
            assert entry.labels["emotion"] == expect


class TestLabelSequenceDataset:
    def test_shapes_and_corruption_rate(self):
        sets = SPEC.label_sets()
        rules = order_only_emotion_rules()
        data = label_sequence_dataset(60, 40, sets, rules,
                                      corrupt_prob=0.3, seed=1)
        assert len(data) == 60
        flips = total = 0
        for clean, noisy, emo in data:
            assert clean.n_windows == 40 and noisy.n_windows == 40
            assert emo.shape == (25,)
            # Emotions derive from the clean sequence.
            up = [sets["upper"].names[i] for i in clean.ids["upper"]]
            lo = [sets["lower"].names[i] for i in clean.ids["lower"]]
            expect = synth.emotions_from_windows({"upper": up, "lower": lo},
                                                 rules)
            assert np.array_equal(emo, expect)
            flips += int((clean.ids["upper"] != noisy.ids["upper"]).sum())
            flips += int((clean.ids["lower"] != noisy.ids["lower"]).sum())
            total += 2 * 40
        # Replacement is uniform over the label set, so some corrupted
        # windows keep their label; the observed flip rate sits below p.
        assert 0.15 < flips / total < 0.3

    def test_deterministic(self):
        sets = SPEC.label_sets()
        rules = order_only_emotion_rules()
        a = label_sequence_dataset(3, 20, sets, rules, 0.2, seed=5)
        b = label_sequence_dataset(3, 20, sets, rules, 0.2, seed=5)
        for (ca, na, ea), (cb, nb, eb) in zip(a, b):
            assert np.array_equal(na.ids["upper"], nb.ids["upper"])
            assert np.array_equal(ea, eb)


def test_spread_motion_bias_range():
    vals = [synth.spread_motion_bias(i) for i in range(100)]
    assert min(vals) >= 0.15 and max(vals) <= 0.85
    assert np.std(vals) > 0.1


def test_stage2_scenario_overrides():
    spec = synth.stage2_scenario(clips_per_split=7)
    assert spec.clips_per_split == 7
    assert spec.clip_len == 90
    assert spec.high_motion_threshold == 0.5
    assert spec.motion_bias is synth.spread_motion_bias
    assert all(r.kind in ("presence", "order") for r in spec.emotion_rules)
    assert synth.ScenarioSpec().motion_bias is None


def test_motion_bias_shifts_the_class_draws():
    """The scenario's bias reaches every clip: all-moving vs all-still."""
    def moving_share(bias):
        spec = synth.stage2_scenario(motion_bias=lambda i: bias,
                                     background_prob=0.0)
        high = spec.high_motion_names()
        labels = [w for i in range(4) for w in
                  synth.generate_clip(spec, i, CONFIG)[1].window_labels["upper"]]
        return np.mean([up in high for up in labels])

    assert moving_share(1.0) > 0.9 and moving_share(0.0) < 0.1


def test_clip_files_match_the_per_joint_writer(tmp_path):
    spec = synth.ScenarioSpec(noise_std=1.5, dropout_rate=0.2, seed=4)
    seq, _ = synth.generate_clip(spec, 3, CONFIG)
    assert not seq.valid.all()
    synth._write_clip(seq, tmp_path / "vectorized")
    write_clip_per_joint(seq, tmp_path / "loop")
    names = sorted(p.name for p in (tmp_path / "loop").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "vectorized").iterdir())
    assert len(names) == seq.n_frames
    for name in names:
        assert ((tmp_path / "vectorized" / name).read_bytes()
                == (tmp_path / "loop" / name).read_bytes())


class TestPickExemplars:
    def test_rows_consistent_with_gt(self, tiny_ds, config):
        rows = synth.pick_exemplars(tiny_ds.manifest, tiny_ds.gt,
                                    tiny_ds.label_sets, config.window_stride)
        assert rows
        train_ids = {e.clip_id for e in tiny_ds.manifest.split("train")}
        per_class = {}
        for track, clip_id, start, cls in rows:
            assert clip_id in train_ids
            assert start % config.window_stride == 0
            w = start // config.window_stride
            gt = tiny_ds.gt[clip_id]
            ids = gt.ids[track]
            assert tiny_ds.label_sets[track].names[ids[w]] == cls
            per_class[(track, cls)] = per_class.get((track, cls), 0) + 1
        assert max(per_class.values()) <= 6
