"""End-to-end CLI flow on a tiny workdir, plus error codes."""

import json
import shutil

import numpy as np
import pytest
from click.testing import CliRunner

from poselang import (artifacts, bodylang, cli, codebook, core, emotion,
                      ingest, pipeline, poseimage)


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def invoke(runner, workdir, *args, expect=0):
    result = runner.invoke(cli.main, ["--workdir", str(workdir)] + list(args))
    if result.exit_code != expect:  # pragma: no cover - debugging aid
        raise AssertionError(
            f"exit {result.exit_code} != {expect} for {args}\n{result.output}"
            + (f"\n{result.exception!r}" if result.exception else ""))
    return result


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, runner):
    wd = tmp_path_factory.mktemp("cli_workdir")
    # A small codebook keeps the tiny dataset's k-means cheap; going through
    # config.txt keeps every command's config hash consistent.
    (wd / "config.txt").write_text("codebook_size=10\n")
    invoke(runner, wd, "synth", "gen", "--clips-per-split", "3")
    return wd


class TestFlow:
    def test_gen_layout(self, workdir):
        assert (workdir / "dataset" / "manifest.csv").exists()
        assert (workdir / "dataset" / "labels.csv").exists()
        clips = list((workdir / "dataset" / "clips").iterdir())
        assert len(clips) == 9

    def test_preprocess(self, runner, workdir):
        result = invoke(runner, workdir, "preprocess")
        out = workdir / "preprocessed"
        report = out / "repair_report.csv"
        assert f"preprocessed 9 clips -> {report}" in result.output
        # The clips are noiseless and whole, so no joint needed repair.
        assert report.read_text() == ""
        assert sorted(p.name for p in out.iterdir()) == ["repair_report.csv"]

    def test_codebooks(self, runner, workdir):
        invoke(runner, workdir, "codebook", "train")
        for track in ("upper", "lower"):
            books = list((workdir / "codebooks" / track).glob("*.cbk"))
            assert len(books) == 13  # posx/posy + 3x(dx,dy,angle) + 2 relational

    def test_exemplars_predict_eval(self, runner, workdir):
        invoke(runner, workdir, "exemplars", "build")
        assert (workdir / "exemplars" / "ntraj+" / "upper.npz").exists()
        invoke(runner, workdir, "bodylang", "predict", "--split", "test")
        pred_csv = workdir / "predictions" / "ntraj+" / "test.csv"
        lines = [l for l in pred_csv.read_text().splitlines()
                 if not l.startswith("#")]
        # 3 test clips x 2 tracks x 23 windows.
        assert len(lines) == 3 * 2 * 23
        result = invoke(runner, workdir, "eval", "--task", "bodylang")
        assert "window accuracy" in result.output
        assert (workdir / "metrics" / "bodylang_ntraj+_test.csv").exists()

    def test_predict_ingests_only_its_split(self, runner, workdir,
                                            monkeypatch):
        loaded = []
        load_sequence = ingest.load_sequence

        def counting(path, frame_rate):
            loaded.append(path.name)
            return load_sequence(path, frame_rate)

        monkeypatch.setattr(ingest, "load_sequence", counting)
        invoke(runner, workdir, "bodylang", "predict", "--split", "test")
        man = ingest.load_manifest(workdir / "dataset" / "manifest.csv")
        test_clips = [e.path.split("/")[-1] for e in man.split("test")]
        assert sorted(loaded) == sorted(test_clips)

    def test_stage2_train_and_predict(self, runner, workdir):
        invoke(runner, workdir, "symptom", "train", "--epochs", "3",
               "--source", "gt")
        ckpt = workdir / "models" / "symptom_recurrent_gt_L7_S3.ckpt"
        assert ckpt.exists()
        invoke(runner, workdir, "symptom", "predict", "--source", "gt")
        out = workdir / "predictions" / "symptom_recurrent_gt_L7_S3.csv"
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 3
        assert all(r.split(",")[2] in ("ME", "MDD") for r in rows)


class TestErrors:
    def test_missing_dataset(self, runner, tmp_path):
        invoke(runner, tmp_path, "preprocess", expect=3)

    def test_inadmissible_codebook_size(self, runner, workdir):
        invoke(runner, workdir, "codebook", "train", "--N", "13", expect=3)

    def test_predict_without_artifacts(self, runner, tmp_path_factory):
        wd = tmp_path_factory.mktemp("bare")
        invoke(runner, wd, "synth", "gen", "--clips-per-split", "1")
        invoke(runner, wd, "bodylang", "predict", expect=3)

    def test_stage2_without_predictions(self, runner, workdir):
        invoke(runner, workdir, "emotion", "train", "--source", "pred",
               "--epochs", "1", expect=3)

    @pytest.mark.parametrize("args,ignored", [
        (("--axis", "N", "--source", "gt"), "--source"),
        (("--axis", "datafrac", "--feature", "stconv"), "--feature"),
        (("--axis", "feature", "--source", "pred", "--feature", "ntraj+"),
         "--source or --feature"),
        (("--axis", "LS", "--feature", "stconv"), "--feature"),
        (("--axis", "LS", "--source", "gt", "--feature", "ntraj+"),
         "--feature"),
    ])
    def test_sweep_rejects_options_its_axis_ignores(self, runner, tmp_path,
                                                    args, ignored):
        result = invoke(runner, tmp_path, "sweep", *args, expect=2)
        assert f"--axis {args[1]} does not read {ignored}" in result.output
        assert not (tmp_path / "metrics").exists()

    @pytest.mark.parametrize("task", ["emotion", "symptom"])
    def test_eval_reads_only_stage1_predictions(self, runner, tmp_path, task):
        invoke(runner, tmp_path, "eval", "--task", task, expect=2)

    def test_internal_invariant_exits_4(self, capsys):
        @cli.handle_errors
        def fails():
            raise core.InvariantViolated("k-means inertia increased")

        with pytest.raises(SystemExit) as exit_:
            fails()
        assert exit_.value.code == 4
        assert "error: k-means inertia increased" in capsys.readouterr().err


@pytest.fixture(scope="module")
def stage2_workdir(tmp_path_factory, runner):
    """A stage-2 workdir whose pose clips are deleted after generation."""
    wd = tmp_path_factory.mktemp("stage2_workdir")
    invoke(runner, wd, "synth", "gen", "--scenario", "stage2",
           "--clips-per-split", "3")
    shutil.rmtree(wd / "dataset" / "clips")
    return wd


def _write_gt_predictions(workdir, splits):
    """Ground-truth window labels as the ntraj+ stage-1 predictions of
    `splits`."""
    ds = pipeline.load_dataset(workdir / "dataset" / "manifest.csv",
                               core.PipelineConfig())
    out = workdir / "predictions" / "ntraj+"
    out.mkdir(parents=True, exist_ok=True)
    for split in splits:
        lines = ["# ground truth as predictions"]
        for entry in ds.manifest.split(split):
            lines.extend(artifacts.prediction_rows(ds.gt[entry.clip_id],
                                                   ds.label_sets))
        (out / f"{split}.csv").write_text("\n".join(lines) + "\n")


class TestStage2WithoutClips:
    @pytest.mark.parametrize("task", ["emotion", "symptom"])
    def test_train_and_predict(self, runner, stage2_workdir, task):
        invoke(runner, stage2_workdir, task, "train", "--epochs", "2")
        invoke(runner, stage2_workdir, task, "predict")
        out = stage2_workdir / "predictions" / f"{task}_recurrent_gt_L7_S3.csv"
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 3

    def test_train_fits_only_its_head(self, runner, stage2_workdir,
                                      monkeypatch):
        heads = []
        train = emotion.train_sequence_net

        def counting(net, *args, **kwargs):
            heads.append(net.config["n_out"])
            return train(net, *args, **kwargs)

        monkeypatch.setattr(emotion, "train_sequence_net", counting)
        invoke(runner, stage2_workdir, "emotion", "train", "--epochs", "2")
        assert heads == [emotion.N_EMOTIONS]

    def test_eval_bodylang(self, runner, stage2_workdir):
        _write_gt_predictions(stage2_workdir, ["test"])
        result = invoke(runner, stage2_workdir, "eval", "--task", "bodylang")
        assert "overall 1.000" in result.output

    def test_predict_reads_only_test_predictions(self, runner,
                                                 stage2_workdir, tmp_path):
        shutil.copytree(stage2_workdir / "dataset", tmp_path / "dataset")
        _write_gt_predictions(tmp_path, ingest.SPLITS)
        args = ("--source", "pred")
        invoke(runner, tmp_path, "symptom", "train", "--epochs", "2", *args)
        invoke(runner, tmp_path, "symptom", "predict", *args)
        out = tmp_path / "predictions" / "symptom_recurrent_pred_L7_S3.csv"
        written = out.read_bytes()
        out.unlink()
        for split in ("train", "val"):
            (tmp_path / "predictions" / "ntraj+" / f"{split}.csv").unlink()
        invoke(runner, tmp_path, "symptom", "predict", *args)
        assert out.read_bytes() == written

    def test_histogram_sweep_keeps_one_table_per_source(self, runner,
                                                         stage2_workdir,
                                                         tmp_path):
        shutil.copytree(stage2_workdir / "dataset", tmp_path / "dataset")
        _write_gt_predictions(tmp_path, ingest.SPLITS)
        invoke(runner, tmp_path, "sweep", "--axis", "LS")
        gt_table = (tmp_path / "metrics" / "sweep_LS.csv").read_bytes()
        result = invoke(runner, tmp_path, "sweep", "--axis", "LS",
                        "--source", "pred")
        pred_path = tmp_path / "metrics" / "sweep_LS_pred.csv"
        assert f"-> {pred_path}" in result.output
        assert (tmp_path / "metrics" / "sweep_LS.csv").read_bytes() == gt_table
        # The stage-1 predictions are the ground truth, so both tables agree.
        assert pred_path.read_bytes() == gt_table
        shutil.copytree(tmp_path / "predictions" / "ntraj+",
                        tmp_path / "predictions" / "stconv")
        invoke(runner, tmp_path, "sweep", "--axis", "LS", "--source", "pred",
               "--feature", "stconv")
        assert pred_path.read_bytes() == gt_table

    @pytest.mark.parametrize("args", [
        ("emotion", "train", "--S", "0", "--epochs", "1"),
        ("symptom", "predict", "--S", "0"),
        ("emotion", "train", "--L", "-1", "--epochs", "1"),
    ])
    def test_non_positive_histogram_window(self, runner, stage2_workdir,
                                           args):
        result = invoke(runner, stage2_workdir, *args, expect=3)
        assert "must be >= 1" in result.output


class TestBadClip:
    """A malformed keypoint file in a clip a command reads ends the command
    with exit 3 before it writes anything."""

    @pytest.fixture
    def bad_workdir(self, runner, tmp_path):
        (tmp_path / "config.txt").write_text("codebook_size=10\n")
        invoke(runner, tmp_path, "synth", "gen", "--clips-per-split", "2")
        return tmp_path

    @staticmethod
    def corrupt(workdir, clip_id, text="{not json"):
        frame = workdir / "dataset" / "clips" / clip_id / "frame_000003.json"
        frame.write_text(text)
        return frame

    @pytest.mark.parametrize("value,message", [
        ("abc", "not a number"), ([1, 2], "not a number"),
        (None, "joint 0 of pose_keypoints_2d is not finite"),
        (float("nan"), "joint 0 of pose_keypoints_2d is not finite"),
        (float("inf"), "joint 0 of pose_keypoints_2d is not finite"),
    ])
    def test_bad_coordinate(self, runner, bad_workdir, value, message):
        man = ingest.load_manifest(bad_workdir / "dataset" / "manifest.csv")
        clip_dir = bad_workdir / "dataset" / "clips" / man.entries[0].clip_id
        doc = json.loads((clip_dir / "frame_000003.json").read_text())
        doc["people"][0]["pose_keypoints_2d"][0] = value
        frame = self.corrupt(bad_workdir, man.entries[0].clip_id,
                             json.dumps(doc))
        result = invoke(runner, bad_workdir, "preprocess", expect=3)
        assert f"{frame}: " in result.output
        assert message in result.output
        assert not (bad_workdir / "preprocessed").exists()

    def test_train_split_clip(self, runner, bad_workdir):
        man = ingest.load_manifest(bad_workdir / "dataset" / "manifest.csv")
        self.corrupt(bad_workdir, man.split("train")[0].clip_id)
        for args, out in ((("preprocess",), "preprocessed"),
                          (("codebook", "train"), "codebooks"),
                          (("encoder", "train", "--epochs", "1"), "encoders")):
            result = invoke(runner, bad_workdir, *args, expect=3)
            assert "unparseable keypoint document" in result.output
            assert not (bad_workdir / out).exists()

    def test_exemplar_and_predicted_clips(self, runner, bad_workdir):
        invoke(runner, bad_workdir, "codebook", "train")
        invoke(runner, bad_workdir, "exemplars", "build")
        man = ingest.load_manifest(bad_workdir / "dataset" / "manifest.csv")
        self.corrupt(bad_workdir, man.split("test")[0].clip_id)
        result = invoke(runner, bad_workdir, "bodylang", "predict", expect=3)
        assert "unparseable keypoint document" in result.output
        assert not (bad_workdir / "predictions").exists()

        exemplars = bad_workdir / "exemplars"
        first_row = (exemplars / "ntraj+" / "exemplars.csv").read_text()
        shutil.rmtree(exemplars)
        self.corrupt(bad_workdir, first_row.split(",")[1])
        result = invoke(runner, bad_workdir, "exemplars", "build", expect=3)
        assert "unparseable keypoint document" in result.output
        assert not exemplars.exists()


@pytest.fixture(scope="module")
def small_workdir(tmp_path_factory, runner):
    """One clip per split; commands that fail here write nothing."""
    wd = tmp_path_factory.mktemp("small_workdir")
    invoke(runner, wd, "synth", "gen", "--clips-per-split", "1")
    return wd


class TestExemplarManifest:
    """A hand-written exemplar manifest is checked row by row against the
    dataset before anything is built."""

    @pytest.mark.parametrize("row,message", [
        ("upper,no_such_clip,0,{cls}", "unknown clip 'no_such_clip'"),
        ("upper,{clip},33333,{cls}", "window start 33333 outside clip"),
        ("upper,{clip},3.5,{cls}", "window start '3.5' is not an integer"),
        ("upper,{clip},3", "expected 4 columns"),
        ("upper,{clip},4,{cls}", "not a multiple of window_stride 3"),
        ("upper,{clip},0,nonsense", "unknown upper class 'nonsense'"),
    ])
    def test_bad_row(self, runner, small_workdir, row, message):
        ds = pipeline.load_dataset(
            small_workdir / "dataset" / "manifest.csv", core.PipelineConfig())
        clip = ds.manifest.split("train")[0].clip_id
        cls = ds.label_sets["upper"].names[0]
        path = small_workdir / "rows.csv"
        path.write_text(f"upper,{clip},0,{cls}\n"
                        + row.format(clip=clip, cls=cls) + "\n")
        result = invoke(runner, small_workdir, "exemplars", "build",
                        "--manifest", str(path), expect=3)
        assert f"{path}:2: " in result.output
        assert message in result.output
        assert not (small_workdir / "exemplars").exists()

    def test_set_without_rows(self, runner, small_workdir):
        path = small_workdir / "rows.csv"
        path.write_text("# set,clip_id,window_start,class\n")
        result = invoke(runner, small_workdir, "exemplars", "build",
                        "--manifest", str(path), expect=3)
        assert f"{path}: no rows for the upper set" in result.output
        assert not (small_workdir / "exemplars").exists()


@pytest.mark.parametrize("args", [
    ("eval", "--task", "bodylang"),
    ("exemplars", "build"),
    ("emotion", "train", "--epochs", "1"),
])
def test_unknown_window_label_class(runner, small_workdir, tmp_path, args):
    """A ground-truth class outside the label sets stops the command when
    the dataset loads, naming the file and line."""
    shutil.copytree(small_workdir / "dataset", tmp_path / "dataset")
    gt = tmp_path / "dataset" / "gt" / "clip001.csv"
    lines = gt.read_text().splitlines()
    index, _, lower = lines[2].split(",")
    lines[2] = f"{index},nonsense,{lower}"
    gt.write_text("\n".join(lines) + "\n")
    result = invoke(runner, tmp_path, *args, expect=3)
    assert ("gt/clip001.csv line 3: unknown upper class 'nonsense'"
            in result.output)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset"]


@pytest.mark.parametrize("args", [
    ("exemplars", "build"),
    ("symptom", "train", "--epochs", "1", "--source", "gt"),
])
def test_train_clip_without_window_labels(runner, small_workdir, tmp_path,
                                          args):
    """A training clip whose manifest line names no window-labels file
    stops a command that reads its window labels, naming the line."""
    shutil.copytree(small_workdir / "dataset", tmp_path / "dataset")
    manifest = tmp_path / "dataset" / "manifest.csv"
    lines = manifest.read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, 1)
                  if line.startswith("clip000,"))
    line = lines[lineno - 1]
    assert ",train," in line and line.endswith(",gt/clip000.csv")
    lines[lineno - 1] = line.removesuffix(",gt/clip000.csv")
    manifest.write_text("\n".join(lines) + "\n")
    result = invoke(runner, tmp_path, *args, expect=3)
    assert (f"manifest.csv line {lineno}: clip 'clip000' has no "
            f"window-labels file" in result.output)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset"]


def _move_split(small_workdir, tmp_path, split, to):
    """Copy the dataset with every `split` line moved to split `to`."""
    shutil.copytree(small_workdir / "dataset", tmp_path / "dataset")
    manifest = tmp_path / "dataset" / "manifest.csv"
    text = manifest.read_text()
    assert f",{split}," in text
    manifest.write_text(text.replace(f",{split},", f",{to},"))
    return manifest


@pytest.mark.parametrize("args", [
    ("codebook", "train"),
    ("encoder", "train", "--epochs", "1"),
    ("exemplars", "build"),
    ("emotion", "train", "--epochs", "1"),
    ("symptom", "train", "--epochs", "1"),
    ("sweep", "--axis", "LS"),
])
def test_empty_training_split(runner, small_workdir, tmp_path, args):
    """A command that trains on a split with no manifest line stops with
    exit 3 naming the manifest and the split, before writing anything."""
    manifest = _move_split(small_workdir, tmp_path, "train", "val")
    result = invoke(runner, tmp_path, *args, expect=3)
    assert f"{manifest}: no train lines" in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset"]


@pytest.mark.parametrize("split, args", [
    ("val", ("emotion", "train", "--epochs", "1")),
    ("val", ("symptom", "train", "--epochs", "1")),
    ("test", ("emotion", "train", "--epochs", "1")),
    ("test", ("symptom", "train", "--epochs", "1")),
    ("test", ("symptom", "predict")),
])
def test_stage2_empty_validation_or_test_split(runner, small_workdir,
                                               tmp_path, split, args):
    manifest = _move_split(small_workdir, tmp_path, split, "train")
    result = invoke(runner, tmp_path, *args, expect=3)
    assert f"{manifest}: no {split} lines" in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset"]


def test_encoder_train_without_labeled_windows(runner, small_workdir,
                                               tmp_path):
    shutil.copytree(small_workdir / "dataset", tmp_path / "dataset")
    manifest = tmp_path / "dataset" / "manifest.csv"
    manifest.write_text("".join(
        line.split(",gt/")[0] + "\n" if ",train," in line else line + "\n"
        for line in manifest.read_text().splitlines()))
    result = invoke(runner, tmp_path, "encoder", "train", "--epochs", "1",
                    expect=3)
    assert (f"{manifest}: no training clip has window labels"
            in result.output)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset"]


def test_codebook_train_writes_no_track_when_one_fails(
        runner, small_workdir, tmp_path, monkeypatch):
    """Both tracks' codebooks train before either is written, so a failure
    on the lower track leaves no upper codebooks behind."""
    shutil.copytree(small_workdir / "dataset", tmp_path / "dataset")
    (tmp_path / "config.txt").write_text("codebook_size=10\n"
                                         "codebook_restarts=1\n")
    train, trained = pipeline.train_codebooks, []

    def lower_fails(ds, track):
        if track == "lower":
            raise codebook.TooFewPoints("no points to cluster")
        trained.append(track)
        return train(ds, track)

    monkeypatch.setattr(pipeline, "train_codebooks", lower_fails)
    result = invoke(runner, tmp_path, "codebook", "train", expect=3)
    assert "error: no points to cluster" in result.output
    assert trained == ["upper"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.txt",
                                                          "dataset"]


@pytest.mark.parametrize("lr", ["nan", "inf"])
@pytest.mark.parametrize("command", ["encoder", "emotion"])
def test_non_finite_learning_rate(runner, small_workdir, command, lr):
    """A non-finite --lr is a bad argument (exit 3), not a net that
    diverged."""
    before = sorted(small_workdir.rglob("*"))
    result = invoke(runner, small_workdir, command, "train", "--epochs", "1",
                    "--lr", lr, expect=3)
    assert (f"learning_rate must be a finite number, got {float(lr)!r}"
            in result.output)
    assert "Warning" not in result.output
    assert sorted(small_workdir.rglob("*")) == before


def test_encoder_divergence_crosses_the_worker_boundary(runner,
                                                        small_workdir):
    """A numeric failure in an encoder's worker ends the command with
    exit 4 and writes no checkpoint."""
    before = sorted(small_workdir.rglob("*"))
    result = invoke(runner, small_workdir, "encoder", "train", "--epochs",
                    "4", "--lr", "1e308", expect=4)
    assert "error: ConvEncoder produced non-finite values" in result.output
    assert sorted(small_workdir.rglob("*")) == before


def test_parameters_that_overflow_in_the_last_step_are_a_divergence(
        runner, small_workdir):
    """Training that leaves a parameter infinite ends as a divergence
    (exit 4), not as an artifact refused for its payload."""
    before = sorted(small_workdir.rglob("*"))
    result = invoke(runner, small_workdir, "encoder", "train", "--epochs",
                    "2", "--lr", "1.7e308", expect=4)
    assert ("error: parameters diverged to non-finite values by epoch 1"
            in result.output)
    assert "payload" not in result.output
    assert sorted(small_workdir.rglob("*")) == before


class TestWindowCountMismatch:
    """A window_stride other than the dataset's gives each clip more
    windows than ground-truth rows; nothing truncates them silently."""

    @pytest.fixture
    def restrided(self, small_workdir):
        config = small_workdir / "config.txt"
        config.write_text("window_stride=2\n")  # 34 windows, 23 labels
        yield small_workdir
        config.unlink()

    def test_encoder_train(self, runner, restrided):
        result = invoke(runner, restrided, "encoder", "train", "--epochs",
                        "1", expect=3)
        assert "34 windows but 23 ground-truth window labels" in result.output
        assert not (restrided / "encoders").exists()

    def test_eval(self, runner, restrided):
        ds = pipeline.load_dataset(restrided / "dataset" / "manifest.csv",
                                   core.PipelineConfig())
        clip = ds.manifest.split("test")[0].clip_id
        zeros = np.zeros(34, dtype=int)
        pred = bodylang.BodyLanguageSequence(
            clip_id=clip, ids={"upper": zeros, "lower": zeros},
            conf={"upper": zeros + 1.0, "lower": zeros + 1.0})
        out = restrided / "predictions" / "ntraj+"
        out.mkdir(parents=True)
        (out / "test.csv").write_text(
            "\n".join(artifacts.prediction_rows(pred, ds.label_sets)) + "\n")
        result = invoke(runner, restrided, "eval", "--task", "bodylang",
                        expect=3)
        assert (f"clip {clip}: 34 windows but 23 ground-truth window labels"
                in result.output)
        shutil.rmtree(restrided / "predictions")


def test_stconv_artifacts_are_deterministic(runner, tmp_path):
    (tmp_path / "config.txt").write_text("codebook_size=10\n")
    invoke(runner, tmp_path, "synth", "gen", "--clips-per-split", "2")
    dirs = ("encoders", "exemplars", "predictions")
    runs = []
    for _ in range(2):
        invoke(runner, tmp_path, "encoder", "train", "--epochs", "2")
        invoke(runner, tmp_path, "exemplars", "build", "--feature", "stconv")
        invoke(runner, tmp_path, "bodylang", "predict", "--feature", "stconv")
        runs.append({p.relative_to(tmp_path): p.read_bytes()
                     for d in dirs for p in sorted((tmp_path / d).rglob("*"))
                     if p.is_file()})
        for d in dirs:
            shutil.rmtree(tmp_path / d)
    assert len(runs[0]) == 6  # 2 encoders, 3 exemplar files, 1 prediction
    assert runs[0] == runs[1]


def test_stconv_renders_each_clip_once(runner, tmp_path, monkeypatch):
    invoke(runner, tmp_path, "synth", "gen", "--clips-per-split", "2")
    renders = []
    encode = poseimage.encode_pose_image
    monkeypatch.setattr(poseimage, "encode_pose_image",
                        lambda *args: renders.append(1) or encode(*args))
    invoke(runner, tmp_path, "encoder", "train", "--epochs", "1")
    assert len(renders) == 2  # two training clips, both tracks
    renders.clear()
    invoke(runner, tmp_path, "exemplars", "build", "--feature", "stconv")
    rows = (tmp_path / "exemplars" / "stconv" / "exemplars.csv").read_text()
    assert len(renders) == len({row.split(",")[1] for row in rows.splitlines()})
    renders.clear()
    invoke(runner, tmp_path, "bodylang", "predict", "--feature", "stconv")
    assert len(renders) == 2  # two test clips, both tracks


def test_load_predictions_round_trip(runner, workdir, config):
    cfg = core.PipelineConfig.from_file(workdir / "config.txt")
    ds = pipeline.load_dataset(workdir / "dataset" / "manifest.csv", cfg)
    preds = artifacts.load_predictions(workdir, "ntraj+", "test", ds)
    assert len(preds) == 3
    for clip_id, pred in preds.items():
        assert pred.n_windows == 23
        assert np.all(pred.conf["upper"] > 0.0)
