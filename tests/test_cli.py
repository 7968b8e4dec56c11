"""End-to-end CLI flow on a tiny workdir, plus error codes."""

import shutil

import numpy as np
import pytest
from click.testing import CliRunner

from poselang import bodylang, cli, core, ingest, pipeline


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
        invoke(runner, workdir, "preprocess")
        out = workdir / "preprocessed"
        assert len(list(out.glob("*.npz"))) == 9
        meta = (out / "meta.txt").read_text()
        assert "config_hash=" in meta

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


@pytest.fixture(scope="module")
def stage2_workdir(tmp_path_factory, runner):
    """A stage-2 workdir whose pose clips are deleted after generation."""
    wd = tmp_path_factory.mktemp("stage2_workdir")
    invoke(runner, wd, "synth", "gen", "--scenario", "stage2",
           "--clips-per-split", "3")
    shutil.rmtree(wd / "dataset" / "clips")
    return wd


class TestStage2WithoutClips:
    @pytest.mark.parametrize("task", ["emotion", "symptom"])
    def test_train_and_predict(self, runner, stage2_workdir, task):
        invoke(runner, stage2_workdir, task, "train", "--epochs", "2")
        invoke(runner, stage2_workdir, task, "predict")
        out = stage2_workdir / "predictions" / f"{task}_recurrent_gt_L7_S3.csv"
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 3

    def test_eval_bodylang(self, runner, stage2_workdir):
        ds = pipeline.load_dataset(
            stage2_workdir / "dataset" / "manifest.csv", core.PipelineConfig())
        lines = ["# ground truth as predictions"]
        for entry in ds.manifest.split("test"):
            lines.extend(bodylang.prediction_rows(
                pipeline.gt_sequence(ds, entry.clip_id), ds.label_sets))
        out = stage2_workdir / "predictions" / "ntraj+"
        out.mkdir(parents=True)
        (out / "test.csv").write_text("\n".join(lines) + "\n")
        result = invoke(runner, stage2_workdir, "eval", "--task", "bodylang")
        assert "overall 1.000" in result.output

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
    def corrupt(workdir, clip_id):
        frame = workdir / "dataset" / "clips" / clip_id / "frame_000003.json"
        frame.write_text("{not json")

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
            clip_id=clip, upper=zeros, lower=zeros, upper_conf=zeros + 1.0,
            lower_conf=zeros + 1.0, window_len=6, stride=2)
        out = restrided / "predictions" / "ntraj+"
        out.mkdir(parents=True)
        (out / "test.csv").write_text(
            "\n".join(bodylang.prediction_rows(pred, ds.label_sets)) + "\n")
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


def test_load_predictions_round_trip(runner, workdir, config):
    cfg = core.PipelineConfig.from_file(workdir / "config.txt")
    ds = pipeline.load_dataset(workdir / "dataset" / "manifest.csv", cfg)
    preds = cli.load_predictions(
        workdir / "predictions" / "ntraj+" / "test.csv", ds)
    assert len(preds) == 3
    for clip_id, pred in preds.items():
        assert pred.n_windows == 23
        assert np.all(pred.upper_conf > 0.0)
