"""Workdir artifacts: the shared binary format, typed errors for damaged
files, checked prediction CSVs, and the inputs checked at load time."""

import re
import shutil
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from poselang import artifacts, cli, codebook as cb, core, neural, pipeline

# One header line (sorted keys), then the payload as little-endian float64.
GOLDEN_CODEBOOK = (
    b'{"config_hash": "h", "inertia": 0.5, "kind": "dx1", '
    b'"magic": "POSELANG-CODEBOOK-1", "n": 2, "seed": 3, "t": 2}\n'
    + bytes.fromhex("000000000000e03f" "000000000000f0bf"
                    "0000000000000040" "000000000000d03f"))
GOLDEN_CHECKPOINT = (
    b'{"config": {"channels": 1, "input_dim": 1, "n_out": 1}, '
    b'"config_hash": "h", "kind": "conv1d", "magic": "POSELANG-CKPT-1", '
    b'"seed": 0}\n'
    + bytes.fromhex("000000000000f03f" "0000000000000040" "0000000000000840"
                    "000000000000e03f" "000000000000f0bf" "000000000000d03f"))


def _golden_codebook():
    return cb.Codebook("dx1", np.array([[0.5, -1.0], [2.0, 0.25]]),
                       inertia=0.5, seed=3)


def _golden_net():
    net = neural.Conv1DNet(input_dim=1, channels=1, n_out=1, seed=0)
    for p, v in zip(net.params(), ([[1.0], [2.0], [3.0]], [0.5], [[-1.0]],
                                   [0.25])):
        p[...] = v
    return net


class TestFormat:
    def test_codebook_golden_bytes(self, tmp_path):
        book = _golden_codebook()
        cb.save_codebook(book, tmp_path / "a.cbk", "h")
        assert (tmp_path / "a.cbk").read_bytes() == GOLDEN_CODEBOOK
        artifacts.write(tmp_path / "b.cbk", {
            "magic": cb.MAGIC, "kind": "dx1", "n": 2, "t": 2, "seed": 3,
            "inertia": 0.5, "config_hash": "h"}, book.centroids)
        assert (tmp_path / "b.cbk").read_bytes() == GOLDEN_CODEBOOK

    def test_checkpoint_golden_bytes(self, tmp_path):
        neural.save_checkpoint(_golden_net(), tmp_path / "a.ckpt", "h")
        assert (tmp_path / "a.ckpt").read_bytes() == GOLDEN_CHECKPOINT
        back = neural.load_checkpoint(tmp_path / "a.ckpt", "h")
        assert [p.tolist() for p in back.params()] == [
            [[1.0], [2.0], [3.0]], [0.5], [[-1.0]], [0.25]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_write_refuses_non_finite_payload(self, tmp_path, bad):
        book = _golden_codebook()
        book.centroids[1] = [0.5, bad]
        with pytest.raises(core.InvariantViolated, match="non-finite"):
            cb.save_codebook(book, tmp_path / "a.cbk", "h")
        assert not (tmp_path / "a.cbk").exists()

    def test_read_returns_header_and_payload(self, tmp_path):
        path = tmp_path / "a.cbk"
        path.write_bytes(GOLDEN_CODEBOOK)
        header, flat = artifacts.read(path, cb.MAGIC, "h")
        assert header["kind"] == "dx1"
        assert flat.tolist() == [0.5, -1.0, 2.0, 0.25]

    @pytest.mark.parametrize("data,message", [
        (GOLDEN_CODEBOOK[:40], "unreadable header"),
        (GOLDEN_CODEBOOK[:-8], "ValueError"),  # one centroid value short
        (GOLDEN_CODEBOOK[:-3], "not a whole number of float64"),
        (b"\xff\xfe garbage \x00\x01", "unreadable header"),
        (b"[1, 2]\n", "not a POSELANG-CODEBOOK-1 file"),
        (GOLDEN_CODEBOOK[:-8] + bytes.fromhex("000000000000f07f"),
         "non-finite"),
        (GOLDEN_CODEBOOK.replace(b'"n": 2', b'"n": "2"'), "TypeError"),
        (GOLDEN_CODEBOOK.replace(b'"seed": 3, ', b""), "KeyError"),
    ])
    def test_damaged_codebook(self, tmp_path, data, message):
        path = tmp_path / "dx1.cbk"
        path.write_bytes(data)
        with pytest.raises(artifacts.CorruptArtifact) as err:
            cb.load_codebook(path)
        assert str(err.value).startswith(f"{path}: ")
        assert message in str(err.value)

    @pytest.mark.parametrize("data,message", [
        (GOLDEN_CHECKPOINT.replace(b'"conv1d"', b'"bogus"'),
         "unknown net kind 'bogus'"),
        (GOLDEN_CHECKPOINT[:-8], "5 parameters, but a conv1d net"),
        (GOLDEN_CHECKPOINT.replace(b'"n_out": 1', b'"n_out": -1'),
         "ValueError"),
        (GOLDEN_CHECKPOINT.replace(b'"n_out"', b'"n_in"'), "TypeError"),
    ])
    def test_damaged_checkpoint(self, tmp_path, data, message):
        path = tmp_path / "net.ckpt"
        path.write_bytes(data)
        with pytest.raises(artifacts.CorruptArtifact,
                           match=f"^{re.escape(str(path))}: .*{message}"):
            neural.load_checkpoint(path)


# ---------------------------------------------------------------------------
# The CLI on damaged artifacts and inputs

@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def invoke(runner, workdir, *args):
    return runner.invoke(cli.main, ["--workdir", str(workdir), *args])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, runner):
    """One clip a split, with codebooks, exemplar stores, test and val
    predictions and a stage-2 symptom model."""
    wd = tmp_path_factory.mktemp("artifact_workdir")
    (wd / "config.txt").write_text("codebook_size=10\n")
    for args in (("synth", "gen", "--clips-per-split", "1"),
                 ("codebook", "train"), ("exemplars", "build"),
                 ("bodylang", "predict", "--split", "test"),
                 ("bodylang", "predict", "--split", "val"),
                 ("symptom", "train", "--epochs", "2")):
        result = invoke(runner, wd, *args)
        assert result.exit_code == 0, result.output
    return wd


@contextmanager
def replaced(path, data: bytes):
    """`path` holds `data` inside the block and its own bytes after it."""
    original = path.read_bytes()
    path.write_bytes(data)
    try:
        yield path
    finally:
        path.write_bytes(original)


CODEBOOK = "codebooks/upper/dx1.cbk"
STORE = "exemplars/ntraj+/upper.npz"
MODEL = "models/symptom_recurrent_gt_L7_S3.ckpt"
PREDICTIONS = "predictions/ntraj+/test.csv"
READER = {
    CODEBOOK: ("bodylang", "predict", "--split", "val"),
    STORE: ("bodylang", "predict", "--split", "val"),
    MODEL: ("symptom", "predict"),
    PREDICTIONS: ("eval", "--task", "bodylang"),
}


def _damage(data: bytes, kind: str):
    if kind == "cut header":
        return data[:20]
    if kind == "short body":
        return data[:-8]
    if kind == "unknown kind":
        return data.replace(b'"kind": "recurrent"', b'"kind": "bogus"')
    if kind == "huge centroid":  # finite, but quantizing against it overflows
        return data[:-8] + np.array([1e300], "<f8").tobytes()
    return b"\x00garbage\xff" * 20


@pytest.mark.parametrize("relpath,kind", [
    (CODEBOOK, "cut header"), (CODEBOOK, "short body"),
    (CODEBOOK, "garbage"), (CODEBOOK, "huge centroid"),
    (MODEL, "unknown kind"), (MODEL, "short body"), (STORE, "garbage")])
def test_damaged_artifact_exits_3(runner, workdir, relpath, kind):
    path = workdir / relpath
    with replaced(path, _damage(path.read_bytes(), kind)):
        result = invoke(runner, workdir, *READER[relpath])
    assert result.exit_code == 3, result.output
    assert f"error: {path}: " in result.output


def _row_edit(column, value):
    def edit(lines):
        parts = lines[1].split(",")
        parts[column] = value
        lines[1] = ",".join(parts)
    return edit


def _swap_rows(lines):
    lines[1], lines[2] = lines[2], lines[1]


def _drop_last_clip_lower_rows(lines):
    clip = lines[-1].split(",")[0]
    lines[:] = [line for line in lines
                if not line.startswith(f"{clip},lower,")]


@pytest.mark.parametrize("edit,line,message", [
    (lambda lines: lines.__setitem__(1, "a,b,c"), 2, "expected 5 columns"),
    (_row_edit(1, "middle"), 2, "unknown track 'middle'"),
    (_row_edit(3, "nonsense"), 2, "unknown upper class 'nonsense'"),
    (_row_edit(2, "x"), 2, "window index 'x', expected 0"),
    (_swap_rows, 2, "window index '1', expected 0"),
    (_row_edit(4, "high"), 2, "confidence 'high' is not a finite number"),
    (_row_edit(4, "nan"), 2, "confidence 'nan' is not a finite number"),
    (_row_edit(0, "nope"), 2, "clip 'nope' is not in the test split"),
    (lambda lines: lines.__setitem__(0, "# config=0123abcd seed=0"), 1,
     "config hash '0123abcd' != "),
    (lambda lines: lines.pop(), None, "has 23 upper and 22 lower rows"),
    (_drop_last_clip_lower_rows, None, "has 23 upper and 0 lower rows"),
])
def test_bad_prediction_csv_names_file_and_line(runner, workdir, edit, line,
                                                message):
    path = workdir / PREDICTIONS
    lines = path.read_text().splitlines()
    edit(lines)
    with replaced(path, ("\n".join(lines) + "\n").encode()):
        result = invoke(runner, workdir, *READER[PREDICTIONS])
    assert result.exit_code == 3, result.output
    assert f"error: {path}{f':{line}' if line else ''}: " in result.output
    assert message in result.output


def test_unstamped_prediction_csv_is_read(runner, workdir):
    path = workdir / PREDICTIONS
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config=")
    with replaced(path, ("\n".join(lines[1:]) + "\n").encode()):
        assert invoke(runner, workdir, *READER[PREDICTIONS]).exit_code == 0


def test_prediction_csv_round_trip(workdir):
    config = core.PipelineConfig.from_file(workdir / "config.txt")
    ds = pipeline.load_dataset(workdir / "dataset" / "manifest.csv", config)
    path = workdir / PREDICTIONS
    written = path.read_bytes()
    preds = artifacts.load_predictions(workdir, "ntraj+", "test", ds)
    assert artifacts.save_predictions(workdir, "ntraj+", "test", preds,
                                      ds) == path
    assert path.read_bytes() == written


@pytest.mark.parametrize("text,line,message", [
    ("knn_k=abc\n", 1, "bad knn_k value 'abc'"),
    ("# tuned\ngaps=1,x\n", 2, "bad gaps value '1,x'"),
    ("pose_image_size=32\n", 1, "pose_image_size must be two positive"),
    ("seed=0\nknn_k\n", 2, "expected key=value"),
    ("window_len=0\n", 1, "window_len must be positive"),
])
def test_bad_config_names_file_and_line(runner, tmp_path, text, line,
                                        message):
    (tmp_path / "config.txt").write_text(text)
    result = invoke(runner, tmp_path, "preprocess")
    assert result.exit_code == 3, result.output
    assert f"{tmp_path / 'config.txt'} line {line}: " in result.output
    assert message in result.output


@pytest.mark.parametrize("channel,message", [
    ("emotion:bogus_emotion", "emotion label 'bogus_emotion'"),
    ("emotion:e01|bogus_emotion", "emotion label 'bogus_emotion'"),
    ("symptom:BOGUS", "symptom label 'BOGUS'"),
    ("symptom:", "the symptom channel needs exactly one label"),
    ("symptom:MDD|ME", "the symptom channel needs exactly one label"),
    ("emotion", "no emotion channel"),
    ("symptom", "no symptom channel"),
])
@pytest.mark.parametrize("task", ["emotion", "symptom"])
def test_unknown_stage2_label_names_the_line(runner, workdir, tmp_path,
                                              channel, message, task):
    _edit_second_line(workdir, tmp_path, channel)
    result = invoke(runner, tmp_path, task, "train", "--epochs", "1")
    assert result.exit_code == 3, result.output
    assert f"manifest.csv line 2: {message}" in result.output
    assert not (tmp_path / "models").exists()


def test_predict_on_an_empty_split(runner, workdir, tmp_path):
    """`bodylang predict` on a split with no manifest line writes no
    prediction file."""
    wd = tmp_path / "wd"
    shutil.copytree(workdir, wd)
    manifest = wd / "dataset" / "manifest.csv"
    manifest.write_text(manifest.read_text().replace(",val,", ",train,"))
    (wd / "predictions" / "ntraj+" / "val.csv").unlink()
    result = invoke(runner, wd, "bodylang", "predict", "--split", "val")
    assert result.exit_code == 3, result.output
    assert f"{manifest}: no val lines" in result.output
    assert not (wd / "predictions" / "ntraj+" / "val.csv").exists()


def _edit_second_line(workdir, tmp_path, *channels):
    """Copy the dataset and set the given channels of its second manifest
    line; a channel name without a colon drops that channel."""
    shutil.copytree(workdir / "dataset", tmp_path / "dataset")
    manifest = tmp_path / "dataset" / "manifest.csv"
    lines = manifest.read_text().splitlines()
    for channel in channels:
        task, colon, _ = channel.partition(":")
        lines[1] = re.sub(task + r":[^;,]*", channel if colon else "",
                          lines[1])
    manifest.write_text("\n".join(lines) + "\n")


def test_stage1_reads_a_line_without_stage2_labels(runner, workdir,
                                                   tmp_path):
    _edit_second_line(workdir, tmp_path, "emotion", "symptom")
    result = invoke(runner, tmp_path, "preprocess")
    assert result.exit_code == 0, result.output


# ---------------------------------------------------------------------------
# Property: a damaged artifact ends in exit 3 naming it, or is read (exit 0)

DAMAGE = st.one_of(
    st.tuples(st.just("cut"), st.integers(min_value=0)),
    st.tuples(st.just("flip"), st.integers(min_value=0),
              st.integers(min_value=1, max_value=255)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=64)))


def _apply(data: bytes, damage) -> bytes:
    if damage[0] == "cut":
        return data[:damage[1] % len(data)]
    if damage[0] == "flip":
        i = damage[1] % len(data)
        return data[:i] + bytes([data[i] ^ damage[2]]) + data[i + 1:]
    return data + damage[1]


@pytest.mark.parametrize("relpath", [CODEBOOK, STORE, MODEL, PREDICTIONS])
@given(damage=DAMAGE)
def test_damaged_artifact_never_ends_in_a_traceback(runner, workdir, relpath,
                                                    damage):
    path = workdir / relpath
    with replaced(path, _apply(path.read_bytes(), damage)):
        result = invoke(runner, workdir, *READER[relpath])
    assert result.exit_code in (0, 3), (damage, result.output,
                                        result.exception)
    if result.exit_code == 3:
        assert str(path) in result.output, (damage, result.output)
