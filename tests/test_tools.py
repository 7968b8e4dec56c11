"""`tools/artifact_digest.py` on tiny hand-made workdirs."""

import hashlib
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_digest.py"


def _digest(*workdirs):
    return subprocess.run([sys.executable, str(TOOL), *map(str, workdirs)],
                          capture_output=True, text=True)


def _write(workdir, files):
    for rel, data in files.items():
        (workdir / rel).parent.mkdir(parents=True, exist_ok=True)
        (workdir / rel).write_bytes(data)


def test_lists_every_artifact_and_nothing_else(tmp_path):
    files = {"preprocessed/repair_report.csv": b"clip000,3,0\n",
             "codebooks/upper/posx.cbk": b"centroids",
             "exemplars/ntraj+/upper.npz": b"store",
             "predictions/ntraj+/test.csv": b"clip000,upper,0,nod,0.5\n",
             "metrics/bodylang_ntraj+.txt": b"",
             "dataset/manifest.csv": b"not an artifact",
             "config.txt": b"codebook_size=10\n"}
    _write(tmp_path, files)
    result = _digest(tmp_path)
    assert result.returncode == 0
    assert result.stdout.splitlines() == [
        f"{hashlib.sha256(files[rel]).hexdigest()}  {rel}"
        for rel in sorted(files)
        if rel.split("/")[0] in ("preprocessed", "codebooks", "exemplars",
                                 "predictions", "metrics")]


def test_equal_workdirs_print_equal_digests(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side / "models").mkdir(parents=True)
        (tmp_path / side / "models" / "emotion.ckpt").write_bytes(b"weights")
    a, b = _digest(tmp_path / "a"), _digest(tmp_path / "b")
    assert a.stdout == b.stdout and a.stdout.count("\n") == 1
    (tmp_path / "b" / "models" / "emotion.ckpt").write_bytes(b"weightz")
    assert _digest(tmp_path / "b").stdout != a.stdout


def test_compare_identical_workdirs(tmp_path):
    files = {"codebooks/upper/posx.cbk": b"centroids",
             "models/emotion.ckpt": b"weights",
             "dataset/manifest.csv": b"not an artifact"}
    _write(tmp_path / "a", files)
    _write(tmp_path / "b", dict(files, **{"dataset/manifest.csv": b"other"}))
    result = _digest(tmp_path / "a", tmp_path / "b")
    assert (result.returncode, result.stdout) == (0, "")


def test_compare_names_each_difference(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, {"codebooks/upper/posx.cbk": b"centroids",
               "codebooks/upper/posy.cbk": b"same",
               "metrics/bodylang_ntraj+.txt": b"0.5"})
    _write(b, {"codebooks/upper/posx.cbk": b"centroidz",
               "codebooks/upper/posy.cbk": b"same",
               "predictions/ntraj+/test.csv": b"rows"})
    result = _digest(a, b)
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "differs: codebooks/upper/posx.cbk",
        f"only in {a}: metrics/bodylang_ntraj+.txt",
        f"only in {b}: predictions/ntraj+/test.csv"]


def test_missing_workdir(tmp_path):
    result = _digest(tmp_path / "nope")
    assert result.returncode == 2
    assert "is not a directory" in result.stderr
    result = _digest(tmp_path, tmp_path / "nope")
    assert result.returncode == 2
    assert "is not a directory" in result.stderr


def test_too_many_workdirs(tmp_path):
    result = _digest(tmp_path, tmp_path, tmp_path)
    assert result.returncode == 2
    assert "usage:" in result.stderr
