"""`tools/artifact_digest.py` on a tiny hand-made workdir."""

import hashlib
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_digest.py"


def _digest(workdir):
    return subprocess.run([sys.executable, str(TOOL), str(workdir)],
                          capture_output=True, text=True)


def test_lists_every_artifact_and_nothing_else(tmp_path):
    files = {"preprocessed/repair_report.csv": b"clip000,3,0\n",
             "codebooks/upper/posx.cbk": b"centroids",
             "exemplars/ntraj+/upper.npz": b"store",
             "predictions/ntraj+/test.csv": b"clip000,upper,0,nod,0.5\n",
             "metrics/bodylang_ntraj+.txt": b"",
             "dataset/manifest.csv": b"not an artifact",
             "config.txt": b"codebook_size=10\n"}
    for rel, data in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes(data)
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


def test_missing_workdir(tmp_path):
    result = _digest(tmp_path / "nope")
    assert result.returncode == 2
    assert "is not a directory" in result.stderr
