"""Print a sha256 for every artifact file of a poselang workdir.

    python3 tools/artifact_digest.py WORKDIR

One `<sha256>  <path>` line per file under preprocessed/, codebooks/,
encoders/, exemplars/, predictions/, models/ and metrics/, with paths
relative to WORKDIR in sorted order, so that two workdirs hold byte-identical
artifacts exactly when their outputs `diff` clean.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ARTIFACT_DIRS = ("preprocessed", "codebooks", "encoders", "exemplars",
                 "predictions", "models", "metrics")


def digests(workdir: Path) -> list[tuple[str, str]]:
    """(sha256 hex digest, relative posix path) for every artifact file."""
    out = []
    for name in ARTIFACT_DIRS:
        for path in sorted((workdir / name).rglob("*")):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                out.append((digest, path.relative_to(workdir).as_posix()))
    return sorted(out, key=lambda item: item[1])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/artifact_digest.py WORKDIR",
              file=sys.stderr)
        return 2
    workdir = Path(argv[0])
    if not workdir.is_dir():
        print(f"error: {workdir} is not a directory", file=sys.stderr)
        return 2
    for digest, rel in digests(workdir):
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
