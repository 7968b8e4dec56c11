"""Print a sha256 for every artifact file of a poselang workdir, or compare
the artifacts of two workdirs.

    python3 tools/artifact_digest.py WORKDIR
    python3 tools/artifact_digest.py WORKDIR_A WORKDIR_B

With one workdir: one `<sha256>  <path>` line per file under preprocessed/,
codebooks/, encoders/, exemplars/, predictions/, models/ and metrics/, with
paths relative to WORKDIR in sorted order, so that two workdirs hold
byte-identical artifacts exactly when their outputs `diff` clean.

With two: one line per artifact path whose bytes differ (`differs: PATH`)
or that only one side holds (`only in WORKDIR: PATH`); the exit status is
1 if there is any such line and 0 if there is none.
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


def differences(a: Path, b: Path) -> list[str]:
    """One line per artifact path that differs between `a` and `b`."""
    sides = [{rel: digest for digest, rel in digests(w)} for w in (a, b)]
    lines = []
    for rel in sorted(sides[0].keys() | sides[1].keys()):
        if rel not in sides[1]:
            lines.append(f"only in {a}: {rel}")
        elif rel not in sides[0]:
            lines.append(f"only in {b}: {rel}")
        elif sides[0][rel] != sides[1][rel]:
            lines.append(f"differs: {rel}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: python3 tools/artifact_digest.py WORKDIR [WORKDIR_B]",
              file=sys.stderr)
        return 2
    workdirs = [Path(arg) for arg in argv]
    for workdir in workdirs:
        if not workdir.is_dir():
            print(f"error: {workdir} is not a directory", file=sys.stderr)
            return 2
    if len(workdirs) == 2:
        lines = differences(*workdirs)
        for line in lines:
            print(line)
        return 1 if lines else 0
    for digest, rel in digests(workdirs[0]):
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
