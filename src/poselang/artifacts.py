"""Every workdir artifact, written and read back in one place.

`.cbk` codebooks and `.ckpt` checkpoints share one format: a sorted-key
JSON header line, then a little-endian float64 payload.  Exemplar stores
are `.npz` archives; predictions and metric tables are CSV text.  Readers
check each artifact's config-hash stamp and contents, and raise
`CorruptArtifact` naming the file (and line) for anything they cannot use.
"""

from __future__ import annotations

import json
import math
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import bodylang, codebook, neural
from .core import (EMOTION_NAMES, TRACKS, BodyLanguageSequence,
                   InvariantViolated, PipelineConfig, PoselangError)
from .ingest import SPLITS


class CorruptArtifact(PoselangError):
    pass


def write(path, header: dict, array) -> None:
    """Refuses a non-finite payload, which `read` would call damaged."""
    payload = np.ascontiguousarray(array, dtype="<f8")
    if not np.isfinite(payload).all():
        raise InvariantViolated(f"{path}: non-finite payload, not written")
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        fh.write(payload.tobytes())


def read(path, magic: str, expect_hash: str | None = None
         ) -> tuple[dict, np.ndarray]:
    """The header and flat payload of a file `write` made."""
    with open(path, "rb") as fh:
        first, body = fh.readline(), fh.read()
    try:
        header = json.loads(first.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CorruptArtifact(f"{path}: unreadable header ({exc})") from None
    if not isinstance(header, dict) or header.get("magic") != magic:
        raise CorruptArtifact(f"{path}: not a {magic} file")
    if expect_hash is not None and header.get("config_hash") != expect_hash:
        raise PoselangError(f"{path}: config hash "
                            f"{header.get('config_hash')} != {expect_hash}")
    if len(body) % 8:
        raise CorruptArtifact(f"{path}: payload of {len(body)} bytes is not "
                              "a whole number of float64 values")
    array = np.frombuffer(body, dtype="<f8")
    if not np.isfinite(array).all():
        raise CorruptArtifact(f"{path}: non-finite value in the payload")
    return header, array


@contextmanager
def fields_of(path):
    """Turn a missing or ill-typed field, or a payload that does not fit
    the header, into a CorruptArtifact naming `path`."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptArtifact(f"{path}: {type(exc).__name__}: {exc}") from None


def _made(directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    return directory


# ---------------------------------------------------------------------------
# Stage-1 artifacts

def save_repair_report(workdir: Path, reports) -> Path:
    """`clip_id,joint,frames_repaired` rows, in clip-id order."""
    path = _made(workdir / "preprocessed") / "repair_report.csv"
    lines = [line for clip_id in sorted(reports)
             for line in reports[clip_id].lines()]
    path.write_text("\n".join(lines) + "\n" if lines else "")
    return path


def save_codebooks(workdir: Path, track: str, books,
                   config: PipelineConfig) -> Path:
    out = _made(workdir / "codebooks" / track)
    for kind, book in books.items():
        codebook.save_codebook(book, out / f"{kind}.cbk", config.config_hash())
    return out


def load_codebooks(workdir: Path, config: PipelineConfig):
    books = {}
    for track in TRACKS:
        track_dir = workdir / "codebooks" / track
        if not track_dir.exists():
            raise PoselangError(f"no codebooks under {track_dir}; "
                                "run `codebook train` first")
        books[track] = {p.stem: codebook.load_codebook(p, config.config_hash())
                        for p in sorted(track_dir.glob("*.cbk"))}
    return books


def encoder_path(workdir: Path, track: str) -> Path:
    return workdir / "encoders" / f"{track}.ckpt"


def model_path(workdir: Path, tag: str) -> Path:
    return workdir / "models" / f"{tag}.ckpt"


def save_net(path: Path, net, config: PipelineConfig) -> Path:
    _made(path.parent)
    neural.save_checkpoint(net, path, config.config_hash())
    return path


def load_net(path: Path, config: PipelineConfig, net_types, missing: str):
    """The net at `path`, one of `net_types`; `missing` tells how to make
    the file when there is none."""
    if not path.exists():
        raise PoselangError(f"no model at {path}; {missing}")
    net = neural.load_checkpoint(path, config.config_hash())
    if not isinstance(net, net_types):
        raise CorruptArtifact(f"{path}: holds a {net.kind} net")
    return net


def load_encoders(workdir: Path, config: PipelineConfig):
    return {track: load_net(encoder_path(workdir, track), config,
                            neural.ConvEncoder, "run `encoder train`")
            for track in TRACKS}


def load_feature_models(workdir: Path, config: PipelineConfig,
                        feature_kind: str):
    """{track: model} for `feature_kind`: codebooks or encoders."""
    if feature_kind == bodylang.FEATURE_NTRAJ_PLUS:
        return load_codebooks(workdir, config)
    return load_encoders(workdir, config)


def save_stores(workdir: Path, feature_kind: str, stores,
                config: PipelineConfig, rows=None) -> Path:
    """The per-track exemplar stores, plus the exemplar manifest when the
    rows were picked rather than read from one."""
    out = _made(workdir / "exemplars" / feature_kind)
    if rows is not None:
        bodylang.save_exemplar_manifest(rows, out / "exemplars.csv")
    for track, store in stores.items():
        np.savez(out / f"{track}.npz", features=store.features,
                 labels=store.labels,
                 provenance=np.array([f"{c}:{w}" for c, w in store.provenance]),
                 config_hash=np.array(config.config_hash()))
    return out


def load_stores(workdir: Path, config: PipelineConfig, feature_kind: str,
                label_sets) -> dict[str, bodylang.ExemplarStore]:
    stores = {}
    for track in TRACKS:
        path = workdir / "exemplars" / feature_kind / f"{track}.npz"
        if not path.exists():
            raise PoselangError(f"no exemplar store at {path}")
        try:
            with np.load(path) as data:
                features, labels, prov, stamp = (data[k] for k in (
                    "features", "labels", "provenance", "config_hash"))
        except (OSError, EOFError, KeyError, TypeError, ValueError,
                NotImplementedError, RuntimeError, zipfile.BadZipFile) as exc:
            raise CorruptArtifact(f"{path}: unreadable store ({exc})") from None
        if str(stamp) != config.config_hash():
            raise PoselangError(f"{path}: config hash mismatch")
        n_classes = len(label_sets[track])
        if not (features.ndim == 2 and features.dtype.kind == "f"
                and labels.shape == prov.shape == (len(features),)
                and labels.dtype.kind in "iu" and prov.dtype.kind == "U"
                and np.all((labels >= 0) & (labels < n_classes))):
            raise CorruptArtifact(f"{path}: features, labels and provenance "
                                  f"do not form a store of {n_classes} classes")
        with fields_of(path):
            provenance = [(c, int(w)) for c, _, w in
                          (p.rpartition(":") for p in prov.tolist())]
        stores[track] = bodylang.ExemplarStore(
            track=track, feature_kind=feature_kind, features=features,
            labels=labels, label_set=label_sets[track], provenance=provenance)
    return stores


# ---------------------------------------------------------------------------
# CSV artifacts: a `# config=<hash> seed=<seed>` line, then one row a line

def _write_csv(path: Path, config: PipelineConfig, rows) -> Path:
    _made(path.parent)
    path.write_text("\n".join([f"# config={config.config_hash()} "
                               f"seed={config.seed}", *rows]) + "\n")
    return path


def prediction_rows(pred: BodyLanguageSequence, label_sets):
    """CSV rows `clip_id,track,window_index,class,confidence`."""
    for track in TRACKS:
        names = label_sets[track].names
        for w, (cid, conf) in enumerate(zip(pred.ids[track],
                                            pred.conf[track])):
            yield f"{pred.clip_id},{track},{w},{names[cid]},{conf:.6f}"


def save_predictions(workdir: Path, feature_kind: str, split: str, preds,
                     ds) -> Path:
    return _write_csv(
        workdir / "predictions" / feature_kind / f"{split}.csv", ds.config,
        (row for clip_id in sorted(preds)
         for row in prediction_rows(preds[clip_id], ds.label_sets)))


def load_predictions(workdir: Path, feature_kind: str, split: str, ds
                     ) -> dict[str, BodyLanguageSequence]:
    """One split's stage-1 predictions, read back into sequences.

    Each clip of the split needs rows on both tracks, with window indices
    0, 1, ... in order, known classes and finite confidences.  A `# config=`
    stamp must match the dataset's config; a file without one is taken as
    written by hand.
    """
    path = workdir / "predictions" / feature_kind / f"{split}.csv"
    if not path.exists():
        raise PoselangError(f"no predictions at {path}; run `bodylang predict "
                            f"--feature {feature_kind} --split {split}` first")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise CorruptArtifact(f"{path}: not UTF-8 text ({exc})") from None
    rows = {e.clip_id: {t: ([], []) for t in TRACKS}
            for e in ds.manifest.split(split)}
    for lineno, line in enumerate(lines, 1):
        line, where = line.strip(), f"{path}:{lineno}"
        stamp = line[len("# config="):].partition(" ")[0]
        if line.startswith("# config=") and stamp != ds.config.config_hash():
            raise PoselangError(f"{where}: config hash {stamp!r} != "
                                f"{ds.config.config_hash()}")
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise CorruptArtifact(f"{where}: expected 5 columns clip_id,track,"
                                  f"window_index,class,confidence, got "
                                  f"{len(parts)}")
        clip_id, track, w, cls, conf = parts
        if clip_id not in rows:
            raise CorruptArtifact(f"{where}: clip {clip_id!r} is not in the "
                                  f"{split} split")
        if track not in TRACKS:
            raise CorruptArtifact(f"{where}: unknown track {track!r}")
        ids, confs = rows[clip_id][track]
        if w != str(len(ids)):
            raise CorruptArtifact(
                f"{where}: window index {w!r}, expected {len(ids)}")
        if cls not in ds.label_sets[track].names:
            raise CorruptArtifact(f"{where}: unknown {track} class {cls!r}")
        try:
            confs.append(float(conf))
        except ValueError:
            confs.append(math.nan)
        if not math.isfinite(confs[-1]):
            raise CorruptArtifact(
                f"{where}: confidence {conf!r} is not a finite number")
        ids.append(ds.label_sets[track].index(cls))
    preds = {}
    for clip_id, by_track in rows.items():
        counts = [len(by_track[track][0]) for track in TRACKS]
        if not counts[0] or len(set(counts)) > 1:
            have = " and ".join(f"{n} {t}" for n, t in zip(counts, TRACKS))
            raise CorruptArtifact(f"{path}: clip {clip_id} has {have} rows")
        preds[clip_id] = BodyLanguageSequence(
            clip_id=clip_id,
            ids={track: np.array(ids) for track, (ids, _) in by_track.items()},
            conf={track: np.array(c) for track, (_, c) in by_track.items()})
    return preds


def load_stage2_sequences(workdir: Path, source: str, feature_kind: str, ds,
                          splits=SPLITS) -> dict[str, BodyLanguageSequence]:
    """The window-label sequences stage 2 reads, keyed by clip id: `ds.gt`
    for `--source gt`, else the stage-1 predictions of `splits`."""
    if source != "pred":
        return ds.gt
    return {clip_id: pred for split in splits for clip_id, pred in
            load_predictions(workdir, feature_kind, split, ds).items()}


# ---------------------------------------------------------------------------
# Stage-2 predictions and metric tables

def save_stage2_predictions(workdir: Path, tag: str, config: PipelineConfig,
                            task: str, predictions) -> Path:
    """`clip_id,emotion,<names>` or `clip_id,symptom,<ME|MDD>,<p>` rows."""
    if task == "emotion":
        rows = (f"{clip_id},emotion,"
                + "|".join(EMOTION_NAMES[i] for i in np.flatnonzero(p >= 0.5))
                for clip_id, p in predictions)
    else:
        rows = (f"{clip_id},symptom,{'ME' if p >= 0.5 else 'MDD'},{p:.6f}"
                for clip_id, p in predictions)
    return _write_csv(workdir / "predictions" / f"{tag}.csv", config, rows)


def write_table(workdir: Path, name: str, text: str) -> Path:
    path = _made(workdir / "metrics") / name
    path.write_text(text)
    return path
