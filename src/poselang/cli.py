"""Command-line surface for the pipeline.

All commands share a --workdir holding the dataset and derived artifacts:

    workdir/
      dataset/        manifest.csv, labels.csv, clips/, gt/
      preprocessed/   per-clip arrays + repair report
      codebooks/      per-track, per-stream-kind artifacts
      encoders/       conv-encoder checkpoints
      exemplars/      exemplar manifest + feature stores
      predictions/    stage-1 prediction CSVs
      models/         stage-2 checkpoints
      metrics/        metric tables

Exit codes: 0 ok; 2 usage error (unknown command or option, malformed
option value); 3 data error or invalid argument value (missing or malformed
dataset or artifact, `--N 13`, `--S 0`); 4 numeric failure in training
(diverged loss, non-finite activation).
"""

from __future__ import annotations

import dataclasses
import sys
from functools import wraps
from pathlib import Path

import click
import numpy as np

from . import bodylang, codebook as cbmod, emotion as emomod, ingest, metrics, neural, pipeline, synth
from .core import ADMISSIBLE_CODEBOOK_SIZES, PipelineConfig, PoselangError


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def handle_errors(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (neural.DivergedLoss, neural.NonFiniteActivation) as exc:
            _fail(str(exc), 4)
        except PoselangError as exc:
            _fail(str(exc), 3)
        except FileNotFoundError as exc:
            _fail(str(exc), 3)
    return wrapper


def _load_config(workdir: Path, seed: int | None, **overrides) -> PipelineConfig:
    cfg_path = workdir / "config.txt"
    config = PipelineConfig.from_file(cfg_path) if cfg_path.exists() \
        else PipelineConfig()
    changes = {k: v for k, v in overrides.items() if v is not None}
    if seed is not None:
        changes["seed"] = seed
    if changes:
        config = dataclasses.replace(config, **changes)
    return config


def _dataset(workdir: Path, config: PipelineConfig) -> pipeline.Dataset:
    manifest = workdir / "dataset" / "manifest.csv"
    if not manifest.exists():
        raise PoselangError(f"no dataset manifest at {manifest}")
    return pipeline.load_dataset(manifest, config)


@click.group()
@click.option("--workdir", type=click.Path(path_type=Path), default=Path("."),
              show_default=True, help="Directory holding dataset and artifacts.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.pass_context
def main(ctx, workdir: Path, seed):
    ctx.ensure_object(dict)
    ctx.obj["workdir"] = workdir
    ctx.obj["seed"] = seed


# ---------------------------------------------------------------------------
@main.group("synth")
def synth_group():
    """Synthetic dataset generation."""


@synth_group.command("gen")
@click.option("--out", "out_dir", type=click.Path(path_type=Path), default=None)
@click.option("--scenario", type=click.Choice(["default", "stage2"]),
              default="default", show_default=True,
              help="stage2 = short segments + spread motion bias, for the "
                   "emotion/symptom experiments.")
@click.option("--clips-per-split", type=int, default=48, show_default=True)
@click.option("--clip-len", type=int, default=None,
              help="Frames per clip (default per scenario).")
@click.option("--noise-std", type=float, default=0.0, show_default=True)
@click.option("--dropout", type=float, default=0.0, show_default=True)
@click.pass_context
@handle_errors
def synth_gen(ctx, out_dir, scenario, clips_per_split, clip_len, noise_std,
              dropout):
    """Generate a synthetic dataset into WORKDIR/dataset."""
    workdir = ctx.obj["workdir"]
    config = _load_config(workdir, ctx.obj["seed"])
    out_dir = out_dir or workdir / "dataset"
    kwargs = dict(clips_per_split=clips_per_split, noise_std=noise_std,
                  dropout_rate=dropout, seed=config.seed)
    if clip_len is not None:
        kwargs["clip_len"] = clip_len
    bias_fn = None
    if scenario == "stage2":
        spec = synth.stage2_scenario(**kwargs)
        bias_fn = synth.spread_motion_bias
    else:
        spec = synth.ScenarioSpec(**kwargs)
    manifest = synth.generate_dataset(spec, out_dir, config,
                                      motion_bias_fn=bias_fn)
    click.echo(f"wrote {3 * clips_per_split} clips, manifest {manifest}")


# ---------------------------------------------------------------------------
@main.command("preprocess")
@click.pass_context
@handle_errors
def preprocess_cmd(ctx):
    """Preprocess every clip; store arrays plus a repair report."""
    workdir = ctx.obj["workdir"]
    config = _load_config(workdir, ctx.obj["seed"])
    ds = _dataset(workdir, config)
    # Ingest every clip before the first write, so a bad clip leaves no
    # partial output.
    seqs = {clip_id: ds.sequences[clip_id]
            for clip_id in sorted(e.clip_id for e in ds.manifest.entries)}
    out = workdir / "preprocessed"
    out.mkdir(parents=True, exist_ok=True)
    report_lines = []
    for clip_id, seq in seqs.items():
        np.savez(out / f"{clip_id}.npz", xy=seq.xy, confidence=seq.confidence)
        report_lines.extend(ds.reports[clip_id].lines())
    (out / "meta.txt").write_text(
        f"config_hash={config.config_hash()}\nseed={config.seed}\n")
    (out / "repair_report.csv").write_text("\n".join(report_lines) + "\n"
                                           if report_lines else "")
    click.echo(f"preprocessed {len(seqs)} clips -> {out}")


# ---------------------------------------------------------------------------
@main.group("codebook")
def codebook_group():
    """Bag-of-features codebooks."""


@codebook_group.command("train")
@click.option("--kind", "feature_kind", type=click.Choice(["ntraj+"]),
              default="ntraj+", show_default=True)
@click.option("--N", "size", type=int, default=None,
              help="Codebook size (admissible: 10,20,50,100,200,500).")
@click.pass_context
@handle_errors
def codebook_train(ctx, feature_kind, size):
    """Train per-stream-kind codebooks on the training split."""
    workdir = ctx.obj["workdir"]
    config = _load_config(workdir, ctx.obj["seed"], codebook_size=size)
    if size is not None and size not in ADMISSIBLE_CODEBOOK_SIZES:
        raise PoselangError(
            f"N={size} not in admissible set {ADMISSIBLE_CODEBOOK_SIZES}")
    ds = _dataset(workdir, config)
    for track in ("upper", "lower"):
        books = pipeline.train_codebooks(ds, track)
        out = workdir / "codebooks" / track
        out.mkdir(parents=True, exist_ok=True)
        for kind, book in books.items():
            cbmod.save_codebook(book, out / f"{kind}.cbk", config.config_hash())
        click.echo(f"{track}: {len(books)} codebooks -> {out}")


def _load_codebooks(workdir: Path, config: PipelineConfig):
    books = {}
    for track in ("upper", "lower"):
        track_dir = workdir / "codebooks" / track
        if not track_dir.exists():
            raise PoselangError(f"no codebooks under {track_dir}; "
                                "run `codebook train` first")
        books[track] = {
            p.stem: cbmod.load_codebook(p, config.config_hash())
            for p in sorted(track_dir.glob("*.cbk"))
        }
    return books


# ---------------------------------------------------------------------------
@main.group("encoder")
def encoder_group():
    """Convolutional pose-image encoder."""


@encoder_group.command("train")
@click.option("--epochs", type=int, default=90, show_default=True)
@click.option("--lr", type=float, default=0.05, show_default=True)
@click.pass_context
@handle_errors
def encoder_train(ctx, epochs, lr):
    """Train one encoder per track on frame-labeled training windows."""
    workdir = ctx.obj["workdir"]
    config = _load_config(workdir, ctx.obj["seed"])
    ds = _dataset(workdir, config)
    out = workdir / "encoders"
    for track in ("upper", "lower"):
        spec = neural.TrainSpec(learning_rate=lr, epochs=epochs,
                                seed=config.seed, loss="softmax")
        enc = pipeline.train_encoder(ds, track, spec)
        out.mkdir(parents=True, exist_ok=True)
        neural.save_checkpoint(enc.inner, out / f"{track}.ckpt",
                               config.config_hash())
        click.echo(f"{track}: encoder -> {out / (track + '.ckpt')}")


def _load_encoders(workdir: Path, config: PipelineConfig):
    encoders = {}
    for track in ("upper", "lower"):
        path = workdir / "encoders" / f"{track}.ckpt"
        if not path.exists():
            raise PoselangError(f"no encoder at {path}; run `encoder train`")
        encoders[track] = pipeline._ScaledEncoder(
            neural.load_checkpoint(path, config.config_hash()))
    return encoders


# ---------------------------------------------------------------------------
@main.group("exemplars")
def exemplars_group():
    """Exemplar selection and store building."""


@exemplars_group.command("build")
@click.option("--manifest", "ex_manifest", type=click.Path(path_type=Path),
              default=None, help="Exemplar manifest; auto-picked when absent.")
@click.option("--feature", "feature_kind",
              type=click.Choice(["ntraj+", "stconv"]), default="ntraj+",
              show_default=True)
@click.option("--per-class", type=int, default=6, show_default=True)
@click.pass_context
@handle_errors
def exemplars_build(ctx, ex_manifest, feature_kind, per_class):
    """Build per-track exemplar feature stores."""
    workdir = ctx.obj["workdir"]
    config = _load_config(workdir, ctx.obj["seed"])
    ds = _dataset(workdir, config)
    out = workdir / "exemplars" / feature_kind
    if ex_manifest is None:
        rows = synth.pick_exemplars(ds.manifest, ds.gt_windows, ds.label_sets,
                                    config.window_stride, per_class,
                                    config.seed)
    else:
        rows = bodylang.load_exemplar_manifest(ex_manifest, ds.sequences,
                                               config)
    codebooks = _load_codebooks(workdir, config) \
        if feature_kind == "ntraj+" else None
    encoders = _load_encoders(workdir, config) \
        if feature_kind == "stconv" else None
    stores = pipeline.build_stores(ds, rows, bodylang.FEATURE_NTRAJ_PLUS
                                   if feature_kind == "ntraj+"
                                   else bodylang.FEATURE_STCONV,
                                   codebooks, encoders)
    out.mkdir(parents=True, exist_ok=True)
    if ex_manifest is None:
        bodylang.save_exemplar_manifest(rows, out / "exemplars.csv")
    for track, store in stores.items():
        np.savez(out / f"{track}.npz", features=store.features,
                 labels=store.labels,
                 provenance=np.array([f"{c}:{w}" for c, w in store.provenance]),
                 config_hash=np.array(config.config_hash()))
        click.echo(f"{track}: {len(store)} exemplars -> {out / (track + '.npz')}")


def _load_stores(workdir: Path, config: PipelineConfig, feature_kind: str, ds):
    stores = {}
    kind = bodylang.FEATURE_NTRAJ_PLUS if feature_kind == "ntraj+" \
        else bodylang.FEATURE_STCONV
    for track in ("upper", "lower"):
        path = workdir / "exemplars" / feature_kind / f"{track}.npz"
        if not path.exists():
            raise PoselangError(f"no exemplar store at {path}")
        data = np.load(path)
        if str(data["config_hash"]) != config.config_hash():
            raise PoselangError(f"{path}: config hash mismatch")
        prov = [tuple(p.split(":")) for p in data["provenance"].tolist()]
        stores[track] = bodylang.ExemplarStore(
            track=track, feature_kind=kind, features=data["features"],
            labels=data["labels"], label_set=ds.label_sets[track],
            provenance=[(c, int(w)) for c, w in prov])
    return stores


# ---------------------------------------------------------------------------
@main.group("bodylang")
def bodylang_group():
    """Stage-1 body-language prediction."""


@bodylang_group.command("predict")
@click.option("--feature", "feature_kind",
              type=click.Choice(["ntraj+", "stconv"]), default="ntraj+",
              show_default=True)
@click.option("--split", type=click.Choice(["train", "val", "test"]),
              default="test", show_default=True)
@click.pass_context
@handle_errors
def bodylang_predict(ctx, feature_kind, split):
    """Predict body-language sequences for one split."""
    workdir = ctx.obj["workdir"]
    config = _load_config(workdir, ctx.obj["seed"])
    ds = _dataset(workdir, config)
    stores = _load_stores(workdir, config, feature_kind, ds)
    codebooks = _load_codebooks(workdir, config) \
        if feature_kind == "ntraj+" else None
    encoders = _load_encoders(workdir, config) \
        if feature_kind == "stconv" else None
    preds = pipeline.predict_split(ds, split, stores, codebooks, encoders)
    out = workdir / "predictions" / feature_kind
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"# config={config.config_hash()} seed={config.seed}"]
    for clip_id in sorted(preds):
        lines.extend(bodylang.prediction_rows(preds[clip_id], ds.label_sets))
    (out / f"{split}.csv").write_text("\n".join(lines) + "\n")
    click.echo(f"{len(preds)} clips -> {out / (split + '.csv')}")


def load_predictions(path, ds) -> dict[str, bodylang.BodyLanguageSequence]:
    """Read a stage-1 prediction CSV back into sequences."""
    rows: dict[str, dict[str, list]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            clip_id, track, w, cls, conf = line.split(",")
            entry = rows.setdefault(clip_id, {"upper": [], "lower": [],
                                              "upper_conf": [], "lower_conf": []})
            entry[track].append(ds.label_sets[track].index(cls))
            entry[f"{track}_conf"].append(float(conf))
    preds = {}
    for clip_id, e in rows.items():
        preds[clip_id] = bodylang.BodyLanguageSequence(
            clip_id=clip_id, upper=np.array(e["upper"]),
            lower=np.array(e["lower"]),
            upper_conf=np.array(e["upper_conf"]),
            lower_conf=np.array(e["lower_conf"]),
            window_len=ds.config.window_len, stride=ds.config.window_stride)
    return preds


# ---------------------------------------------------------------------------
def _stage2_splits(ctx, hist_len, stride, source, feature_kind):
    workdir = ctx.obj["workdir"]
    config = _load_config(workdir, ctx.obj["seed"])
    ds = _dataset(workdir, config)
    hist_len = 10 ** 9 if hist_len == 0 else hist_len  # L=K: whole track
    data = {}
    for split in ("train", "val", "test"):
        preds = None
        if source == "pred":
            path = workdir / "predictions" / feature_kind / f"{split}.csv"
            if not path.exists():
                raise PoselangError(f"no predictions at {path}; "
                                    "run `bodylang predict` for every split")
            preds = load_predictions(path, ds)
        data[split] = pipeline.stage2_data(ds, split, hist_len, stride, preds)
    return workdir, config, ds, data


_stage2_options = [
    click.option("--L", "hist_len", type=int, default=7, show_default=True,
                 help="Histogram window length in stage-1 windows; 0 = whole video."),
    click.option("--S", "stride", type=int, default=3, show_default=True),
    click.option("--source", type=click.Choice(["gt", "pred"]), default="gt",
                 show_default=True, help="Train on ground-truth or predicted sequences."),
    click.option("--feature", "feature_kind",
                 type=click.Choice(["ntraj+", "stconv"]), default="ntraj+"),
    click.option("--net", "net_kind", type=click.Choice(["recurrent", "conv1d"]),
                 default="recurrent", show_default=True),
    click.option("--epochs", type=int, default=400, show_default=True),
    click.option("--lr", type=float, default=0.5, show_default=True),
]


def _with_options(options):
    def deco(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return deco


def _train_stage2(ctx, hist_len, stride, source, feature_kind, net_kind,
                  epochs, lr, task):
    workdir, config, ds, data = _stage2_splits(ctx, hist_len, stride, source,
                                               feature_kind)
    spec = neural.TrainSpec(learning_rate=lr, epochs=epochs, batch_size=16,
                            seed=config.seed, loss="bce")
    emo_net, sym_net, history = emomod.train_stage2(
        data["train"], data["val"], ds.label_sets, spec, net_kind,
        patience=50)
    out = workdir / "models"
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{task}_{net_kind}_{source}_L{hist_len}_S{stride}"
    net = emo_net if task == "emotion" else sym_net
    neural.save_checkpoint(net, out / f"{tag}.ckpt", config.config_hash())
    click.echo(f"{task} model -> {out / (tag + '.ckpt')}")
    test = data["test"]
    if task == "emotion":
        scores = pipeline.evaluate_stage2_emotion(net, test)
        click.echo(metrics.scores_table({tag: scores}), nl=False)
    else:
        acc = pipeline.evaluate_stage2_symptom(net, test)
        click.echo(f"{tag} test accuracy: {acc:.3f}")


def _predict_stage2(ctx, hist_len, stride, source, feature_kind, net_kind, task):
    workdir, config, ds, data = _stage2_splits(ctx, hist_len, stride, source,
                                               feature_kind)
    tag = f"{task}_{net_kind}_{source}_L{hist_len}_S{stride}"
    path = workdir / "models" / f"{tag}.ckpt"
    if not path.exists():
        raise PoselangError(f"no model at {path}; run `{task} train` first")
    net = neural.load_checkpoint(path, config.config_hash())
    out = workdir / "predictions"
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"# config={config.config_hash()} seed={config.seed}"]
    names = synth.emotion_names()
    for entry, (hist, _, _) in zip(
            sorted(ds.manifest.split("test"), key=lambda e: e.clip_id),
            data["test"]):
        if task == "emotion":
            pred = emomod.predict_emotion(hist, net)
            present = "|".join(names[i] for i in np.flatnonzero(pred.nhot))
            lines.append(f"{entry.clip_id},emotion,{present}")
        else:
            p = emomod.predict_symptom(hist, net)
            lines.append(f"{entry.clip_id},symptom,"
                         f"{'ME' if p >= 0.5 else 'MDD'},{p:.6f}")
    (out / f"{tag}.csv").write_text("\n".join(lines) + "\n")
    click.echo(f"predictions -> {out / (tag + '.csv')}")


for task in ("emotion", "symptom"):
    group = click.Group(task, help=f"Stage-2 {task} prediction.")
    main.add_command(group)

    @click.command("train")
    @_with_options(_stage2_options)
    @click.pass_context
    @handle_errors
    def _train(ctx, hist_len, stride, source, feature_kind, net_kind, epochs,
               lr, _task=task):
        _train_stage2(ctx, hist_len, stride, source, feature_kind, net_kind,
                      epochs, lr, _task)

    @click.command("predict")
    @_with_options(_stage2_options[:5])
    @click.pass_context
    @handle_errors
    def _predict(ctx, hist_len, stride, source, feature_kind, net_kind,
                 _task=task):
        _predict_stage2(ctx, hist_len, stride, source, feature_kind, net_kind,
                        _task)

    group.add_command(_train)
    group.add_command(_predict)


# ---------------------------------------------------------------------------
@main.command("eval")
@click.option("--task", type=click.Choice(["bodylang", "emotion", "symptom"]),
              required=True)
@click.option("--feature", "feature_kind",
              type=click.Choice(["ntraj+", "stconv"]), default="ntraj+",
              show_default=True)
@click.option("--split", type=click.Choice(["train", "val", "test"]),
              default="test", show_default=True)
@click.pass_context
@handle_errors
def eval_cmd(ctx, task, feature_kind, split):
    """Evaluate stored predictions against the manifest labels."""
    workdir = ctx.obj["workdir"]
    config = _load_config(workdir, ctx.obj["seed"])
    ds = _dataset(workdir, config)
    out = workdir / "metrics"
    out.mkdir(parents=True, exist_ok=True)
    if task == "bodylang":
        path = workdir / "predictions" / feature_kind / f"{split}.csv"
        if not path.exists():
            raise PoselangError(f"no predictions at {path}")
        preds = load_predictions(path, ds)
        scores = pipeline.video_multilabel(ds, preds)
        acc = pipeline.window_accuracy(ds, preds)
        rows = {f"{feature_kind}+KNN {track} set": s
                for track, s in scores.items()}
        table = metrics.scores_table(rows)
        table += (f"window accuracy: upper {acc['upper']:.3f} "
                  f"lower {acc['lower']:.3f} overall {acc['overall']:.3f}\n")
        (out / f"bodylang_{feature_kind}_{split}.csv").write_text(
            metrics.scores_csv(rows))
        click.echo(table, nl=False)
    else:
        raise PoselangError(
            f"`eval --task {task}` reads stage-2 prediction files; use "
            f"`{task} train` which reports test metrics, or `sweep --axis LS`")


# ---------------------------------------------------------------------------
@main.command("sweep")
@click.option("--axis", type=click.Choice(["N", "LS", "datafrac", "feature"]),
              required=True)
@click.option("--source", type=click.Choice(["gt", "pred"]), default="gt",
              show_default=True)
@click.option("--feature", "feature_kind",
              type=click.Choice(["ntraj+", "stconv"]), default="ntraj+")
@click.pass_context
@handle_errors
def sweep_cmd(ctx, axis, source, feature_kind):
    """Ablation sweeps; aggregated CSV of metric rows."""
    workdir = ctx.obj["workdir"]
    config = _load_config(workdir, ctx.obj["seed"])
    ds = _dataset(workdir, config)
    out = workdir / "metrics"
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    if axis == "N":
        lines.append("N,track,window_accuracy,video_f1")
        for n in ADMISSIBLE_CODEBOOK_SIZES:
            cfg = dataclasses.replace(config, codebook_size=n)
            sub = dataclasses.replace(ds, config=cfg)
            books = {t: pipeline.train_codebooks(sub, t)
                     for t in ("upper", "lower")}
            rows = synth.pick_exemplars(ds.manifest, ds.gt_windows,
                                        ds.label_sets, cfg.window_stride,
                                        seed=cfg.seed)
            stores = pipeline.build_stores(sub, rows,
                                           bodylang.FEATURE_NTRAJ_PLUS, books)
            preds = pipeline.predict_split(sub, "test", stores, books)
            acc = pipeline.window_accuracy(sub, preds)
            f1s = pipeline.video_multilabel(sub, preds)
            for track in ("upper", "lower"):
                lines.append(f"{n},{track},{acc[track]:.6f},"
                             f"{f1s[track].f1:.6f}")
    elif axis == "LS":
        lines.append("L,S,accuracy,precision,recall,f1")
        K = min(len(g) for g in ds.gt_windows.values()) if ds.gt_windows \
            else config.emo_hist_len
        for L, S in ((1, 1), (config.emo_hist_len, config.emo_hist_stride),
                     (K, K)):
            _, _, _, data = _stage2_splits(ctx, L, S, source, feature_kind)
            spec = neural.TrainSpec(learning_rate=0.5, epochs=400,
                                    batch_size=16, seed=config.seed, loss="bce")
            emo_net, _, _ = emomod.train_stage2(
                data["train"], data["val"], ds.label_sets, spec, patience=50)
            s = pipeline.evaluate_stage2_emotion(emo_net, data["test"])
            lines.append(f"{L},{S},{s.accuracy:.6f},{s.precision:.6f},"
                         f"{s.recall:.6f},{s.f1:.6f}")
    elif axis == "datafrac":
        lines.append("fraction,track,window_accuracy")
        train_ids = sorted(e.clip_id for e in ds.manifest.split("train"))
        accs = {}
        for frac in (1.0, 0.5, 0.2):
            ids = train_ids[:max(1, int(round(frac * len(train_ids))))]
            encs = {}
            for track in ("upper", "lower"):
                spec = neural.TrainSpec(learning_rate=0.05, epochs=90,
                                        seed=config.seed, loss="softmax")
                encs[track] = pipeline.train_encoder(ds, track, spec, ids)
            rows = synth.pick_exemplars(ds.manifest, ds.gt_windows,
                                        ds.label_sets, config.window_stride,
                                        seed=config.seed)
            stores = pipeline.build_stores(ds, rows, bodylang.FEATURE_STCONV,
                                           encoders=encs)
            preds = pipeline.predict_split(ds, "test", stores, encoders=encs)
            acc = pipeline.window_accuracy(ds, preds)
            accs[frac] = acc["overall"]
            for track in ("upper", "lower"):
                lines.append(f"{frac},{track},{acc[track]:.6f}")
        drop = 100.0 * (accs[1.0] - accs[0.2]) / max(accs[1.0], 1e-12)
        lines.append(f"# drop_percent_at_20={drop:.2f}")
    else:  # feature
        lines.append("feature,track,window_accuracy,video_f1")
        for kind in ("ntraj+", "stconv"):
            path = workdir / "predictions" / kind / "test.csv"
            if not path.exists():
                raise PoselangError(f"no predictions at {path}")
            preds = load_predictions(path, ds)
            acc = pipeline.window_accuracy(ds, preds)
            f1s = pipeline.video_multilabel(ds, preds)
            for track in ("upper", "lower"):
                lines.append(f"{kind},{track},{acc[track]:.6f},"
                             f"{f1s[track].f1:.6f}")
    path = out / f"sweep_{axis}.csv"
    path.write_text("\n".join(lines) + "\n")
    click.echo("\n".join(lines))
    click.echo(f"-> {path}")


if __name__ == "__main__":
    main()
