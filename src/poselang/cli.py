"""Command-line surface for the pipeline: argument parsing and printing.

All commands share a --workdir holding the dataset and the artifacts
derived from it; `artifacts` reads and writes those.  The workdir layout
and the exit codes are documented in README.md.
"""

from __future__ import annotations

import dataclasses
import sys
from functools import partial, wraps
from pathlib import Path

import click
from click.core import ParameterSource

from . import artifacts, bodylang, emotion as emomod, metrics, neural, pipeline, synth
from .core import (ADMISSIBLE_CODEBOOK_SIZES, TRACKS, InvariantViolated,
                   PipelineConfig, PoselangError)
from .ingest import SPLITS

# The benchmark's k-NN oracle loads stage-1 artifacts through these names.
_load_codebooks = artifacts.load_codebooks
_load_encoders = artifacts.load_encoders


def handle_errors(fn):
    """Print a pipeline error and exit with its code (see README.md)."""
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (PoselangError, FileNotFoundError) as exc:
            click.echo(f"error: {exc}", err=True)
            numeric = (neural.DivergedLoss, neural.NonFiniteActivation,
                       InvariantViolated)
            sys.exit(4 if isinstance(exc, numeric) else 3)
    return wrapper


def _load_config(workdir: Path, seed: int | None, **overrides) -> PipelineConfig:
    cfg_path = workdir / "config.txt"
    config = PipelineConfig.from_file(cfg_path) if cfg_path.exists() \
        else PipelineConfig()
    changes = dict(overrides, seed=seed)
    return dataclasses.replace(
        config, **{k: v for k, v in changes.items() if v is not None})


def _setup(ctx, **overrides) -> tuple[Path, PipelineConfig, pipeline.Dataset]:
    """The workdir, its config with `overrides` applied, and its dataset."""
    workdir = ctx.obj["workdir"]
    config = _load_config(workdir, ctx.obj["seed"], **overrides)
    manifest = workdir / "dataset" / "manifest.csv"
    if not manifest.exists():
        raise PoselangError(f"no dataset manifest at {manifest}")
    return workdir, config, pipeline.load_dataset(manifest, config)


_feature_option = click.option(
    "--feature", "feature_kind", type=click.Choice(["ntraj+", "stconv"]),
    default="ntraj+", show_default=True)
_split_option = click.option(
    "--split", type=click.Choice(["train", "val", "test"]), default="test",
    show_default=True)


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
    kwargs = dict(clips_per_split=clips_per_split, noise_std=noise_std,
                  dropout_rate=dropout, seed=config.seed)
    if clip_len is not None:
        kwargs["clip_len"] = clip_len
    make = synth.stage2_scenario if scenario == "stage2" else synth.ScenarioSpec
    manifest = synth.generate_dataset(make(**kwargs),
                                      out_dir or workdir / "dataset", config)
    click.echo(f"wrote {3 * clips_per_split} clips, manifest {manifest}")


# ---------------------------------------------------------------------------
@main.command("preprocess")
@click.pass_context
@handle_errors
def preprocess_cmd(ctx):
    """Preprocess every clip and write its joint-repair report."""
    workdir, _, ds = _setup(ctx)
    # Ingest every clip before the first write, so a bad clip leaves no
    # partial output.
    seqs = [ds.sequences[clip_id] for clip_id in sorted(ds.sequences)]
    path = artifacts.save_repair_report(workdir, ds.sequences.reports)
    click.echo(f"preprocessed {len(seqs)} clips -> {path}")


# ---------------------------------------------------------------------------
@main.group("codebook")
def codebook_group():
    """Bag-of-features codebooks."""


@codebook_group.command("train")
@click.option("--N", "size", type=int, default=None,
              help="Codebook size (admissible: 10,20,50,100,200,500).")
@click.pass_context
@handle_errors
def codebook_train(ctx, size):
    """Train NTraj+ per-stream-kind codebooks on the training split."""
    if size is not None and size not in ADMISSIBLE_CODEBOOK_SIZES:
        raise PoselangError(
            f"N={size} not in admissible set {ADMISSIBLE_CODEBOOK_SIZES}")
    workdir, config, ds = _setup(ctx, codebook_size=size)
    trained = {track: pipeline.train_codebooks(ds, track) for track in TRACKS}
    for track, books in trained.items():
        out = artifacts.save_codebooks(workdir, track, books, config)
        click.echo(f"{track}: {len(books)} codebooks -> {out}")


# ---------------------------------------------------------------------------
@main.group("encoder")
def encoder_group():
    """Convolutional pose-image encoder."""


@encoder_group.command("train")
@click.option("--epochs", type=int, default=pipeline.ENCODER_SPEC.epochs,
              show_default=True)
@click.option("--lr", type=float,
              default=pipeline.ENCODER_SPEC.learning_rate, show_default=True)
@click.pass_context
@handle_errors
def encoder_train(ctx, epochs, lr):
    """Train one encoder per track on frame-labeled training windows."""
    workdir, config, ds = _setup(ctx)
    spec = dataclasses.replace(pipeline.ENCODER_SPEC, learning_rate=lr,
                               epochs=epochs, seed=config.seed)
    for track, enc in pipeline.train_encoders(ds, spec).items():
        path = artifacts.save_net(artifacts.encoder_path(workdir, track),
                                  enc, config)
        click.echo(f"{track}: encoder -> {path}")


# ---------------------------------------------------------------------------
@main.group("exemplars")
def exemplars_group():
    """Exemplar selection and store building."""


@exemplars_group.command("build")
@click.option("--manifest", "ex_manifest", type=click.Path(path_type=Path),
              default=None, help="Exemplar manifest; auto-picked when absent.")
@_feature_option
@click.option("--per-class", type=int, default=6, show_default=True)
@click.pass_context
@handle_errors
def exemplars_build(ctx, ex_manifest, feature_kind, per_class):
    """Build per-track exemplar feature stores."""
    workdir, config, ds = _setup(ctx)
    if ex_manifest is None:
        rows = synth.pick_exemplars(ds.manifest, ds.gt, ds.label_sets,
                                    config.window_stride, per_class,
                                    config.seed)
    else:
        rows = bodylang.load_exemplar_manifest(ex_manifest, ds.sequences,
                                               config, ds.label_sets)
    models = artifacts.load_feature_models(workdir, config, feature_kind)
    stores = pipeline.build_stores(ds, rows, feature_kind, models)
    out = artifacts.save_stores(workdir, feature_kind, stores, config,
                                rows if ex_manifest is None else None)
    for track, store in stores.items():
        click.echo(f"{track}: {len(store)} exemplars -> {out / (track + '.npz')}")


# ---------------------------------------------------------------------------
@main.group("bodylang")
def bodylang_group():
    """Stage-1 body-language prediction."""


@bodylang_group.command("predict")
@_feature_option
@_split_option
@click.pass_context
@handle_errors
def bodylang_predict(ctx, feature_kind, split):
    """Predict body-language sequences for one split."""
    workdir, config, ds = _setup(ctx)
    stores = artifacts.load_stores(workdir, config, feature_kind,
                                   ds.label_sets)
    models = artifacts.load_feature_models(workdir, config, feature_kind)
    preds = pipeline.predict_split(ds, split, stores, models)
    path = artifacts.save_predictions(workdir, feature_kind, split, preds, ds)
    click.echo(f"{len(preds)} clips -> {path}")


# ---------------------------------------------------------------------------
def _stage2_data(ctx, hist_len, stride, source, feature_kind, splits, task):
    workdir, config, ds = _setup(ctx)
    hist_len = 10 ** 9 if hist_len == 0 else hist_len  # L=K: whole track
    seqs = artifacts.load_stage2_sequences(workdir, source, feature_kind, ds,
                                           splits)
    return workdir, config, ds, pipeline.stage2_splits(ds, hist_len, stride,
                                                       seqs, task, splits)


_stage2_options = [
    click.Option(["--L", "hist_len"], type=int, default=7, show_default=True,
                 help="Histogram window length in stage-1 windows; 0 = whole video."),
    click.Option(["--S", "stride"], type=int, default=3, show_default=True),
    click.Option(["--source"], type=click.Choice(["gt", "pred"]), default="gt",
                 show_default=True, help="Train on ground-truth or predicted sequences."),
    click.Option(["--feature", "feature_kind"],
                 type=click.Choice(["ntraj+", "stconv"]), default="ntraj+"),
    click.Option(["--net", "net_kind"], type=click.Choice(["recurrent", "conv1d"]),
                 default="recurrent", show_default=True),
    click.Option(["--epochs"], type=int, default=emomod.STAGE2_SPEC.epochs,
                 show_default=True),
    click.Option(["--lr"], type=float,
                 default=emomod.STAGE2_SPEC.learning_rate, show_default=True),
]


def _train_stage2(ctx, hist_len, stride, source, feature_kind, net_kind,
                  epochs, lr, task):
    workdir, config, ds, data = _stage2_data(ctx, hist_len, stride, source,
                                             feature_kind, SPLITS, task)
    spec = dataclasses.replace(emomod.STAGE2_SPEC, learning_rate=lr,
                               epochs=epochs, seed=config.seed)
    net, _ = emomod.train_stage2(data["train"], data["val"], ds.label_sets,
                                 spec, task, net_kind)
    tag = f"{task}_{net_kind}_{source}_L{hist_len}_S{stride}"
    path = artifacts.save_net(artifacts.model_path(workdir, tag), net, config)
    click.echo(f"{task} model -> {path}")
    click.echo(pipeline.stage2_report(tag, net, data["test"], task), nl=False)


def _predict_stage2(ctx, hist_len, stride, source, feature_kind, net_kind, task):
    workdir, config, ds, data = _stage2_data(ctx, hist_len, stride, source,
                                             feature_kind, ("test",), task)
    tag = f"{task}_{net_kind}_{source}_L{hist_len}_S{stride}"
    net = artifacts.load_net(artifacts.model_path(workdir, tag), config,
                             (neural.RecurrentNet, neural.Conv1DNet),
                             f"run `{task} train` first")
    path = artifacts.save_stage2_predictions(
        workdir, tag, config, task,
        pipeline.predict_stage2(ds, net, data["test"], task))
    click.echo(f"predictions -> {path}")


for task in emomod.TASKS:
    commands = [
        click.Command(name, params=options, help=what.format(task),
                      callback=click.pass_context(
                          handle_errors(partial(run, task=task))))
        for name, run, options, what in (
            ("train", _train_stage2, _stage2_options,
             "Train the {} net and report its test-split scores."),
            ("predict", _predict_stage2, _stage2_options[:5],
             "Write the {} net's test-split predictions."))]
    main.add_command(click.Group(task, commands=commands,
                                 help=f"Stage-2 {task} prediction."))


# ---------------------------------------------------------------------------
@main.command("eval")
@click.option("--task", type=click.Choice(["bodylang"]), required=True)
@_feature_option
@_split_option
@click.pass_context
@handle_errors
def eval_cmd(ctx, task, feature_kind, split):
    """Evaluate stored stage-1 predictions against the manifest labels."""
    workdir, config, ds = _setup(ctx)
    preds = artifacts.load_predictions(workdir, feature_kind, split, ds)
    scores = pipeline.video_multilabel(ds, preds)
    acc = pipeline.window_accuracy(ds, preds)
    rows = {f"{feature_kind}+KNN {track} set": s for track, s in scores.items()}
    artifacts.write_table(workdir, f"bodylang_{feature_kind}_{split}.csv",
                          metrics.scores_csv(rows))
    click.echo(metrics.scores_table(rows)
               + "window accuracy: " + " ".join(
                   f"{key} {value:.3f}" for key, value in acc.items()) + "\n",
               nl=False)


# ---------------------------------------------------------------------------
@main.command("sweep")
@click.option("--axis", type=click.Choice(["N", "LS", "datafrac", "feature"]),
              required=True)
@click.option("--source", type=click.Choice(["gt", "pred"]), default="gt",
              show_default=True)
@_feature_option
@click.pass_context
@handle_errors
def sweep_cmd(ctx, axis, source, feature_kind):
    """Ablation sweeps; aggregated CSV of metric rows.  Only `--axis LS`
    reads --source, and only with `--source pred` --feature."""
    explicit = {p for p in ("source", "feature_kind")
                if ctx.get_parameter_source(p) is not ParameterSource.DEFAULT}
    ignored = [option for option, param, read in (
        ("--source", "source", axis == "LS"),
        ("--feature", "feature_kind", axis == "LS" and source == "pred"))
        if param in explicit and not read]
    if ignored:
        raise click.UsageError(
            f"--axis {axis} does not read {' or '.join(ignored)}")
    workdir, config, ds = _setup(ctx)
    if axis == "N":
        lines = pipeline.sweep_codebook_size(ds)
    elif axis == "LS":
        lines = pipeline.sweep_histogram_window(
            ds, artifacts.load_stage2_sequences(workdir, source,
                                                feature_kind, ds))
    elif axis == "datafrac":
        lines = pipeline.sweep_data_fraction(ds)
    else:
        lines = pipeline.sweep_feature(ds, {
            kind: artifacts.load_predictions(workdir, kind, "test", ds)
            for kind in (bodylang.FEATURE_NTRAJ_PLUS, bodylang.FEATURE_STCONV)})
    suffix = "_pred" if axis == "LS" and source == "pred" else ""
    path = artifacts.write_table(workdir, f"sweep_{axis}{suffix}.csv",
                                 "\n".join(lines) + "\n")
    click.echo("\n".join(lines))
    click.echo(f"-> {path}")


if __name__ == "__main__":
    main()
