"""The three workloads: CLI command sequences over generated datasets.

Sizes are fixed here and recorded in README.md.  `tiny=True` shrinks every
dataset and epoch count so the smoke test finishes in seconds; the quality
floors are not expected to hold at that size.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import checks

TRAIN, PREDICT, OTHER = "train", "predict", "other"


@dataclass(frozen=True)
class Step:
    """One CLI command; `clips` is how many clips a predict step labels."""

    args: tuple[str, ...]
    role: str = OTHER
    clips: int = 0

    @property
    def command(self) -> str:
        """Command name as used in `cli.<command>.s`."""
        return "_".join(a for a in self.args[:2] if not a.startswith("-"))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gen_args: tuple[str, ...]
    config: str
    steps: tuple[Step, ...]
    # (workdir, {step index: stdout}, problems) -> quality figures
    check: Callable[[Path, dict, checks.Problems], dict]
    # Names of the end-to-end quality metrics in the figures check returns.
    accuracy_keys: tuple[str, ...]
    f1_keys: tuple[str, ...]


def _ntraj_noisy(tiny: bool) -> Workload:
    cps, size, restarts, cap = (2, 10, 1, 300) if tiny else (16, 50, 2, 1000)
    config = (f"codebook_size={size}\ncodebook_restarts={restarts}\n"
              f"codebook_sample_cap={cap}\n")
    steps = (
        Step(("preprocess",)),
        Step(("codebook", "train"), TRAIN),
        Step(("exemplars", "build"), TRAIN),
        *(Step(("bodylang", "predict", "--split", split), PREDICT, cps)
          for split in ("train", "val", "test")),
        Step(("eval", "--task", "bodylang")),
    )

    def check(workdir, outputs, problems):
        from poselang import ntraj
        checks.check_codebooks(
            workdir, ntraj.stream_kinds((1, 2, 3), ntraj.NTRAJ_PLUS), problems)
        return checks.check_stage1(workdir, "ntraj+", ("train", "val", "test"),
                                   outputs[len(steps) - 1], problems,
                                   min_gain=0.1)

    return Workload(
        name="ntraj-noisy",
        why="NTraj+ path on noisy clips with dropped joints: k-means on "
            "distinct descriptors, quantization, chi-square k-NN on every "
            "split; no neural code",
        gen_args=("--clips-per-split", str(cps), "--noise-std", "1.5",
                  "--dropout", "0.05"),
        config=config, steps=steps, check=check,
        accuracy_keys=("window_accuracy",), f1_keys=("video_f1",))


def _stconv_clean(tiny: bool) -> Workload:
    cps = 2 if tiny else 16
    epochs = 1 if tiny else 8
    steps = (
        Step(("encoder", "train", "--epochs", str(epochs)), TRAIN),
        Step(("exemplars", "build", "--feature", "stconv"), TRAIN),
        *(Step(("bodylang", "predict", "--feature", "stconv", "--split", split),
               PREDICT, cps) for split in ("train", "val", "test")),
        Step(("eval", "--task", "bodylang", "--feature", "stconv")),
    )

    def check(workdir, outputs, problems):
        return checks.check_stage1(workdir, "stconv", ("train", "val", "test"),
                                   outputs[len(steps) - 1], problems,
                                   min_gain=0.1)

    return Workload(
        name="stconv-clean",
        why="ST-Conv path on noiseless clips: pose images and Conv2D encoder "
            "training dominate; k-NN is Euclidean over 32-d embeddings",
        gen_args=("--clips-per-split", str(cps)),
        config="", steps=steps, check=check,
        accuracy_keys=("window_accuracy",), f1_keys=("video_f1",))


NETS = ("recurrent", "conv1d")


def _stage2_gt(tiny: bool) -> Workload:
    cps = 3 if tiny else 32
    # Early stopping stays on; the cap cuts the data-dependent tail of
    # epoch counts (the default is 400) so train_s does not swing with the
    # seed.
    epochs = ("--epochs", "2" if tiny else "100")
    steps = []
    for net in NETS:
        for task in ("emotion", "symptom"):
            steps.append(Step((task, "train", "--net", net, *epochs), TRAIN))
        for task in ("emotion", "symptom"):
            steps.append(Step((task, "predict", "--net", net), PREDICT, cps))
    steps = tuple(steps)

    def check(workdir, outputs, problems):
        printed = {(s.args[0], s.args[3]): outputs[i]
                   for i, s in enumerate(steps) if s.args[1] == "train"}
        return checks.check_stage2(workdir, NETS, printed, problems)

    return Workload(
        name="stage2-gt",
        why="Stage 2 on ground-truth label sequences: LSTM and Conv1D "
            "training with early stopping and per-sample validation; no "
            "stage-1 feature code",
        gen_args=("--scenario", "stage2", "--clips-per-split", str(cps)),
        config="", steps=steps, check=check,
        accuracy_keys=tuple(f"symptom_accuracy.{n}" for n in NETS),
        f1_keys=tuple(f"emotion_f1.{n}" for n in NETS))


def workloads(tiny: bool = False) -> dict[str, Workload]:
    return {w.name: w for w in (_ntraj_noisy(tiny), _stconv_clean(tiny),
                                _stage2_gt(tiny))}
