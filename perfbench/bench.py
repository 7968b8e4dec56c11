"""Run one workload: set up, repeat rounds of CLI commands for the run
length, check every round's outputs, and summarise.

The commands run in this process through click's test runner, one after
the other: a closed loop with a single client.  A round is one pass over
the workload's commands starting from the generated dataset alone.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from . import checks, stats, trace
from .workloads import PREDICT, TRAIN, Workload

SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "train_s": "s",
    "predict_clips_per_s": "clips/s",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
    "f1": "ratio",
}
TRACE_EXTRA = {"trace.overhead_s": "s", "trace.spans": "count"}


class SetupFailed(RuntimeError):
    pass


class NothingMeasured(RuntimeError):
    """No round ran every command and yielded quality figures: there is no
    time or quality to report."""


@dataclass
class Round:
    seconds: list[float] = field(default_factory=list)
    failed: int = 0
    traced: bool = False
    layers: dict[str, float] | None = None
    figures: dict[str, float] | None = None
    problems: list = field(default_factory=list)


class Runner:
    """Invokes poselang commands in-process against one working directory."""

    def __init__(self, workdir: Path):
        from click.testing import CliRunner
        from poselang import cli

        self.workdir = workdir
        self._cli = cli.main
        self._runner = CliRunner()

    def invoke(self, args):
        """Run one command; returns its exit code, standard output and, if
        it failed, why (the last line of standard error or the exception
        it raised)."""
        result = self._runner.invoke(
            self._cli, ["--workdir", str(self.workdir), *args])
        why = ""
        if result.exit_code != 0:
            lines = result.stderr.strip().splitlines()
            why = lines[-1] if lines else repr(result.exception)
        return result.exit_code, result.stdout, why


def _clear_artifacts(workdir: Path) -> None:
    for child in workdir.iterdir():
        if child.name in ("dataset", "config.txt"):
            continue
        if child.is_dir():
            shutil.rmtree(child)
        else:
            child.unlink()


def setup(workload: Workload, runner: Runner, seed: int,
          repeats: int = SETUP_REPEATS) -> list[float]:
    """Generate the workload's dataset `repeats` times; the last copy
    stays.  Returns the generation times."""
    workdir = runner.workdir
    (workdir / "config.txt").write_text(workload.config)
    times = []
    for _ in range(repeats):
        shutil.rmtree(workdir / "dataset", ignore_errors=True)
        t0 = perf_counter()
        code, _, why = runner.invoke(
            ["--seed", str(seed), "synth", "gen", *workload.gen_args])
        times.append(perf_counter() - t0)
        if code != 0:
            raise SetupFailed(f"synth gen exited {code}: {why}")
    return times


def run_round(workload: Workload, runner: Runner,
              tracer: trace.Tracer | None, round_index: int) -> Round:
    _clear_artifacts(runner.workdir)
    rnd = Round(traced=tracer is not None)
    outputs = {}
    if tracer is not None:
        tracer.reset()
    for i, step in enumerate(workload.steps):
        t0 = perf_counter()
        if tracer is None:
            code, out, why = runner.invoke(step.args)
        else:
            tracer.command = f"{round_index}.{i}"
            with trace.instrument(tracer), tracer.span(f"cli.{step.command}"):
                code, out, why = runner.invoke(step.args)
        rnd.seconds.append(perf_counter() - t0)
        outputs[i] = out
        if code != 0:
            rnd.failed += 1
            rnd.problems.append(
                ("output", f"`{' '.join(step.args)}` exited {code}: {why}"))
    if tracer is not None:
        rnd.layers = trace.layer_metrics(tracer.spans, tracer.counts)
        rnd.layers["trace.spans"] = float(len(tracer.spans))
    # Later commands read what earlier ones wrote, so a round with a failed
    # command is not checked; the failure itself is its problem.
    if rnd.failed == 0:
        problems = checks.Problems()
        try:
            rnd.figures = workload.check(runner.workdir, outputs, problems)
        except Exception:  # malformed outputs: report them, keep the result
            problems.output("checks raised:\n" + traceback.format_exc())
        rnd.problems = list(problems)
    return rnd


def _timings(workload: Workload, rounds: list[Round]) -> dict[str, float]:
    """Medians over rounds of the round total and training time, and the
    median over every predict command of the clips it labelled per
    second.  Predict commands are short, so pooling them across rounds
    gives the rate more samples than a per-round figure would."""
    totals, train, rates = [], [], []
    for rnd in rounds:
        totals.append(sum(rnd.seconds))
        train.append(sum(s for s, step in zip(rnd.seconds, workload.steps)
                         if step.role == TRAIN))
        rates += [step.clips / s for s, step in zip(rnd.seconds, workload.steps)
                  if step.role == PREDICT]
    return {"total_s": stats.median(totals), "train_s": stats.median(train),
            "predict_clips_per_s": stats.median(rates)}


def warm_up(workload: Workload, workdir: Path, seed: int) -> None:
    """One untimed, unchecked round of `workload` (the tiny variant) so that
    first-call costs (lazy imports, first use of each code path) land
    before timing and every timed round runs warm."""
    workdir.mkdir(parents=True)
    runner = Runner(workdir)
    setup(workload, runner, seed, repeats=1)
    for step in workload.steps:
        runner.invoke(step.args)


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool,
                 out_dir: Path, warmup: Workload | None = None) -> dict:
    """Set up, warm up on `warmup` if given, run rounds for `seconds`, and
    return the result record.

    Untraced runs time every round.  Traced runs alternate untraced and
    traced rounds, starting untraced, so that the tracing overhead is
    measured in the same process; per-layer figures are medians over the
    traced rounds.
    """
    workdir = out_dir / f"work-{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workdir)
        setup_times = setup(workload, runner, seed)
        if warmup is not None:
            warm_up(warmup, workdir / "warmup", seed)
            shutil.rmtree(workdir / "warmup")
        tracer = trace.Tracer() if traced else None
        rounds: list[Round] = []
        start = perf_counter()
        while True:
            use_tracer = tracer if traced and len(rounds) % 2 == 1 else None
            rnd = run_round(workload, runner, use_tracer, len(rounds))
            rounds.append(rnd)
            enough = not traced or len(rounds) >= 2
            if enough and perf_counter() - start >= seconds:
                break
        if traced:
            tracer.write_jsonl(out_dir / f"spans-{workload.name}-{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarise(workload, seed, traced, setup_times, rounds)


def summarise(workload: Workload, seed: int, traced: bool,
              setup_times: list[float], rounds: list[Round]) -> dict:
    problems = []
    figures = None
    for rnd in rounds:
        found = list(rnd.problems)
        if rnd.figures is not None:
            if figures is not None and rnd.figures != figures:
                found.append(("output", "quality figures differ between "
                                        "rounds of one run"))
            figures = rnd.figures
        for kind, message in found:
            if {"kind": kind, "message": message} not in problems:
                problems.append({"kind": kind, "message": message})
    attempted = len(workload.steps) * len(rounds)
    failed = sum(r.failed for r in rounds)
    timed = [r for r in rounds if not r.traced and r.failed == 0]
    traced_rounds = [r for r in rounds if r.traced and r.failed == 0]
    if not timed or (traced and not traced_rounds) or figures is None:
        raise NothingMeasured(
            "no round ran every command and yielded quality figures:\n"
            + "\n".join(
                f"  {p['kind']}: {p['message']}" for p in problems))
    values = {
        "setup_s": stats.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **_timings(workload, timed),
        "accuracy": _mean(figures[k] for k in workload.accuracy_keys),
        "f1": _mean(figures[k] for k in workload.f1_keys),
    }
    if traced:
        units = {**trace.LAYER_UNITS, **TRACE_EXTRA}
        layer_values = {
            name: stats.median(r.layers[name] for r in traced_rounds)
            for name in units if name != "trace.overhead_s"}
        layer_values["trace.overhead_s"] = (
            stats.median(sum(r.seconds) for r in traced_rounds)
            - values["total_s"])
        metrics = {name: {"value": layer_values[name], "unit": units[name]}
                   for name in units}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {
        "workload": workload.name, "seed": seed, "trace": int(traced),
        "rounds": len(rounds),
        "step_seconds": [r.seconds for r in rounds],
        "setup_seconds": setup_times,
        "figures": figures, "problems": problems,
        "end_to_end": values,
        "result": {"correct": not problems, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def append_record(path: Path, record: dict) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
