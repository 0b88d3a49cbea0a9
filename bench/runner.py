"""Timed and traced runs of one workload, and the result they print."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

from layers import TARGETS, UNITS, layer_metrics
from reference import normalised, time_reference
from tracer import Tracer
from workloads import PassError, run_cli

SETUP_REPS = 3
MIN_PASSES = 2
# A set-up this much shorter than a pass is repeated before every pass, so
# its samples span the same stretch of time as the passes do.
CHEAP_SETUP_SHARE = 0.1
SETUP_RUN, PASS_RUN = 0, 1
# Reference kernel time around each pass, as a share of the pass time.
REF_SHARE = 0.2
REF_MIN_REPS = 5


def git_commit(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(root: str) -> int:
    total = 0
    for dirpath, _, filenames in os.walk(os.path.join(root, "src")):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def environment(root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "src_lines": src_lines(root),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Passes:
    """Outcome of a workload's passes: times, failures, fingerprints.

    With ``host_scale`` set, a run of the reference kernel (a bracket)
    precedes every command of every pass, and the runner adds one after
    the last; ``host_scale`` stands in for the pass time until a pass has
    run.  Without it, passes run unbracketed.
    """

    def __init__(self, host_scale: float | None = None) -> None:
        self.times: list[float] = []
        self.command_times: list[list[float]] = []
        self.brackets: list[float] = []
        self.failures: list[str] = []
        self.fingerprint: str | None = None
        self.quality: dict[str, tuple[float, str]] = {}
        self._host_scale = host_scale
        self._commands = 1

    def time_host(self) -> None:
        """Run the reference kernel for ``REF_SHARE`` of a pass's time,
        split over the pass's commands; keeps the mean kernel time."""
        if self._host_scale is None:
            return
        scale = statistics.median(self.times) if self.times else self._host_scale
        times = time_reference(REF_SHARE * scale / self._commands, REF_MIN_REPS)
        self.brackets.append(statistics.fmean(times))

    def run(self, workload, setup, work: str) -> None:
        out_dir = tempfile.mkdtemp(prefix="pass-", dir=work)
        commands = workload.commands(setup, out_dir)
        self._commands = len(commands)
        spent: list[float] = []
        try:
            try:
                with workload.capture() as captured:
                    for argv in commands:
                        self.time_host()
                        start = time.perf_counter()
                        try:
                            run_cli(argv)
                        finally:
                            spent.append(time.perf_counter() - start)
            finally:
                self.times.append(sum(spent))
                self.command_times.append(spent)
            fingerprint, quality = workload.verify(setup, out_dir, captured)
            if self.fingerprint is None:
                self.fingerprint = fingerprint
            elif fingerprint != self.fingerprint:
                raise PassError(f"fingerprint {fingerprint} != first pass {self.fingerprint}")
            self.quality = quality
        except Exception as exc:  # a failed pass is counted, not fatal
            self.failures.append(f"{type(exc).__name__}: {exc}")
            print(f"pass {len(self.times)} failed: {self.failures[-1]}", file=sys.stderr)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def normalised(self) -> list[float]:
        """Each pass's time in reference-kernel units: the sum over its
        commands of command time over the host's reference time around it."""
        ratios = iter(normalised([t for p in self.command_times for t in p], self.brackets))
        return [sum(next(ratios) for _ in spent) for spent in self.command_times]


def _emit(workload, seed: int, passes: Passes, metrics: dict[str, tuple[float, str]],
          lines: list[str], correct: bool, root: str) -> int:
    attempted, failed = len(passes.times), len(passes.failures)
    print(f"workload {workload.name} seed {seed}")
    for line in lines:
        print(line)
    print(f"failed_share = {failed / attempted:.6g} ({failed} of {attempted} passes)")
    print(f"fingerprint = {passes.fingerprint}")
    print(f"environment = {json.dumps(environment(root), sort_keys=True)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _fresh_work_dir(run_dir: str) -> str:
    os.makedirs(run_dir, exist_ok=True)
    return tempfile.mkdtemp(prefix="work-", dir=run_dir)


def run_timed(workload, seed: int, seconds: float, run_dir: str) -> int:
    """Set up several times, then repeat untraced passes for ``seconds``,
    and at least ``MIN_PASSES`` times so the fingerprint gate compares.

    Every command of a pass is bracketed by runs of the reference kernel;
    ``wall_norm`` is the median pass time in units of the reference time
    around its commands.
    """
    work = _fresh_work_dir(run_dir)
    setup_times: list[float] = []
    inputs: set[str] = set()
    setup = None

    def set_up():
        nonlocal setup
        if setup is not None:
            shutil.rmtree(setup.work_dir)
        setup_dir = tempfile.mkdtemp(prefix="setup-", dir=work)
        start = time.perf_counter()
        setup = workload.setup(setup_dir, seed)
        setup_times.append(time.perf_counter() - start)
        inputs.add(setup.input_fingerprint)

    try:
        for _ in range(SETUP_REPS):
            set_up()
        # Before the first pass, the set-up time stands in for the pass time.
        passes = Passes(host_scale=statistics.median(setup_times))
        start = time.perf_counter()
        while len(passes.times) < MIN_PASSES or time.perf_counter() - start < seconds:
            if passes.times and (statistics.median(setup_times)
                                 < CHEAP_SETUP_SHARE * statistics.median(passes.times)):
                set_up()
            passes.run(workload, setup, work)
        passes.time_host()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall = statistics.median(passes.times)
    metrics = {
        "wall_norm": (statistics.median(passes.normalised()), "ref"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    lines = [
        f"wall_norm = {metrics['wall_norm'][0]:.6g} ref (median pass time / "
        f"reference time around it)",
        f"wall_s = {wall:.6g} s (median of {len(passes.times)} passes, "
        f"min {min(passes.times):.6g}, max {max(passes.times):.6g})",
        f"reference_s = {statistics.median(passes.brackets):.6g} s (median of "
        f"{len(passes.brackets)} bracket means, min {min(passes.brackets):.6g}, "
        f"max {max(passes.brackets):.6g})",
        f"setup_s = {metrics['setup_s'][0]:.6g} s (median of {len(setup_times)} set-ups)",
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.6g} MB",
        f"input_fingerprint = {' '.join(sorted(inputs))}",
    ]
    for name, (value, unit) in {**setup.quality, **passes.quality}.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    correct = not passes.failures and len(inputs) == 1
    return _emit(workload, seed, passes, metrics, lines, correct,
                 os.path.dirname(run_dir))


def run_traced(workload, seed: int, seconds: float, run_dir: str) -> int:
    """Set up under the tracer, then alternate untraced and traced passes.

    The per-layer metrics come from the first traced pass; the tracing
    overhead compares the median traced and untraced pass times.
    """
    work = _fresh_work_dir(run_dir)
    tracer = Tracer()
    passes = Passes()
    try:
        with tracer.installed(TARGETS, SETUP_RUN):
            setup = workload.setup(tempfile.mkdtemp(prefix="setup-", dir=work), seed)
        run_id = PASS_RUN
        start = time.perf_counter()
        while run_id == PASS_RUN or time.perf_counter() - start < seconds:
            passes.run(workload, setup, work)
            with tracer.installed(TARGETS, run_id):
                passes.run(workload, setup, work)
            run_id += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = statistics.median(passes.times[0::2])
    traced = statistics.median(passes.times[1::2])
    spans = tracer.table()
    traces = os.path.join(run_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    spans_path = os.path.join(traces, f"{workload.name}-seed{seed}.npz")
    spans.save(spans_path)
    values = layer_metrics(spans, setup.shape, PASS_RUN, SETUP_RUN,
                           traced / untraced - 1.0)
    metrics = {name: (values[name], UNITS[name]) for name in sorted(UNITS)}
    lines = [
        f"median untraced pass {untraced:.6g} s, traced pass {traced:.6g} s "
        f"({len(passes.times) // 2} of each); {len(spans.start)} spans written "
        f"to {os.path.relpath(spans_path)}",
    ]
    return _emit(workload, seed, passes, metrics, lines, not passes.failures,
                 os.path.dirname(run_dir))
