"""End-to-end benchmark of the cuberow command-line program.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout.  One client, no threads: the
benchmark launches one ``cuberow`` process at a time (a closed loop) with
``PYTHONPATH=src`` through ``launcher.py``, which reads its CPU time and
peak RSS from ``os.wait4``, and checks its output against the paper's
identities (see ``checks.py``).  Workloads are defined in ``workloads.py``.

With ``--trace 0`` it repeats passes over the workload's commands for about
``--seconds`` seconds and reports the time of one pass (the sum of each
command's median wall and CPU seconds), the median pass's peak RSS, and the
set-up time of a bare launch.  With ``--trace 1`` it alternates untraced
passes with passes in which every command runs under ``tracer.py``, and
reports per-layer calls, self time and work counts.

Times are reported at nominal host speed.  The shared hosts this runs on
change speed by a third over seconds to minutes, alike for the program and
for any fixed loop.  So a fixed pure-Python loop is timed before, after and
(while the command is held stopped) during each command, and the command's
times are scaled by ``REFERENCE_S`` over the loop's mean time.  The raw
times and loop times are kept in the report line.

Stdout gets that report line (run environment, per-command samples, output
sha256, failures and ``failed_ratio``) and then, as its last line, the
result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 15
MIN_PASSES = 2
# The whole run must end well inside three minutes, whatever the host does.
RUN_DEADLINE_S = 170.0
# launcher.reference_loop()'s time at nominal host speed, and how often a
# running command is held to time it again.
REFERENCE_S = 0.006
REFERENCE_EVERY_S = 0.25

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SELF_CHECKS = (
    "check_closed_forms", "check_symmetry_and_bounds", "check_maximizers", "check_profile_sum",
    "check_terminal_density", "check_router", "check_gray_equalities", "check_bisection",
)
# Every function the tracer wraps that some workload calls at this commit.
TRACED_FUNCTIONS = (
    "cli.main", "cli.serialize_json",
    "density.cut_density", "density.cut_density_bitsum_profile", "density.cut_density_profile",
    "density.dimension_link_count", "density.leftmost_max_cut", "density.max_cut_density",
    "density.max_density_cuts",
    "kernels.accumulate_spans", "kernels.bitsum_profile", "kernels.density_profile",
    "netlist.build_netlist", "netlist.dump_netlist", "netlist.fine_cut_count", "netlist.gap_cut_index",
    "netlist.gray_code", "netlist.gray_rank", "netlist.load_netlist", "netlist.max_terminal_cut_density",
    "netlist.max_wirelength", "netlist.node_cut_index", "netlist.terminal_cut_densities",
    "netlist.terminal_cut_density", "netlist.total_wirelength",
    "oracle.brute_maximizers", "oracle.brute_track_count", "oracle.coverage_bound", "oracle.crossing_profile",
    "render.render_svg",
    "routing.channel_density", "routing.dump_assignment", "routing.left_edge_route",
    "routing.load_assignment", "routing.verify_assignment", "routing.wire_intervals",
    "selfcheck.run_all", *(f"selfcheck.{check}" for check in SELF_CHECKS),
)
COUNTS = {
    "cli.bytes_out": "bytes",
    "netlist.wires_built": "count",
    "netlist.bytes_parsed": "bytes",
    "netlist.terminal_cut_densities.calls_per_cut": "ratio",
    "routing.bytes_parsed": "bytes",
    "routing.tracks": "count",
    "oracle.fine_cuts": "count",
    "oracle.exact_track_ratio": "ratio",
}
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in TRACED_FUNCTIONS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"selfcheck.{check}.total_s": "s" for check in SELF_CHECKS},
    **COUNTS,
    "trace.overhead_s": "s",
}


class Deadline(Exception):
    pass


@dataclass
class Sample:
    """One process: raw wall and CPU seconds, peak RSS, exit code, and the
    reference loop's time measured around and during it."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int = 0
    ref_s: float = REFERENCE_S

    @property
    def scale(self) -> float:
        """Factor that takes this sample's times to nominal host speed."""
        return REFERENCE_S / self.ref_s


@dataclass
class CommandRecord:
    command: workloads.Command
    samples: list[Sample] = field(default_factory=list)
    traced: list[Sample] = field(default_factory=list)
    verdicts: dict[str, str | None] = field(default_factory=dict)  # stdout sha256 -> failure
    failures: list[str] = field(default_factory=list)
    bytes_out: int = 0


class Runner:
    """Launches the program's processes one at a time, through ``launcher.py``.

    Use as a context manager: leaving it stops the launcher and waits for it.
    """

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT,
        )

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def argv(self, command: workloads.Command, spans: Path | None = None, cmd_id: int = 0) -> list[str]:
        args = [arg.replace("{work}", str(self.work)) for arg in command.argv]
        if spans is not None:
            program = "certify" if command.certify else "cuberow"
            return [sys.executable, str(HERE / "tracer.py"), str(spans), str(cmd_id), program, *args]
        if command.certify:
            return [sys.executable, str(HERE / "certify.py"), *args]
        return [sys.executable, "-m", "cuberow", *args]

    def launch(self, argv: list[str], stdout: Path, hold_every: float | None = REFERENCE_EVERY_S) -> Sample:
        """Run one process to completion and measure it (see ``launcher.py``).

        Traced commands are never held (``hold_every=None``), since a hold
        would land in their spans.  A process still running at the run's
        deadline is killed, and the run ends with :class:`Deadline`.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Deadline()
        request = {
            "argv": argv,
            "stdout": str(stdout),
            "stderr": str(self.work / "stderr.txt"),
            "hold_every": hold_every,
            "timeout": remaining,
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        if reply.get("timeout"):
            raise Deadline()
        return Sample(**reply)

    def stderr_tail(self) -> str:
        lines = (self.work / "stderr.txt").read_text(errors="replace").splitlines()
        return lines[-1] if lines else ""


def run_pass(runner: Runner, records: list[CommandRecord], spans_dir: Path | None = None) -> list[Path]:
    """Run every command once, in order, and check what each produced.

    Identical stdout bytes get the verdict of their first check, so later
    passes only hash the output.  With ``spans_dir`` every command runs
    under the tracer; the span files are returned.
    """
    spans = []
    for cmd_id, record in enumerate(records):
        stdout = runner.work / "stdout"
        span_file = None if spans_dir is None else spans_dir / f"spans-{cmd_id}.jsonl"
        hold_every = REFERENCE_EVERY_S if span_file is None else None
        sample = runner.launch(runner.argv(record.command, span_file, cmd_id), stdout, hold_every)
        (record.samples if span_file is None else record.traced).append(sample)
        data = stdout.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if sample.exit_code != 0:
            failure = f"exit {sample.exit_code}: {runner.stderr_tail()}"
        elif digest in record.verdicts:
            failure = record.verdicts[digest]
        else:
            failure = checks.run_check(record.command.check, data, runner.work)
            record.verdicts[digest] = failure
            record.bytes_out = len(data) + sum((runner.work / name).stat().st_size for name in record.command.outputs)
        if failure is not None:
            record.failures.append(failure)
        if span_file is not None:
            spans.append(span_file)
    return spans


def measure_setup(runner: Runner, workload: str) -> float:
    """Median wall time, at nominal host speed, of launching the workload's
    entry point with no work."""
    if workload == "verify":
        argv = [sys.executable, str(HERE / "certify.py"), "--setup-only"]
    else:
        argv = [sys.executable, "-c", "import cuberow.cli"]
    out = runner.work / "setup.txt"
    if runner.launch(argv, out).exit_code != 0:  # also fills the bytecode cache
        raise SystemExit(f"perfbench: the program does not import: {runner.stderr_tail()}")
    launches = [runner.launch(argv, out) for _ in range(SETUP_LAUNCHES)]
    return statistics.median(s.wall_s * s.scale for s in launches)


def prepare_inputs(runner: Runner, workload: str, seed: int) -> None:
    """Write and check the workload's input files with the program itself,
    untimed, then shuffle their lines by the seed."""
    for command in workloads.input_commands(workload):
        record = CommandRecord(command)
        run_pass(runner, [record])
        if record.failures:
            raise SystemExit(f"perfbench: writing the inputs failed: {record.failures[0]}")
        netlist_file, assignment_file = command.outputs
        workloads.shuffle_lines(runner.work / netlist_file, seed, keep_header=True)
        workloads.shuffle_lines(runner.work / assignment_file, seed, keep_header=False)


def pass_totals(samples_per_command: list[list[Sample]]) -> list[Sample]:
    """Per pass: summed wall and CPU time, and the largest RSS."""
    return [
        Sample(sum(s.wall_s for s in col), sum(s.cpu_s for s in col), max(s.rss_mb for s in col))
        for col in zip(*samples_per_command)
    ]


def end_to_end(records: list[CommandRecord], setup_s: float) -> dict[str, float]:
    """A pass at each command's median wall and CPU time, scaled to nominal
    host speed, and the median pass's peak RSS."""
    samples = [record.samples for record in records]
    return {
        "wall_s": sum(statistics.median(s.wall_s * s.scale for s in col) for col in samples),
        "cpu_s": sum(statistics.median(s.cpu_s * s.scale for s in col) for col in samples),
        "peak_rss_mb": statistics.median(p.rss_mb for p in pass_totals(samples)),
        "setup_s": setup_s,
    }


def layer_metrics(table: dict[str, dict], records: list[CommandRecord]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, from its span table."""
    empty = {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0, "sizes": []}
    values: dict[str, float] = {}
    for name in TRACED_FUNCTIONS:
        values[f"{name}.calls"] = table.get(name, empty)["calls"]
        values[f"{name}.self_s"] = table.get(name, empty)["self_s"]
    for check in SELF_CHECKS:
        values[f"selfcheck.{check}.total_s"] = table.get(f"selfcheck.{check}", empty)["total_s"]
    for metric, name in [
        ("netlist.wires_built", "netlist.build_netlist"),
        ("netlist.bytes_parsed", "netlist.load_netlist"),
        ("routing.bytes_parsed", "routing.load_assignment"),
        ("routing.tracks", "routing.left_edge_route"),
        ("oracle.fine_cuts", "oracle.crossing_profile"),
    ]:
        values[metric] = sum(size for _, size in table.get(name, empty)["sizes"])
    terminal = table.get("netlist.terminal_cut_densities", empty)
    cuts = len(set(terminal["sizes"]))  # distinct (command, cut) pairs
    values["netlist.terminal_cut_densities.calls_per_cut"] = terminal["calls"] / cuts if cuts else 0.0
    brute = table.get("oracle.brute_track_count", empty)
    answered = brute["calls"] - brute["failed"]  # the rest raised TooManyWiresError
    values["oracle.exact_track_ratio"] = answered / brute["calls"] if brute["calls"] else 0.0
    values["cli.bytes_out"] = sum(record.bytes_out for record in records)
    return values


def environment(runner: Runner, seed: int) -> dict:
    probe = "import cuberow; print(getattr(cuberow, 'kernel_backend', 'none'))"
    out = runner.work / "probe.txt"
    runner.launch([sys.executable, "-c", probe], out)
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "kernel_backend": out.read_text().strip(),
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, runner: Runner) -> tuple[dict, dict]:
    """Measure one workload; return the result object and the report."""
    report = {"workload": workload, "trace": int(trace), "seconds": seconds, "env": environment(runner, seed)}
    prepare_inputs(runner, workload, seed)
    setup_s = measure_setup(runner, workload)
    records = [CommandRecord(command) for command in workloads.commands(workload, seed)]
    spans_dir = runner.work / "spans"
    spans_dir.mkdir()
    per_pass: list[dict[str, float]] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        run_pass(runner, records)
        if trace:
            per_pass.append(layer_metrics(tracer.summarize(run_pass(runner, records, spans_dir)), records))
        last = time.monotonic() - began
        passes = len(records[0].samples)
        if passes >= (1 if trace else MIN_PASSES) and time.monotonic() - start + last > seconds:
            break
    if trace:
        untraced = statistics.median(p.wall_s for p in pass_totals([r.samples for r in records]))
        traced = statistics.median(p.wall_s for p in pass_totals([r.traced for r in records]))
        metrics = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
        metrics["trace.overhead_s"] = traced - untraced
        units = PER_LAYER
    else:
        metrics = end_to_end(records, setup_s)
        units = END_TO_END
    attempted = sum(len(r.samples) + len(r.traced) for r in records)
    failed = sum(len(r.failures) for r in records)
    report["passes"] = len(records[0].samples)
    report["failed_ratio"] = failed / attempted
    report["commands"] = [
        {
            "key": r.command.key,
            "argv": list(r.command.argv),
            "sha256": sorted(r.verdicts),
            "failures": r.failures[:3],
            "wall_s": [s.wall_s for s in r.samples],
            "cpu_s": [s.cpu_s for s in r.samples],
            "rss_mb": [s.rss_mb for s in r.samples],
            "ref_s": [s.ref_s for s in r.samples],
            "traced_wall_s": [s.wall_s for s in r.traced],
        }
        for r in records
    ]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cuberow" / "cli.py").is_file():
        print(f"perfbench: no cuberow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        with Runner(work, time.monotonic() + RUN_DEADLINE_S) as runner:
            result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), runner)
    except Deadline:
        print(f"perfbench: the run did not finish within {RUN_DEADLINE_S:.0f} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
