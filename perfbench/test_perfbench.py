"""Tests of the benchmark itself: metric names, output checks, seeding and
the determinism of the traced counts."""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import certify
import checks
import run
import tracer
import workloads

sys.path.insert(0, str(run.ROOT / "src"))
from cuberow.cli import main as cuberow_main  # noqa: E402


def cli_output(*argv: str) -> bytes:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cuberow_main(list(argv)) == 0
    return out.getvalue().encode()


def failure(check, stdout: bytes, work: Path = Path(".")) -> str | None:
    return checks.run_check(check, stdout, work)


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [*declared, *run.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_every_declared_function_is_wrapped():
    # In a child process: installing the tracer rebinds the program's functions.
    probe = "import tracer; print('\\n'.join(tracer.Tracer().install()))"
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=run.HERE, env={**os.environ, "PYTHONPATH": str(run.ROOT / "src")},
        capture_output=True, text=True, check=True,
    ).stdout
    assert set(run.TRACED_FUNCTIONS) <= set(out.split())


@pytest.mark.parametrize("placement", ["normal", "gray"])
@pytest.mark.parametrize("mode", ["free", "dim-ordered"])
def test_route_json_check_accepts_real_output_and_rejects_corruption(placement, mode):
    n = 32
    good = cli_output("route", "--n", str(n), "--placement", placement, "--mode", mode, "--format", "json")
    check = checks.route_json(n, placement, mode)
    assert failure(check, good) is None

    doc = json.loads(good)
    wires = doc["wires"]
    # Put a wire on the track of another wire it overlaps: the longest wire
    # crosses the middle gap, as does every wire of the top dimension.
    longest = max(wires, key=lambda w: w["right_col"] - w["left_col"])
    other = next(w for w in wires if w is not longest and w["left_col"] < n // 2 <= w["right_col"])
    other["track"] = longest["track"]
    assert "overlapping" in failure(check, json.dumps(doc).encode())

    doc = json.loads(good)
    doc["m"] += 1
    assert failure(check, json.dumps(doc).encode()) is not None

    doc = json.loads(good)
    doc["wires"][1] = dict(doc["wires"][0])
    assert failure(check, json.dumps(doc).encode()) is not None


def test_density_checks_reject_corruption():
    good = cli_output("density", "--n", "64", "--mode", "dim-ordered", "--format", "csv")
    check = checks.density_csv(64, "dim-ordered")
    assert failure(check, good) is None
    assert failure(check, good.replace(b"terminal_max=43", b"terminal_max=44")) is not None
    lines = good.decode().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + ",99"
    assert failure(check, "\n".join(lines).encode()) is not None

    doc = json.loads(cli_output("density", "--n", "1024", "--format", "json"))
    check = checks.density_json(1024, "normal", "free")
    assert failure(check, json.dumps(doc).encode()) is None
    doc["profile"][3] += 1
    assert failure(check, json.dumps(doc).encode()) is not None
    assert failure(check, b"{not json") is not None


def test_svg_compare_and_check_summaries():
    svg = cli_output("route", "--n", "16", "--placement", "gray", "--format", "svg")
    assert failure(checks.route_svg(16, "gray", "free"), svg) is None
    assert failure(checks.route_svg(16, "gray", "free"), svg.replace(b"<polyline", b"<path", 1)) is not None
    compare = cli_output("compare", "--n", "64")
    assert failure(checks.compare_text(64), compare) is None
    assert failure(checks.compare_text(128), compare) is not None
    summary = cli_output("check", "--max-n", "16")
    assert failure(checks.selfcheck_text(16), summary) is None
    assert failure(checks.selfcheck_text(16), summary.replace(b"all checks passed", b"1 check(s) failed")) is not None


def test_a_failed_check_is_counted(tmp_path):
    """A command whose output breaks an identity counts as failed, not just logged."""
    argv = ("route", "--n", "16", "--mode", "dim-ordered", "--format", "json")
    records = [
        run.CommandRecord(workloads.Command("ok", argv, checks.route_json(16, "normal", "dim-ordered"))),
        # The wrong row size stands in for a wrong answer.
        run.CommandRecord(workloads.Command("bad", argv, checks.route_json(32, "normal", "dim-ordered"))),
    ]
    with run.Runner(tmp_path, deadline=time.monotonic() + 120) as runner:
        run.run_pass(runner, records)
        run.run_pass(runner, records)
    assert [len(r.failures) for r in records] == [0, 2]
    assert records[0].samples[0].rss_mb > 0 and len(records[0].verdicts) == 1


def test_peak_rss_is_not_inherited_from_the_benchmark(tmp_path):
    """Linux floors a child's ru_maxrss at its spawner's peak RSS; children
    come from the launcher, so the benchmark's own growth does not show."""
    ballast = b"x" * (64 << 20)
    with run.Runner(tmp_path, deadline=time.monotonic() + 60) as runner:
        sample = runner.launch([sys.executable, "-c", "pass"], tmp_path / "out")
    assert len(ballast) and sample.exit_code == 0 and sample.rss_mb < 40


def test_route_csv_check_reads_the_emitted_files(tmp_path):
    (command,) = [c for c in workloads.WORKLOADS["route"] if c.outputs]
    net, asg = command.outputs
    argv = ("route", "--n", "16", "--mode", "dim-ordered", "--format", "csv",
            "--emit-netlist", str(tmp_path / net), "--emit-assignment", str(tmp_path / asg))
    check = checks.route_csv(16, "normal", "dim-ordered", net, asg)
    good = cli_output(*argv)
    assert failure(check, good, tmp_path) is None
    lines = (tmp_path / asg).read_text().splitlines()
    (tmp_path / asg).write_text("\n".join(lines[:-1] + lines[-2:-1]) + "\n")
    assert failure(check, good, tmp_path) is not None


def test_same_seed_same_order_and_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        assert workloads.commands(name, 7) == workloads.commands(name, 7)
    orders = {tuple(c.key for c in workloads.commands("route", seed)) for seed in range(10)}
    assert len(orders) > 1
    pairs = {workloads.commands("verify", seed)[0].argv for seed in range(10)}
    assert len(pairs) > 1

    text = cli_output("route", "--n", "16", "--placement", "gray", "--mode", "dim-ordered", "--format", "csv")
    copies = []
    for attempt in range(2):
        path = tmp_path / f"copy{attempt}" / "verify-gray-dim-ordered.asg"
        path.parent.mkdir()
        path.write_bytes(text)
        workloads.shuffle_lines(path, seed=3, keep_header=True)
        copies.append(path.read_bytes())
    assert copies[0] == copies[1] != text
    assert sorted(copies[0].splitlines()) == sorted(text.splitlines())


def test_certify_accepts_shuffled_files_and_rejects_duplicates(tmp_path, capsys):
    net, asg = (tmp_path / name for name in workloads.verify_inputs("gray", "dim-ordered"))
    cli_output("route", "--n", "32", "--placement", "gray", "--mode", "dim-ordered", "--format", "csv",
               "--emit-netlist", str(net), "--emit-assignment", str(asg))
    workloads.shuffle_lines(net, seed=1, keep_header=True)
    workloads.shuffle_lines(asg, seed=1, keep_header=False)
    assert certify.main([str(tmp_path), "gray/dim-ordered"]) == 0
    assert failure(checks.verify_report(32, [("gray", "dim-ordered")]), capsys.readouterr().out.encode()) is None

    lines = asg.read_text().splitlines()
    asg.write_text("\n".join([lines[0], *lines[:-1]]) + "\n")
    assert certify.main([str(tmp_path), "gray/dim-ordered"]) == 2
    assert "fail" in capsys.readouterr().out


def traced_pass(tmp_path: Path, tag: str) -> dict[str, float]:
    work = tmp_path / tag
    work.mkdir()
    records = [
        run.CommandRecord(workloads.Command(
            "density", ("density", "--n", "256", "--mode", "dim-ordered", "--format", "csv"),
            checks.density_csv(256, "dim-ordered"))),
        run.CommandRecord(workloads.Command(
            "route", ("route", "--n", "64", "--placement", "gray", "--mode", "dim-ordered", "--format", "json"),
            checks.route_json(64, "gray", "dim-ordered"))),
    ]
    with run.Runner(work, deadline=time.monotonic() + 120) as runner:
        metrics = run.layer_metrics(tracer.summarize(run.run_pass(runner, records, work)), records)
    assert [r.failures for r in records] == [[], []]
    return metrics


def test_traced_counts_repeat_exactly(tmp_path):
    first, second = traced_pass(tmp_path, "a"), traced_pass(tmp_path, "b")
    counts = [name for name, unit in run.PER_LAYER.items() if unit != "s"]
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}
    # Two per cut: once for the table, once inside the peak search.
    assert first["netlist.terminal_cut_densities.calls"] == 2 * 256 - 1
    assert first["routing.channel_density.calls"] == 2
    assert first["routing.tracks"] == 2 * 64 // 3 + 1
    assert first["cli.main.calls"] == 2 and first["cli.serialize_json.calls"] == 1
    assert first["cli.bytes_out"] > 0 and first["cli.main.self_s"] > 0
