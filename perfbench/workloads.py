"""The benchmark's workloads: which commands run, at which sizes, and why.

Each workload is a fixed list of commands; the seed only permutes their
order (and, for ``verify``, the line order of the input files), so every
seed does the same work and the program sees nothing but the generated
inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

ROUTE_N = 4096
PAIRS = [("normal", "free"), ("normal", "dim-ordered"), ("gray", "free"), ("gray", "dim-ordered")]


@dataclass(frozen=True)
class Command:
    """One process the benchmark launches and checks.

    ``argv`` follows the program (``cuberow``, or ``certify.py`` when
    ``certify`` is set); the token ``{work}`` stands for the run's work
    directory.  ``outputs``
    names the files the command writes besides stdout.
    """

    key: str
    argv: tuple[str, ...]
    check: Callable[[bytes, Path], None]
    certify: bool = False
    outputs: tuple[str, ...] = ()


def _density(n: int, placement: str, mode: str, fmt: str) -> Command:
    check = checks.density_json(n, placement, mode) if fmt == "json" else checks.density_csv(n, mode)
    argv = ("density", "--n", str(n), "--placement", placement, "--mode", mode, "--format", fmt)
    return Command(f"density-{n}-{placement}-{mode}-{fmt}", argv, check)


def _route(placement: str, mode: str, fmt: str, files: tuple[str, str] | None = None) -> Command:
    """A route command; csv output also emits the netlist and assignment
    files, named ``files`` or after the command."""
    argv = ("route", "--n", str(ROUTE_N), "--placement", placement, "--mode", mode, "--format", fmt)
    key = f"route-{ROUTE_N}-{placement}-{mode}-{fmt}"
    if fmt == "json":
        return Command(key, argv, checks.route_json(ROUTE_N, placement, mode))
    if fmt == "svg":
        return Command(key, argv, checks.route_svg(ROUTE_N, placement, mode))
    netlist_file, assignment_file = files or (f"{key}.net", f"{key}.asg")
    return Command(
        key,
        argv + ("--emit-netlist", f"{{work}}/{netlist_file}", "--emit-assignment", f"{{work}}/{assignment_file}"),
        checks.route_csv(ROUTE_N, placement, mode, netlist_file, assignment_file),
        outputs=(netlist_file, assignment_file),
    )


def verify_inputs(placement: str, mode: str) -> tuple[str, str]:
    """File names of the netlist and assignment certify.py reads."""
    return f"verify-{placement}-{mode}.net", f"verify-{placement}-{mode}.asg"


# Why each workload exists is recorded in BENCHMARK.json; in short:
# closed-form is the density kernels and serialization and routes nothing,
# route is the write path, check is per-wire object churn in the oracle
# sweeps, and verify is the read path of the netlist and routing layers.
WORKLOADS: dict[str, list[Command]] = {
    "closed-form": [
        _density(2**20, "normal", "free", "json"),
        _density(2**16, "normal", "dim-ordered", "csv"),
        _density(2**12, "gray", "dim-ordered", "json"),
    ],
    "route": [
        _route("normal", "free", "json"),
        _route("normal", "dim-ordered", "json"),
        _route("gray", "dim-ordered", "json"),
        _route("gray", "free", "svg"),
        _route("normal", "dim-ordered", "csv"),
    ],
    "check": [
        Command("check-4096", ("check", "--max-n", "4096"), checks.selfcheck_text(4096)),
        Command("compare-1024", ("compare", "--n", "1024"), checks.compare_text(1024)),
    ],
    "verify": [
        Command(
            "verify-4096",
            ("{work}", *(f"{placement}/{mode}" for placement, mode in PAIRS)),
            checks.verify_report(ROUTE_N, PAIRS),
            certify=True,
        ),
    ],
}


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's commands in the order this seed gives them."""
    rng = random.Random(f"order-{seed}")
    cmds = list(WORKLOADS[workload])
    rng.shuffle(cmds)
    if workload == "verify":
        # certify.py checks the pairs in the order it is given them.
        (cmd,) = cmds
        pairs = list(cmd.argv[1:])
        rng.shuffle(pairs)
        cmds = [Command(cmd.key, (cmd.argv[0], *pairs), cmd.check, certify=True)]
    return cmds


def input_commands(workload: str) -> list[Command]:
    """cuberow commands that write the workload's input files, untimed;
    only ``verify`` reads input files."""
    if workload != "verify":
        return []
    return [_route(placement, mode, "csv", verify_inputs(placement, mode)) for placement, mode in PAIRS]


def shuffle_lines(path: Path, seed: int, keep_header: bool) -> None:
    """Permute a text file's lines in place, deterministically per seed and file."""
    lines = path.read_text().splitlines()
    head, body = (lines[:1], lines[1:]) if keep_header else ([], lines)
    random.Random(f"lines-{seed}-{path.name}").shuffle(body)
    path.write_text("\n".join(head + body) + "\n")
