"""Byte-level pins of the ``compare`` and ``sweep`` outputs users see.

Stdout and every exported file (CSV, JSON, Markdown) must stay
byte-identical to the fixtures under ``tests/fixtures/cli_outputs/``,
so a refactor of the comparison path cannot move a printed digit.
Only the wall-clock figure of the ``[runner] ... in N.Ns`` line is
masked, since it varies from run to run.

Regenerate (from a directory of your choice, then copy the files in)::

    repro-ones compare --gpus 8 --jobs 5 --arrival-interval 10 --seed 7 \\
        --schedulers ones fifo tiresias \\
        --csv compare.csv --json compare.json --report compare.md > compare.stdout
    repro-ones sweep --capacities 8 16 --jobs 4 --arrival-interval 10 --seeds 7 \\
        --schedulers ones fifo --json sweep.json > sweep.stdout
"""

import re
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "cli_outputs"

COMPARE = [
    "compare", "--gpus", "8", "--jobs", "5", "--arrival-interval", "10", "--seed", "7",
    "--schedulers", "ones", "fifo", "tiresias",
    "--csv", "compare.csv", "--json", "compare.json", "--report", "compare.md",
]
SWEEP = [
    "sweep", "--capacities", "8", "16", "--jobs", "4", "--arrival-interval", "10",
    "--seeds", "7", "--schedulers", "ones", "fifo", "--json", "sweep.json",
]


def _mask_wall_clock(text: str) -> str:
    return re.sub(r"from cache in \d+\.\ds", "from cache in N.Ns", text)


def test_compare_and_sweep_outputs_match_golden_fixtures(tmp_path, monkeypatch, capsys):
    # Relative output paths, so the "written to <path>" lines match too.
    monkeypatch.chdir(tmp_path)
    for argv, files in (
        (COMPARE, ("compare.csv", "compare.json", "compare.md")),
        (SWEEP, ("sweep.json",)),
    ):
        command = argv[0]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        expected = (FIXTURES / f"{command}.stdout").read_text()
        assert _mask_wall_clock(stdout) == _mask_wall_clock(expected), command
        for name in files:
            assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
