"""Tests for the repro-routing command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main

DATA = Path(__file__).resolve().parent.parent / "data"

#: Artifact subcommands the CLI no longer has; each is now an alias of its
#: registry id under ``experiment``.
RETIRED_COMMANDS = (
    "figure2", "table1", "quadrangle", "nsfnet", "census", "bistability",
    "theorem1", "dynamic-failures",
)

#: What the retired ``repro-routing theorem1`` command printed (10 trials,
#: seed 0); ``experiment THM1`` (alias ``theorem1``) must reproduce it byte
#: for byte.
THEOREM1_TABLE = """\
Theorem 1: exact displacement vs bound (random non-increasing overflow profiles)
C   r   Lambda  L (exact)  bound     holds
--  --  ------  ---------  --------  -----
51  33    28.5   3.19e-20  1.03e-04    yes
40  13    14.2   3.73e-09  1.30e-05    yes
31  31      50          0    0.4066    yes
51  28    75.3     0.0614    0.4939    yes
49   8    37.8     0.0473    0.1748    yes
44  36      41     0.0262    0.0928    yes
16  14    20.7   8.01e-03    0.3415    yes
 8   6     8.5     0.0794    0.3343    yes
37  22    11.7   2.56e-11  2.65e-08    yes
54   7    34.1   5.94e-03    0.0592    yes
"""

#: The retired ``repro-routing census`` table (H = 6, 9, 11), now part of
#: EXP-H6's report.
CENSUS_ROWS = """\
NSFNet alternate-path census by hop limit H
H   mean    max  min
--  ------  ---  ---
 6   3.303    6    1
 9  7.3636   13    4
11  8.3333   15    5
"""


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for argv in (["list"], ["report"], ["experiment", "FIG3"]):
            assert callable(parser.parse_args(argv).func)
        for command in RETIRED_COMMANDS:
            with pytest.raises(SystemExit):
                parser.parse_args([command])
        with pytest.raises(SystemExit):
            parser.parse_args(["control", "study"])

    def test_nsfnet_flags(self):
        args = build_parser().parse_args(
            ["experiment", "nsfnet", "--seeds", "2", "--duration", "30"]
        )
        assert args.id == "nsfnet"
        assert args.seeds == 2
        assert args.duration == 30.0

    @pytest.mark.parametrize("argv", [
        ["serve", "cluster", "--adapt-interval", "5"],
        ["serve", "bench", "--rate", "100"],
    ], ids=["cluster", "bench"])
    def test_engine_flags_only_where_an_engine_is_built(self, argv):
        # Only `serve run` and `serve replay` build a request engine.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("command", ["run", "replay"])
    def test_no_micro_batch_deadline_flag(self, command):
        # The batcher flushes on the event loop's next turn, so there is
        # no flush deadline to set.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["serve", command, "--max-latency", "0.002"]
            )
        assert exit_info.value.code == 2


class TestCommands:
    def test_figure2(self, capsys):
        assert main(["experiment", "figure2"]) == 0
        out = capsys.readouterr().out
        assert "r(H=120)" in out
        assert "50" in out

    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "10->11" in out
        assert "agreement" in out

    def test_theorem1(self, capsys):
        assert main(["experiment", "theorem1"]) == 0
        assert capsys.readouterr().out == THEOREM1_TABLE

    def test_quadrangle_tiny(self, capsys):
        assert main(["experiment", "quadrangle", "--seeds", "1", "--duration", "5"]) == 0
        out = capsys.readouterr().out
        assert "controlled" in out

    def test_nsfnet_tiny(self, capsys):
        assert main(["experiment", "nsfnet", "--seeds", "1", "--duration", "5"]) == 0
        out = capsys.readouterr().out
        assert "H=11" in out

    def test_census(self, capsys):
        assert main(["experiment", "EXP-H6", "--seeds", "1", "--duration", "3"]) == 0
        out = capsys.readouterr().out
        assert "H=6" in out
        assert CENSUS_ROWS in out

    def test_bistability(self, capsys):
        assert main(["experiment", "bistability"]) == 0
        out = capsys.readouterr().out
        assert "#fp(r=0)" in out
        assert "2" in out  # bistable at 104


#: Out-of-range numeric flags and the exit code each must end with: 2 for
#: a parse-time rejection (usage, then one ``error:`` line), 1 for a
#: one-line ``SystemExit`` message.
BAD_NUMBERS = [
    (["experiment", "FIG3", "--seeds", "0"], 1),
    (["report", "--seeds", "0"], 1),
    (["experiment", "FIG3", "--duration", "-5"], 1),
    (["evaluate", "--network", str(DATA / "nsfnet_t3.json"),
      "--traffic", str(DATA / "nsfnet_nominal_traffic.json"),
      "--duration", "-5"], 1),
    (["serve", "replay", "--duration", "-5"], 2),
    (["serve", "replay", "--warmup", "-1"], 2),
    (["lab", "run", "--workers", "-2"], 2),
    (["lab", "run", "--max-jobs", "-1"], 2),
    (["lab", "run", "--duration", "0"], 2),
    (["serve", "bench", "--duration", "-3"], 2),
    (["serve", "cluster", "--duration", "-1"], 2),
    (["control", "replay", "--duration", "0"], 2),
]


class TestOutOfRangeNumbers:
    @pytest.mark.parametrize(
        "argv, code", BAD_NUMBERS,
        ids=[" ".join(a for a in argv if not a.endswith(".json"))
             for argv, __ in BAD_NUMBERS],
    )
    def test_ends_with_one_line(self, argv, code, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # the lab's default store is ./.repro-lab
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        if code == 2:
            assert exit_info.value.code == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert "error: argument" in err[-1]
        else:
            message = exit_info.value.code
            assert isinstance(message, str) and "\n" not in message
            assert message.startswith(f"{argv[0]}: ")
        assert not (tmp_path / ".repro-lab").exists()  # no manifest written
