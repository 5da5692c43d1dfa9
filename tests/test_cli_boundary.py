"""Bad sweep flags and durations fail at the CLI boundary.

Each of these inputs used to be accepted and then fail deep inside a
run (a NaN watchdog deadline killing every worker, a traceback from
``TaskRunner.__init__``, ``cannot summarize zero samples`` from the
stats layer) or be silently changed (``resilience --duration 5`` ran
10 s).  Now argparse rejects them with exit status 2 and a message that
names the limit, and the runner classes refuse a NaN deadline too.
``report``/``reproduce --quick`` used to drop ``--seed``, ``--duration``
and ``--repeats`` silently; now it takes the seed and refuses the rest.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.throughput import (
    MIN_WINDOWED_SESSION_S,
    SKIP_HEAD_S,
    WINDOW_S,
)
import repro.report
from repro.cli import build_parser, main
from repro.core.dist import Coordinator, WorkerAgent
from repro.core.parallel import TaskRunner
from repro.report import ReportSettings


def _rejected(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestSweepFlags:
    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
    def test_cell_timeout_must_be_finite_and_positive(self, value, capsys):
        err = _rejected(["campaign", "--jobs", "2", "--cell-timeout", value],
                        capsys)
        assert "--cell-timeout" in err
        err = _rejected(["worker", "--store", "s", "--cell-timeout", value],
                        capsys)
        assert "--cell-timeout" in err

    @pytest.mark.parametrize("flag,value", [("--jobs", "-1"),
                                            ("--max-retries", "-2")])
    def test_negative_counts_rejected(self, flag, value, capsys):
        err = _rejected(["resilience", flag, value], capsys)
        assert flag in err and "must be >= 0" in err

    def test_valid_flags_parse(self):
        args = build_parser().parse_args(
            ["campaign", "--jobs", "0", "--max-retries", "0",
             "--cell-timeout", "2.5"])
        assert (args.jobs, args.max_retries, args.cell_timeout) == (0, 0, 2.5)

    def test_runners_refuse_a_nan_deadline(self, tmp_path):
        with pytest.raises(ValueError):
            TaskRunner(jobs=2, timeout=math.nan)
        with pytest.raises(ValueError):
            Coordinator(tmp_path / "store", timeout=math.nan)
        with pytest.raises(ValueError):
            WorkerAgent(tmp_path / "store", "w0", cell_timeout_s=math.nan)


class TestNameLists:
    def test_comma_and_space_separated_names_flatten(self):
        args = build_parser().parse_args(
            ["gauntlet", "--scenarios", "region-outage,none", "mixed",
             "--policies", "initiator-nearest,", "client-nearest"])
        assert args.scenarios == ["region-outage", "none", "mixed"]
        assert args.policies == ["initiator-nearest", "client-nearest"]

    def test_defaults_pass_through(self):
        args = build_parser().parse_args(["placement"])
        assert args.policies is None


class TestDurations:
    """The minimum comes from the throughput windowing rule."""

    def test_windowed_minimum_follows_the_windowing_rule(self):
        assert MIN_WINDOWED_SESSION_S == SKIP_HEAD_S + 2 * WINDOW_S

    @pytest.mark.parametrize("argv,minimum", [
        (["fig4", "--duration", "2"], MIN_WINDOWED_SESSION_S),
        (["fig6", "--duration", "4"], 2 * MIN_WINDOWED_SESSION_S),
        (["reproduce", "--duration", "4"], 2 * MIN_WINDOWED_SESSION_S),
        (["resilience", "--duration", "5"], 10.0),
        (["campaign", "--duration", "0"], None),
        (["table1", "--duration", "nan"], None),
        (["campaign", "--duration", "2"], MIN_WINDOWED_SESSION_S),
    ])
    def test_short_durations_rejected_with_the_minimum(self, argv, minimum,
                                                       capsys):
        err = _rejected(argv, capsys)
        assert "--duration" in err
        if minimum is not None:
            assert f"at least {minimum:g} s" in err

    def test_smallest_fig4_duration_runs(self, capsys):
        shortest = f"{MIN_WINDOWED_SESSION_S:g}"
        assert main(["fig4", "--duration", shortest, "--repeats", "1"]) == 0
        assert "ordering" in capsys.readouterr().out

    def test_smallest_fig6_duration_runs(self, capsys):
        shortest = f"{2 * MIN_WINDOWED_SESSION_S:g}"
        assert main(["fig6", "--duration", shortest, "--repeats", "1"]) == 0
        assert "users" in capsys.readouterr().out


class TestQuickReport:
    """``--quick`` fixes duration and repeats and takes the seed."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The settings each report would have been built with."""
        settings = []

        def capture(report_settings):
            settings.append(report_settings)
            return ""

        monkeypatch.setattr(repro.report, "generate_report", capture)
        return settings

    @pytest.mark.parametrize("command", ["report", "reproduce"])
    @pytest.mark.parametrize("seed", [None, 7])
    def test_quick_takes_the_seed(self, command, seed, built, capsys):
        argv = [command, "--quick"]
        if command == "reproduce":
            argv.append("--no-cache")
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert main(argv) == 0
        quick = ReportSettings.quick()
        assert quick.seed == 0
        assert [(s.seed, s.duration_s, s.repeats) for s in built] == [
            (seed or 0, quick.duration_s, quick.repeats)]

    @pytest.mark.parametrize("command", ["report", "reproduce"])
    @pytest.mark.parametrize("flag,value", [("--duration", "10"),
                                            ("--repeats", "3")])
    def test_explicit_duration_or_repeats_refused(self, command, flag,
                                                  value, built, capsys):
        for argv in ([command, "--quick", flag, value],
                     [command, flag, value, "--quick"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert flag in err and "--quick" in err
        assert built == []
