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

import argparse
import json
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
        (["rate", "--duration", "nan"], None),
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


class TestFig6CohortFlags:
    """The cohort what-if's flags fail at parse time, not deep inside
    ``sfu_cohort_downlink`` (NaN/inf durations, a zero NIC rate, a
    one-user fan-out) or silently (2 s left no throughput window)."""

    @pytest.mark.parametrize("argv,needle", [
        (["--cohort-duration", "nan"], "finite"),
        (["--cohort-duration", "inf"], "finite"),
        (["--cohort-duration", "2"],
         f"at least {MIN_WINDOWED_SESSION_S:g} s"),
        (["--server-gbps", "nan"], "finite"),
        (["--server-gbps", "inf"], "finite"),
        (["--server-gbps", "0"], "> 0"),
        (["--fanouts", "1"], ">= 2"),
        (["--fanouts", "3", "1"], ">= 2"),
    ])
    def test_bad_values_rejected(self, argv, needle, capsys):
        err = _rejected(["fig6", "--cohort-only", *argv], capsys)
        assert f"argument {argv[0]}" in err and needle in err

    def test_smallest_cohort_duration_runs(self, capsys):
        shortest = f"{MIN_WINDOWED_SESSION_S:g}"
        assert main(["fig6", "--cohort-only", "--fanouts", "3",
                     "--cohort-duration", shortest]) == 0
        assert "egress knee" in capsys.readouterr().out


class TestGeoSweepFlags:
    """Placement and gauntlet numbers fail at parse time, not inside
    numpy (``arange: cannot compute length``) or silently (a NaN
    capacity factor shed every session)."""

    @pytest.mark.parametrize("argv", [
        ["gauntlet", "--tick", "nan"],
        ["gauntlet", "--tick", "0"],
        ["gauntlet", "--gauntlet-duration", "nan"],
        ["gauntlet", "--gauntlet-duration", "inf"],
        ["gauntlet", "--capacity-factor", "nan"],
        ["gauntlet", "--capacity-factor", "0"],
        ["gauntlet", "--site-step", "0"],
        ["gauntlet", "--fleet-sizes", "0"],
        ["gauntlet", "--k", "0"],
        ["gauntlet", "--regions", "0"],
        ["gauntlet", "--session-size", "1"],
        ["placement", "--site-step", "nan"],
        ["placement", "--site-step", "0"],
        ["placement", "--users", "0"],
        ["placement", "--epochs", "nan"],
        ["placement", "--epochs", "2", "inf"],
        ["placement", "--session-size", "0"],
        ["placement", "--k-range", "2", "0"],
        ["placement", "--regions", "0"],
    ])
    def test_bad_values_rejected(self, argv, capsys):
        err = _rejected(argv, capsys)
        assert f"argument {argv[1]}" in err

    def test_shared_flags_keep_each_subcommands_default(self):
        placement = build_parser().parse_args(["placement"])
        gauntlet = build_parser().parse_args(["gauntlet"])
        assert (placement.regions, placement.session_size,
                placement.site_step) == (None, 3, 4.0)
        assert (gauntlet.regions, gauntlet.session_size,
                gauntlet.site_step) == (12, 3, 8.0)
        for args in (placement, gauntlet):
            assert args.policies is None and args.csv is None


#: (subcommand, common flag it does not read); 19 pairs.
IGNORED_COMMON_FLAGS = (
    [("validate", flag) for flag in ("--seed", "--duration", "--repeats")]
    + [(command, flag)
       for command in ("protocols", "content", "fig5", "placement",
                       "gauntlet", "scenarios")
       for flag in ("--duration", "--repeats")]
    + [("table1", "--duration")]
    + [(command, "--repeats")
       for command in ("rate", "ablations", "resilience")]
)


class TestCommonFlags:
    """A subcommand refuses the common flags it does not read
    (``gauntlet --duration 50`` used to run 120 s silently)."""

    @pytest.mark.parametrize("command,flag", IGNORED_COMMON_FLAGS)
    def test_ignored_flag_refused(self, command, flag, capsys):
        action = ["run"] if command == "scenarios" else []
        err = _rejected([command, *action, flag, "12"], capsys)
        assert f"unrecognized arguments: {flag}" in err


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


class TestNumericFlags:
    """Every numeric flag is checked at parse time.  These used to end in
    a traceback (``repeats must be >= 1``, ``cannot summarize zero
    samples``, ``empty campaign result``) or be taken as given (a NaN
    poll interval, a negative lease timeout)."""

    @pytest.mark.parametrize("argv", [
        *([command, "--repeats", "0"] for command in
          ("table1", "fig4", "fig6", "campaign", "report", "reproduce")),
        ["fig4", "--duration", "3", "--repeats", "-1"],
        ["scenarios", "generate", "--count", "-1"],
        ["scenarios", "run", "--count", "0"],
        ["scenarios", "generate", "--start", "-1"],
        *(["campaign", "--worker-wait", value]
          for value in ("nan", "inf", "-1")),
        *(["worker", "--store", "s", flag, value]
          for flag in ("--join-timeout", "--idle-exit")
          for value in ("nan", "inf", "-1")),
        ["worker", "--store", "s", "--max-cells", "-1"],
        *(["worker", "--store", "s", flag, value]
          for flag in ("--poll", "--heartbeat-interval", "--lease-timeout")
          for value in ("nan", "inf", "0", "-1")),
        *(["cache", "gc", "--orphan-ttl", value]
          for value in ("nan", "inf", "-1")),
    ])
    def test_bad_values_rejected(self, argv, capsys):
        err = _rejected(argv, capsys)
        assert f"argument {argv[-2]}" in err

    def test_smallest_values_parse(self):
        parse = build_parser().parse_args
        assert parse(["campaign", "--worker-wait", "0",
                      "--repeats", "1"]).worker_wait == 0.0
        worker = parse(["worker", "--store", "s", "--join-timeout", "0",
                        "--idle-exit", "0", "--max-cells", "0",
                        "--poll", "0.01", "--lease-timeout", "0.5"])
        assert (worker.join_timeout, worker.idle_exit, worker.max_cells,
                worker.poll, worker.lease_timeout) == (0.0, 0.0, 0, 0.01,
                                                       0.5)
        assert parse(["cache", "gc", "--orphan-ttl", "0"]).orphan_ttl == 0.0
        scenarios = parse(["scenarios", "run", "--count", "1",
                           "--start", "0"])
        assert (scenarios.count, scenarios.start) == (1, 0)


class TestPlacementPopulation:
    """``--users`` below ``--session-size`` is refused before any cell
    runs (it used to end in a traceback from inside a cell)."""

    def test_cli_names_both_flags(self, monkeypatch, capsys):
        import repro.experiments.placement_study as study

        monkeypatch.setattr(study, "run_tasks", _never_runs)
        with pytest.raises(SystemExit) as exc:
            main(["placement", "--users", "2", "--session-size", "3",
                  "--policies", "initiator-nearest", "--k-range", "2",
                  "--no-cache"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--users" in err and "--session-size" in err

    def test_run_refuses_before_any_cell(self, monkeypatch):
        import repro.experiments.placement_study as study

        monkeypatch.setattr(study, "run_tasks", _never_runs)
        with pytest.raises(ValueError, match="users"):
            study.run(users=2, session_size=3, k_range=[2],
                      policies=["initiator-nearest"])


def _never_runs(*args, **kwargs):
    raise AssertionError("cells ran before the boundary check")


class TestSpecFile:
    """``scenarios --spec-file`` parses every line before anything runs
    and names the bad line (each case used to be a traceback; a NaN
    duration started the batch and died in the engine)."""

    GOOD = {
        "name": "s", "profile": "Zoom", "topology": "p2p",
        "duration_s": 12.0, "seed": 0, "faults": {},
        "participants": [{"device": "vision-pro", "city": "san jose"},
                         {"device": "macbook", "city": "dallas"}],
    }

    @pytest.mark.parametrize("action", ["run", "generate"])
    @pytest.mark.parametrize("change,needle", [
        ({"colour": "red"}, "unknown keys"),
        ({"participants": [{"device": "quest", "city": "san jose"},
                           {"device": "macbook", "city": "dallas"}]},
         "unknown device"),
        ({"participants": [{"device": "vision-pro", "city": "paris"},
                           {"device": "macbook", "city": "dallas"}]},
         "unknown city"),
        ({"duration_s": math.nan}, "duration_s"),
        ({"duration_s": math.inf}, "duration_s"),
        ({"seed": None}, "missing key 'seed'"),
    ])
    def test_bad_line_named(self, action, change, needle, tmp_path,
                            monkeypatch, capsys):
        import repro.scenario

        monkeypatch.setattr(repro.scenario, "run_batch", _never_runs)
        path = tmp_path / "specs.jsonl"
        bad = {key: value for key, value in {**self.GOOD, **change}.items()
               if value is not None}
        path.write_text(json.dumps(self.GOOD) + "\n\n"
                        + json.dumps(bad) + "\n")
        argv = ["scenarios", action, "--spec-file", str(path)]
        assert main(argv + (["--no-cache"] if action == "run" else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:3: ")
        assert needle in captured.err


#: Every subcommand that takes ``--seed`` (all but validate, worker and
#: cache), with the positional action scenarios needs.
SEEDED_COMMANDS = [
    [command] for command in (
        "table1", "protocols", "fig4", "content", "rate", "fig5", "fig6",
        "ablations", "resilience", "campaign", "placement", "gauntlet",
        "report", "reproduce")
] + [["scenarios", action] for action in ("generate", "run", "describe")]


class TestSeed:
    """``--seed`` is one non-negative type on every subcommand (``table1
    --seed -1`` ran, while ``scenarios generate --seed -1`` ended in a
    traceback from the generator)."""

    def test_every_seeded_command_is_listed(self):
        parser = build_parser()
        (sub,) = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
        seeded = {name for name, command in sub.choices.items()
                  if "--seed" in command._option_string_actions}
        assert seeded == {argv[0] for argv in SEEDED_COMMANDS}

    @pytest.mark.parametrize("argv", SEEDED_COMMANDS, ids=" ".join)
    def test_seed_must_be_non_negative(self, argv, capsys):
        assert build_parser().parse_args([*argv, "--seed", "0"]).seed == 0
        err = _rejected([*argv, "--seed", "-1"], capsys)
        assert "argument --seed" in err and "must be >= 0" in err


class TestSpecFilePath:
    """A ``--spec-file`` that cannot be read exits 2 naming the path (a
    missing file used to end in a ``FileNotFoundError`` traceback)."""

    @pytest.mark.parametrize("action", ["run", "generate"])
    @pytest.mark.parametrize("kind,reason", [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
        ("not-utf8", "can't decode"),
    ])
    def test_unreadable_path_named(self, action, kind, reason, tmp_path,
                                   monkeypatch, capsys):
        import repro.scenario

        monkeypatch.setattr(repro.scenario, "run_batch", _never_runs)
        path = tmp_path / "specs.jsonl"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"\xff\xfe{}\n")
        argv = ["scenarios", action, "--spec-file", str(path)]
        assert main(argv + (["--no-cache"] if action == "run" else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert reason in captured.err


class TestNames:
    """A bad name or count exits 2 at parse time, naming the flag and,
    for a name, the known ones.  These used to end in a ``KeyError`` or
    ``ValueError`` traceback from inside the run (exit 1), or in
    ``SystemExit`` with status 1 for ``--distribution``."""

    @pytest.mark.parametrize("argv,catalog", [
        (["campaign", "--vcas", "Zoom", "Skype"], "vcas"),
        (["gauntlet", "--scenarios", "Skype"], "scenarios"),
        (["gauntlet", "--scenarios", "region-outage,Skype"], "scenarios"),
        (["placement", "--policies", "Skype"], "policies"),
        (["gauntlet", "--policies", "client-nearest", "Skype"], "policies"),
        (["scenarios", "run", "--distribution", "Skype"], "distributions"),
    ])
    def test_unknown_name_lists_the_catalog(self, argv, catalog, capsys):
        from repro.faults.domains import scenario_names
        from repro.geo.policy import policy_names
        from repro.scenario import DISTRIBUTIONS
        from repro.vca.profiles import PROFILES

        known = {"vcas": list(PROFILES), "scenarios": scenario_names(),
                 "policies": policy_names(),
                 "distributions": list(DISTRIBUTIONS)}[catalog]
        err = _rejected(argv, capsys)
        flag = next(arg for arg in reversed(argv) if arg.startswith("--"))
        assert f"argument {flag}: 'Skype': must be one of" in err
        assert ", ".join(known) in err

    @pytest.mark.parametrize("users", [["1"], ["2", "-2"]])
    def test_campaign_users_below_two_rejected(self, users, capsys):
        err = _rejected(["campaign", "--users", *users], capsys)
        assert "argument --users" in err and "must be >= 2" in err

    def test_nothing_runs_before_the_check(self, monkeypatch, capsys):
        import repro.scenario

        monkeypatch.setattr(repro.scenario, "run_batch", _never_runs)
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", "run", "--distribution", "nope",
                  "--no-cache"])
        assert exc.value.code == 2
        assert "argument --distribution" in capsys.readouterr().err

    def test_gauntlet_help_lists_the_scenario_catalog(self):
        from repro.faults.domains import scenario_names

        (sub,) = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
        flag = sub.choices["gauntlet"]._option_string_actions["--scenarios"]
        listed = flag.help.split("(catalog: ")[1].rstrip(")").split()
        assert tuple(listed) == tuple(scenario_names())


def _refused(argv, capsys) -> str:
    """Exit 2 from ``main`` (a record's check), nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


class TestCellLists:
    """A repeated value in a list flag whose values become cells exits 2
    naming the value (``campaign --vcas Zoom Zoom`` used to run two Zoom
    cells, both labelled ``repeat 0``)."""

    @pytest.mark.parametrize("argv,flag,value", [
        (["campaign", "--vcas", "Zoom", "Zoom"], "--vcas", "'Zoom'"),
        (["campaign", "--vcas", "Zoom", "Webex", "Zoom"], "--vcas", "'Zoom'"),
        (["campaign", "--users", "2", "3", "2"], "--users", "2"),
        (["fig6", "--fanouts", "50", "50"], "--fanouts", "50"),
        (["placement", "--policies", "client-nearest,client-nearest"],
         "--policies", "'client-nearest'"),
        (["gauntlet", "--policies", "client-nearest", "client-nearest"],
         "--policies", "'client-nearest'"),
        (["gauntlet", "--scenarios", "mixed", "region-outage,mixed"],
         "--scenarios", "'mixed'"),
    ])
    def test_repeat_refused(self, argv, flag, value, capsys):
        err = _rejected(argv, capsys)
        assert f"argument {flag}: {value}: given twice" in err

    def test_distinct_values_parse(self):
        args = build_parser().parse_args(
            ["campaign", "--vcas", "Zoom", "Webex", "--users", "2", "3"])
        assert (args.vcas, args.users) == (["Zoom", "Webex"], [2, 3])
        args = build_parser().parse_args(
            ["gauntlet", "--scenarios", "mixed,region-outage"])
        assert args.scenarios == ["mixed", "region-outage"]


#: Each ``scenarios`` flag and each sweep flag, with a value.
SCENARIO_FLAGS = [["--seed", "1"], ["--distribution", "paper-calls"],
                  ["--count", "3"], ["--start", "2"], ["--out", "x.jsonl"],
                  ["--spec-file", "s.jsonl"], ["--csv", "x.csv"]]
SWEEP_FLAGS = [["--jobs", "2"], ["--no-cache"], ["--cache-dir", "c"],
               ["--cell-timeout", "5"], ["--max-retries", "2"],
               ["--journal", "j.jsonl"], ["--resume"],
               ["--manifest", "m.json"], ["--trace", "t.jsonl"],
               ["--metrics"]]


class TestScenarioActions:
    """``scenarios describe`` and ``generate`` refuse the flags they never
    read (both used to exit 0 and ignore them, writing no file)."""

    @pytest.mark.parametrize("flag", SCENARIO_FLAGS + SWEEP_FLAGS,
                             ids=lambda flag: flag[0])
    def test_describe_refuses(self, flag, capsys):
        err = _refused(["scenarios", "describe", *flag], capsys)
        assert f"argument {flag[0]}: not read by 'scenarios describe'" in err

    @pytest.mark.parametrize("flag", SWEEP_FLAGS + [["--csv", "x.csv"]],
                             ids=lambda flag: flag[0])
    def test_generate_refuses(self, flag, capsys):
        err = _refused(["scenarios", "generate", "--count", "2", *flag],
                       capsys)
        assert f"argument {flag[0]}: not read by 'scenarios generate'" in err

    def test_generate_reads_its_flags(self, tmp_path, capsys):
        out = tmp_path / "specs.jsonl"
        assert main(["scenarios", "generate", "--seed", "3",
                     "--distribution", "paper-calls", "--count", "2",
                     "--start", "1", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_run_takes_every_flag(self):
        from repro.cli import COMMANDS

        argv = ["scenarios", "run"] + [
            arg for flag in SCENARIO_FLAGS + SWEEP_FLAGS for arg in flag]
        args = build_parser().parse_args(argv)
        assert COMMANDS["scenarios"].check(args) is None
