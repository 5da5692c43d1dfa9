"""Coverage for `repro.report` — the full export path.

The report is the repo's deliverable: every section, generated once
serially and once through the sharded/cached path, must be the same
string, and the CLI must write it to disk unchanged.  A replay from a
filled cache runs no cell, simulator or frame encoder, so every cell
result must come back from the cache exactly as it was computed.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.core.cache import ResultCache
from repro.core.journal import STATUS_CACHED, RunManifest
from repro.core.parallel import CellTask
from repro.geo.servers import ALL_FLEETS
from repro.keypoints.codec import SemanticCodec
from repro.keypoints.layered import LayeredSemanticCodec
from repro.mesh.codec import DracoLikeCodec
from repro.netsim.batch import BatchSimulator
from repro.netsim.engine import Simulator
from repro.report import ReportSettings, generate_report

#: Smallest settings every section tolerates (fig6's network half runs at
#: duration/2 and needs >2 s of windows).
_SETTINGS = dict(duration_s=6.0, repeats=1, seed=3)

_SECTIONS = (
    "## Table 1 — server RTT matrix (ms)",
    "## Sec. 4.1 — protocols, P2P, anycast",
    "## Fig. 4 — two-party uplink throughput",
    "## Sec. 4.3 — what is being delivered?",
    "## Sec. 4.3 — rate adaptation",
    "## Fig. 5 — visibility-aware optimizations",
    "## Fig. 6 — scalability",
    "## Ablations",
    "## Placement study — global demand x selection policy",
    "## Fault gauntlet — correlated domains at fleet scale",
)


#: Sections whose cells the experiment modules declare next to their
#: drivers (the others go through their drivers' own sweeps).
_CELL_SECTIONS = {"protocols", "content", "rate", "ablations"}

#: What a replay from a filled cache must never call.
_RECOMPUTE = (
    (CellTask, "execute"), (Simulator, "run"), (BatchSimulator, "run"),
    (SemanticCodec, "encode"), (LayeredSemanticCodec, "encode"),
    (DracoLikeCodec, "encode"),
)


def _refuse(*args, **kwargs):
    raise AssertionError("a cache replay recomputed a result")


@pytest.fixture(scope="module")
def serial_run():
    """The serial report, and each cell it executed with its result."""
    executed = []
    execute = CellTask.execute

    def recording(task):
        result = execute(task)
        executed.append((task, result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CellTask, "execute", recording)
        report = generate_report(ReportSettings(**_SETTINGS))
    return report, executed


@pytest.fixture(scope="module")
def serial_report(serial_run) -> str:
    return serial_run[0]


class TestReport:
    def test_every_section_present(self, serial_report):
        for heading in _SECTIONS:
            assert heading in serial_report

    def test_quick_settings_are_shorter(self):
        quick = ReportSettings.quick()
        assert quick.duration_s < ReportSettings().duration_s
        assert quick.jobs == 1 and quick.cache is None

    def test_sharded_cached_report_identical(self, serial_report, tmp_path,
                                             monkeypatch):
        cold = generate_report(ReportSettings(
            **_SETTINGS, jobs=2, cache=ResultCache(tmp_path)
        ))
        assert cold == serial_report
        # Replay: every section comes straight off disk.
        for owner, name in _RECOMPUTE:
            monkeypatch.setattr(owner, name, _refuse)
        replay_cache = ResultCache(tmp_path)
        warm = generate_report(ReportSettings(
            **_SETTINGS, jobs=1, cache=replay_cache
        ))
        assert warm == serial_report
        assert replay_cache.stats.hits > 0
        assert replay_cache.stats.misses == 0
        manifest = RunManifest()
        generate_report(ReportSettings(**_SETTINGS, cache=replay_cache,
                                       manifest=manifest))
        assert {cell.status for cell in manifest.cells} == {STATUS_CACHED}
        assert _CELL_SECTIONS <= {cell.name.split("/")[0]
                                  for cell in manifest.cells}

    def test_cell_results_round_trip_through_the_cache(self, serial_run,
                                                       tmp_path):
        """The cache writes JSON with sorted keys: a mapping, tuple or
        ``Layer`` that a codec does not pack comes back changed."""
        cache = ResultCache(tmp_path)
        replayed = {}
        for task, result in serial_run[1]:
            if task.name.split("/")[0] not in _CELL_SECTIONS:
                continue
            cache.put(task.cache_key(), task.pack(result) if task.pack
                      else result)
            payload = cache.get(task.cache_key())
            back = task.unpack(payload) if task.unpack else payload
            assert back == result and repr(back) == repr(result), task.name
            replayed[task.name] = back
        assert _CELL_SECTIONS == {name.split("/")[0] for name in replayed}
        assert list(replayed["protocols/anycast"]) == list(ALL_FLEETS)


class TestCli:
    def test_parser_accepts_sweep_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--jobs", "4", "--no-cache", "--users", "2",
             "--vcas", "Zoom"]
        )
        assert args.jobs == 4 and args.no_cache
        args = build_parser().parse_args(["reproduce", "--jobs", "2"])
        assert args.command == "reproduce"
        args = build_parser().parse_args(["resilience", "--no-cache"])
        assert args.no_cache

    def test_report_subcommand_has_no_sweep_flags(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--jobs", "2"])

    def test_campaign_cli_end_to_end(self, tmp_path, capsys):
        csv_path = tmp_path / "records.csv"
        code = main([
            "campaign", "--vcas", "Zoom", "--users", "2", "--duration", "3",
            "--repeats", "1", "--jobs", "2", "--cache-dir",
            str(tmp_path / "cache"), "--csv", str(csv_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Zoom" in out and "hit rate" in out
        assert csv_path.read_text().startswith("vca,n_users")
        # Second run replays entirely from the cache.
        code = main([
            "campaign", "--vcas", "Zoom", "--users", "2", "--duration", "3",
            "--repeats", "1", "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        assert "100% hit rate" in capsys.readouterr().out
