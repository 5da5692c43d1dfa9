"""Golden digests: every result-producing subcommand, pinned absolutely.

The contract of every refactor is byte-identical output.  The relative
``cmp`` checks (serial vs ``--jobs 2`` vs replay vs resume) compare runs
with each other, so a change that moves both sides passes them; this
suite compares each subcommand's output with a committed sha256.

Each case runs ``repro.cli.main(argv)`` in-process at small settings
and digests the file the subcommand writes (its CSV, or the markdown of
``reproduce --output``), or its stdout when it writes no file.

- Tier-1 runs the sweep subcommands (``TIER1`` below).
- ``--golden-all`` adds the paper subcommands and the quick report.
- ``--regen-golden`` runs every case and rewrites
  ``tests/golden/digests.json``.  Each regeneration gets a CHANGES.md
  line naming the digests that moved and why.

The digests hold for the Python major.minor and numpy version recorded
in the file (numpy's float formatting and RNG streams are part of the
output); on any other pair the suite skips and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main

DIGESTS_PATH = Path(__file__).parent / "golden" / "digests.json"

#: case id -> (argv, the flag naming the file it writes, or None for stdout)
CASES = {
    "table1": (["table1", "--repeats", "2"], None),
    "protocols": (["protocols"], None),
    "fig4": (["fig4", "--duration", "4", "--repeats", "1"], None),
    "content": (["content"], None),
    "rate": (["rate", "--duration", "4"], None),
    "fig5": (["fig5"], None),
    "fig6": (["fig6", "--duration", "6", "--repeats", "1"], None),
    "ablations": (["ablations", "--duration", "4"], None),
    "resilience": (["resilience", "--duration", "10", "--no-cache"], None),
    "validate": (["validate"], None),
    "campaign": (["campaign", "--vcas", "FaceTime", "Zoom", "--users", "2",
                  "--duration", "4", "--repeats", "1", "--no-cache"],
                 "--csv"),
    "placement": (["placement", "--users", "2000", "--policies",
                   "initiator-nearest,client-nearest", "--k-range", "2",
                   "--site-step", "8", "--no-cache"], "--csv"),
    "gauntlet": (["gauntlet", "--scenarios", "region-outage",
                  "--fleet-sizes", "20", "--gauntlet-duration", "30",
                  "--no-cache"], "--csv"),
    "scenarios-run": (["scenarios", "run", "--count", "3", "--no-cache"],
                      "--csv"),
    "scenarios-generate": (["scenarios", "generate", "--count", "20"],
                           None),
    "reproduce-quick": (["reproduce", "--quick", "--no-cache"], "--output"),
}

#: The cases tier-1 runs (~13 s together); the rest need --golden-all.
TIER1 = ("campaign", "resilience", "placement", "gauntlet", "scenarios-run",
         "scenarios-generate")


def _versions() -> dict:
    major, minor, _ = platform.python_version_tuple()
    return {"python": f"{major}.{minor}", "numpy": np.__version__}


@pytest.fixture(scope="module")
def golden(request):
    """The committed digests; rewritten at teardown under --regen-golden."""
    regen = request.config.getoption("--regen-golden")
    stored = (json.loads(DIGESTS_PATH.read_text())
              if DIGESTS_PATH.exists() else {"digests": {}})
    if not regen:
        pinned = {"python": stored.get("python"),
                  "numpy": stored.get("numpy")}
        if pinned != _versions():
            pytest.skip(f"golden digests are pinned to Python "
                        f"{pinned['python']} + numpy {pinned['numpy']}; "
                        f"this is Python {_versions()['python']} + numpy "
                        f"{_versions()['numpy']}")
    digests = dict(stored.get("digests", {}))
    yield digests
    if regen:
        DIGESTS_PATH.parent.mkdir(parents=True, exist_ok=True)
        DIGESTS_PATH.write_text(json.dumps(
            {**_versions(), "digests": dict(sorted(digests.items()))},
            indent=2) + "\n")


@pytest.mark.parametrize("case", list(CASES))
def test_golden_output(case, golden, request, tmp_path, monkeypatch):
    regen = request.config.getoption("--regen-golden")
    if (case not in TIER1 and not regen
            and not request.config.getoption("--golden-all")):
        pytest.skip("paper subcommand: run with --golden-all")
    argv, output_flag = CASES[case]
    argv = list(argv)
    output = tmp_path / "output"
    if output_flag is not None:
        argv += [output_flag, str(output)]
    # Journals and any cache root land in the test's own directory.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0, stdout.getvalue()
    data = (output.read_bytes() if output_flag is not None
            else stdout.getvalue().encode())
    digest = hashlib.sha256(data).hexdigest()
    if regen:
        golden[case] = digest
        return
    assert case in golden, f"no golden digest for {case!r}: --regen-golden"
    assert digest == golden[case], (
        f"{case} output moved: {' '.join(argv)} -> {digest}")
