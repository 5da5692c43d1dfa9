"""Workload inputs generated from the seed, and digests of their outputs.

- ``report-quick`` is ``repro report --quick``: ``generate_report`` on
  ``ReportSettings.quick()`` with jobs 1.  Quick settings pin the report
  seed (the CLI's ``--seed`` does not reach them), so this workload's
  input is the same on every benchmark seed.
- ``calls`` runs one paper-calls scenario per entry of
  :data:`CALL_SHAPES`: the first storm-free spec of
  ``ScenarioGenerator(seed)`` with that provider, party count and fault
  scenario, moved onto the entry's devices and :data:`CALL_DURATION_S`
  (its cities, session seed and fault draws kept); the last one also
  carries :data:`STORM`.
- ``fanout`` runs the first ``len(FANOUTS)`` large-sfu specs of
  ``ScenarioGenerator(seed)`` with their fan-outs set to :data:`FANOUTS`
  and durations to :data:`FANOUT_DURATION_S` (session seeds kept).

The seed changes cities, session seeds and fault draws, not how much
work a batch is: a plain first-N prefix varies several-fold in cost
between seeds (0.5-22 s per call with provider, party count, devices,
storm and duration; fan-outs 8-48), which would swing every batch wall.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, List, Sequence, Tuple

from repro.report import ReportSettings
from repro.scenario import DISTRIBUTIONS, ScenarioGenerator, ScenarioSpec
from repro.scenario.spec import DEVICES, CrossTrafficSpec
from repro.vca.profiles import PROFILES

#: (provider, devices, fault scenario) of each call in the calls batch;
#: the last call also carries a storm (see :func:`with_storm`).
CALL_SHAPES: Tuple[Tuple[str, Tuple[str, ...], str], ...] = (
    ("Webex", ("vision-pro", "macbook", "iphone"), "standard"),
    ("Teams", ("vision-pro", "ipad", "macbook"), "none"),
    ("Zoom", ("vision-pro", "macbook", "iphone", "ipad"), "standard"),
    ("FaceTime", ("vision-pro", "vision-pro"), "none"),
    ("Webex", ("vision-pro", "macbook"), "none"),
)
CALL_DURATION_S = 16.0
#: The storm: a bulk flow on the second participant from a quarter of the
#: call to its end.  The generator's storms (bulk or burst, 20-120 Mbps,
#: windowed or whole-call) cost from a half to four times the rest of
#: their call.  A bulk flow's cost barely moves with the seed (+-0.3% in
#: batch events over seeds 0-5), where an 80 Mbps burst's moved +-13%
#: and set most of the batch's spread between seeds.
STORM = {"kind": "bulk", "source": 1, "rate_mbps": 30.0,
         "start_s": CALL_DURATION_S / 4}

#: Fan-outs of the fanout batch, one scenario each.
FANOUTS: Tuple[int, ...] = (10, 16, 22, 28, 34, 40, 46)
FANOUT_DURATION_S = 8.0

#: Generator indices searched before a shape counts as unreachable.
SEARCH_LIMIT = 20000

#: Report section that only records how the sweeps executed; it differs
#: between a cold and a cache-warm pass by design.
MANIFEST_HEADING = "\n## Run manifest"


def reshape(spec: ScenarioSpec, devices: Sequence[str]) -> ScenarioSpec:
    """``spec`` on ``devices`` for :data:`CALL_DURATION_S` (cities kept)."""
    participants = tuple(dataclasses.replace(p, device=d)
                         for p, d in zip(spec.participants, devices))
    p2p = PROFILES[spec.profile].uses_p2p([DEVICES[d]() for d in devices])
    return dataclasses.replace(spec, participants=participants,
                               topology="p2p" if p2p else "sfu",
                               duration_s=CALL_DURATION_S)


def with_storm(spec: ScenarioSpec) -> ScenarioSpec:
    """``spec`` plus the :data:`STORM` flow."""
    return dataclasses.replace(spec, name=f"{spec.name}-storm",
                               cross_traffic=(CrossTrafficSpec(**STORM),))


def call_specs(seed: int) -> List[ScenarioSpec]:
    """The calls batch of one seed (see the module docstring)."""
    generator = ScenarioGenerator(seed, DISTRIBUTIONS["paper-calls"])
    chosen: Dict[int, ScenarioSpec] = {}
    for index in range(SEARCH_LIMIT):
        spec = generator.generate(index)
        for slot, (profile, devices, fault) in enumerate(CALL_SHAPES):
            if (slot not in chosen and spec.profile == profile
                    and len(spec.participants) == len(devices)
                    and spec.faults.scenario == fault
                    and not spec.cross_traffic):
                chosen[slot] = reshape(spec, devices)
                break
        if len(chosen) == len(CALL_SHAPES):
            calls = [chosen[slot] for slot in range(len(CALL_SHAPES))]
            return calls[:-1] + [with_storm(calls[-1])]
    raise RuntimeError(f"seed {seed}: no paper-calls spec for every shape "
                       f"in the first {SEARCH_LIMIT} indices")


def fanout_specs(seed: int) -> List[ScenarioSpec]:
    """The fanout batch of one seed."""
    generator = ScenarioGenerator(seed, DISTRIBUTIONS["large-sfu"])
    return [dataclasses.replace(spec, fanout=fanout,
                                duration_s=FANOUT_DURATION_S)
            for spec, fanout in zip(generator.batch(len(FANOUTS)), FANOUTS)]


def specs_for(workload: str, seed: int) -> List[ScenarioSpec]:
    if workload == "calls":
        return call_specs(seed)
    if workload == "fanout":
        return fanout_specs(seed)
    raise ValueError(f"{workload!r} is not a scenario workload")


def report_settings(**sweep: Any) -> ReportSettings:
    """``repro report --quick`` settings with the run's cache/manifest."""
    return dataclasses.replace(ReportSettings.quick(), jobs=1, **sweep)


def report_body(markdown: str) -> str:
    """The report without its execution-audit section."""
    return markdown.split(MANIFEST_HEADING, 1)[0]


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_records(records: Sequence[Dict[str, Any]]) -> str:
    """sha256 of the batch records in canonical JSON."""
    return digest_text(json.dumps(list(records), sort_keys=True,
                                  separators=(",", ":")))
