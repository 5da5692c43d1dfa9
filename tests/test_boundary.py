"""Numeric parameters are refused at the public boundary.

Each row of ``BOUNDARY`` is one public callable, a cheap valid call with
the parameter under test left open, the name its ``ValueError`` states,
and the ``repro.checks`` rule it follows.  NaN and ±inf are refused by
every row; hypothesis draws the out-of-range values of each rule (0 and
negatives for ``positive``, negatives for ``non_negative``, values
outside the interval for ``fraction``, numbers below the minimum for
``at_least``) and, where the call is cheap, values it must accept.  The
simulators' ``run`` and the SFU fast path's pool builder fail the test,
so every refusal comes before any event runs or any LZMA pool is built.

The NaN case of each row under "parent bugs" was accepted before the
checks module, or failed deep inside (numpy's ``arange``, the netsim
link), and is its regression test.  The lint at the end keeps the
NaN-blind guard form out of ``src/repro``.
"""

from __future__ import annotations

import ast
import math
import pathlib
import re
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.campaign import Campaign, CampaignCell
from repro.core.dist import WorkerAgent
from repro.core.errors import RetryPolicy
from repro.core.parallel import TaskRunner
from repro.devices.models import VisionPro
from repro.experiments.gauntlet import evaluate_fleet_cell
from repro.experiments.rate_adaptation import measure_at_limit
from repro.faults.reconnect import BackoffPolicy
from repro.faults.resilient import ResilienceConfig
from repro.faults.schedule import FaultEvent, FaultKind
from repro.geo.coords import GeoPoint
from repro.geo.demand import FlashCrowd
from repro.geo.latency import PathModel
from repro.geo.placement import global_candidate_sites, optimize_placement
from repro.geo.policy import LatencyBudget, LoadAware
from repro.keypoints.motion import MotionSynthesizer
from repro.netsim.batch import BatchSimulator
from repro.netsim.capture import window_mbps
from repro.netsim.engine import Simulator
from repro.netsim.network import LinkFault
from repro.netsim.shaper import TrafficShaper
from repro.rendering.camera import head_coverage
from repro.scenario.spec import CrossTrafficSpec, ParticipantSpec, ScenarioSpec
from repro.transport.fec import AdaptiveFecPolicy, FecEncoder
from repro.vca import cohort
from repro.vca.cohort import sfu_cohort_downlink
from repro.vca.jitterbuffer import AdaptiveJitterBuffer, JitterBuffer
from repro.vca.planner import plan_session
from repro.vca.profiles import PROFILES
from repro.vca.qoe import QoeFactors

NON_FINITE = (math.nan, math.inf, -math.inf)


@dataclass(frozen=True)
class Rule:
    """Finite values a rule refuses, and values it accepts."""

    refused: st.SearchStrategy
    accepted: st.SearchStrategy


POSITIVE = Rule(st.floats(max_value=0.0, allow_infinity=False),
                st.floats(min_value=1e-3, max_value=1e3))
NEGATIVE = st.floats(max_value=-math.ulp(0.0), allow_infinity=False)
NON_NEGATIVE = Rule(NEGATIVE, st.floats(min_value=0.0, max_value=1e3))


def at_least(minimum: float) -> Rule:
    if isinstance(minimum, int):
        return Rule(st.integers(max_value=minimum - 1),
                    st.integers(min_value=minimum, max_value=minimum + 3))
    return Rule(st.floats(max_value=minimum, exclude_max=True,
                          allow_infinity=False),
                st.floats(min_value=minimum, max_value=minimum + 1e3))


def fraction(ends: str = "[]") -> Rule:
    outside = NEGATIVE | st.floats(min_value=1.0, exclude_min=True,
                                   allow_infinity=False)
    open_ends = [end for end, is_open in ((0.0, ends[0] == "("),
                                          (1.0, ends[1] == ")")) if is_open]
    refused = outside | st.sampled_from(open_ends) if open_ends else outside
    return Rule(refused, st.floats(min_value=0.0, max_value=1.0,
                                   exclude_min=ends[0] == "(",
                                   exclude_max=ends[1] == ")"))


@dataclass(frozen=True)
class Row:
    """One public callable and the parameter under test."""

    label: str
    call: Callable[[Any], Any]
    name: str
    rule: Rule
    cheap: bool = True  # an accepted value returns quickly


_SPEC = ScenarioSpec(
    name="boundary", profile="Zoom", topology="p2p", duration_s=12.0, seed=0,
    participants=(ParticipantSpec("vision-pro", "san jose"),
                  ParticipantSpec("macbook", "dallas")),
).to_dict()
_PLAN = plan_session(PROFILES["Zoom"], [VisionPro(), VisionPro()])
_EMPTY = np.zeros(0)
_SITES = [GeoPoint(f"s{i}", 0.0, 10.0 * i) for i in range(4)]

BOUNDARY = [
    # --- parent bugs: NaN accepted, or failing deep inside.
    Row("CampaignCell.duration_s",
        lambda v: CampaignCell("Zoom", 2, duration_s=v), "duration_s",
        POSITIVE),
    Row("Campaign.grid.duration_s",
        lambda v: Campaign.grid(["Zoom"], [2], duration_s=v), "duration_s",
        POSITIVE),
    Row("RetryPolicy.backoff_base_s",
        lambda v: RetryPolicy(backoff_base_s=v), "backoff_base_s",
        NON_NEGATIVE),
    Row("BackoffPolicy.base_s", lambda v: BackoffPolicy(base_s=v, cap_s=1e4),
        "base_s", POSITIVE),
    Row("ResilienceConfig.control_interval_s",
        lambda v: ResilienceConfig(control_interval_s=v),
        "control_interval_s", POSITIVE),
    Row("AdaptiveJitterBuffer.initial_delay_ms",
        lambda v: AdaptiveJitterBuffer(initial_delay_ms=v),
        "initial_delay_ms", NON_NEGATIVE),
    Row("BandwidthPlan.fits.headroom",
        lambda v: _PLAN.fits(10.0, 10.0, headroom=v), "headroom",
        fraction("(]")),
    Row("ParticipantSpec.arrives_s",
        lambda v: ParticipantSpec("ipad", "miami", arrives_s=v), "arrives_s",
        NON_NEGATIVE),
    Row("CrossTrafficSpec.rate_mbps",
        lambda v: CrossTrafficSpec("bulk", 0, rate_mbps=v), "rate_mbps",
        POSITIVE),
    Row("ScenarioSpec.from_dict.duration_s",
        lambda v: ScenarioSpec.from_dict({**_SPEC, "duration_s": v}),
        "duration_s", POSITIVE),
    Row("global_candidate_sites.step_deg", global_candidate_sites,
        "step_deg", POSITIVE, cheap=False),
    Row("measure_at_limit.limit_kbps", measure_at_limit, "limit_kbps",
        POSITIVE, cheap=False),
    # --- the rest of the boundary, one row per rule and package.
    Row("CampaignCell.n_users", lambda v: CampaignCell("Zoom", v), "n_users",
        at_least(2)),
    Row("CampaignCell.repeats", lambda v: CampaignCell("Zoom", 2, repeats=v),
        "repeats", at_least(1)),
    Row("RetryPolicy.jitter", lambda v: RetryPolicy(jitter=v), "jitter",
        fraction()),
    Row("RetryPolicy.backoff_factor", lambda v: RetryPolicy(backoff_factor=v),
        "backoff_factor", at_least(1.0)),
    Row("TaskRunner.timeout", lambda v: TaskRunner(jobs=2, timeout=v),
        "timeout", POSITIVE),
    Row("FaultEvent.start_s",
        lambda v: FaultEvent(FaultKind.LINK_BLACKOUT, "U1", v, 1.0),
        "start_s", NON_NEGATIVE),
    Row("FaultEvent.duration_s",
        lambda v: FaultEvent(FaultKind.LINK_BLACKOUT, "U1", 1.0, v),
        "duration_s", POSITIVE),
    Row("evaluate_fleet_cell.tick_s",
        lambda v: evaluate_fleet_cell("none", "initiator-nearest", 5, seed=0,
                                      tick_s=v),
        "tick_s", POSITIVE, cheap=False),
    Row("FlashCrowd.multiplier",
        lambda v: FlashCrowd("north-america-east", 0.0, 1.0, v), "multiplier",
        at_least(1.0)),
    Row("PathModel.jitter_floor_fraction",
        lambda v: PathModel(jitter_floor_fraction=v),
        "jitter_floor_fraction", fraction()),
    Row("optimize_placement.k",
        lambda v: optimize_placement(v, clients=_SITES, sites=_SITES),
        "k", at_least(1)),
    Row("LatencyBudget.budget_ms", LatencyBudget, "budget_ms", POSITIVE),
    Row("LoadAware.capacity_factor", LoadAware, "capacity_factor", POSITIVE),
    Row("MotionSynthesizer.fps", lambda v: MotionSynthesizer(fps=v), "fps",
        POSITIVE),
    Row("window_mbps.window_s", lambda v: window_mbps(_EMPTY, _EMPTY, v, 0.0),
        "window_s", POSITIVE),
    Row("window_mbps.skip_head_s",
        lambda v: window_mbps(_EMPTY, _EMPTY, 1.0, v), "skip_head_s",
        NON_NEGATIVE),
    Row("LinkFault.loss", lambda v: LinkFault(loss=v), "loss", fraction()),
    Row("TrafficShaper.delay_ms", lambda v: TrafficShaper(delay_ms=v),
        "delay_ms", NON_NEGATIVE),
    Row("TrafficShaper.loss", lambda v: TrafficShaper(loss=v), "loss",
        fraction("[)")),
    Row("head_coverage.distance_m", head_coverage, "distance_m", POSITIVE),
    Row("FecEncoder.k", lambda v: FecEncoder(k=v), "k", at_least(2)),
    Row("AdaptiveFecPolicy.enable_at",
        lambda v: AdaptiveFecPolicy(enable_at=v), "enable_at",
        fraction("[)")),
    Row("sfu_cohort_downlink.duration_s", lambda v: sfu_cohort_downlink(2, v),
        "duration_s", POSITIVE, cheap=False),
    Row("JitterBuffer.playout_delay_ms", JitterBuffer, "playout delay",
        NON_NEGATIVE),
    Row("AdaptiveJitterBuffer.gain", lambda v: AdaptiveJitterBuffer(gain=v),
        "gain", fraction("(]")),
    Row("QoeFactors.persona_availability",
        lambda v: QoeFactors(50.0, v, 60.0), "persona_availability",
        fraction()),
    # --- the SFU fast path used to check these after building every pool
    # (pool_library 0 divided by zero), and the worker agent not at all.
    *(Row(f"sfu_cohort_downlink.{name}",
          lambda v, name=name: sfu_cohort_downlink(2, 3.0, **{name: v}),
          name, rule, cheap=False)
      for name, rule in (("pool_library", at_least(1)),
                         ("window_s", POSITIVE),
                         ("skip_head_s", NON_NEGATIVE),
                         ("playout_delay_ms", NON_NEGATIVE),
                         ("seed", at_least(0)))),
    *(Row(f"WorkerAgent.{name}",
          lambda v, name=name: WorkerAgent("unused-store", "w0",
                                           **{name: v}),
          name, rule)
      for name, rule in (("poll_s", POSITIVE),
                         ("heartbeat_interval_s", POSITIVE),
                         ("lease_timeout_s", POSITIVE),
                         ("join_timeout_s", NON_NEGATIVE),
                         ("idle_exit_s", NON_NEGATIVE))),
]
IDS = [row.label for row in BOUNDARY]


@pytest.fixture(scope="module", autouse=True)
def no_simulation():
    """Fail any case that reaches an event loop or builds a pool."""
    def ran(self, until=None):
        raise AssertionError("a simulation ran before the boundary check")

    def built(*args):
        raise AssertionError("a pool was built before the boundary check")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "run", ran)
        patch.setattr(BatchSimulator, "run", ran)
        patch.setattr(cohort, "build_semantic_pool", built)
        yield


def _refused(row: Row, value: float) -> None:
    with pytest.raises(ValueError, match=re.escape(row.name)):
        row.call(value)


@pytest.mark.parametrize("observer", [-1, 3, 99, math.nan])
def test_sfu_observer_refused_before_any_pool(observer):
    with pytest.raises(IndexError, match="out of range for n=3"):
        sfu_cohort_downlink(3, 1.0, observers=[0, observer])


@pytest.mark.parametrize("row", BOUNDARY, ids=IDS)
def test_non_finite_refused(row):
    for value in NON_FINITE:
        _refused(row, value)


@pytest.mark.parametrize("row", BOUNDARY, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_out_of_range_refused(row, data):
    _refused(row, data.draw(row.rule.refused))


@pytest.mark.parametrize("row", [row for row in BOUNDARY if row.cheap],
                         ids=[row.label for row in BOUNDARY if row.cheap])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_in_range_accepted(row, data):
    row.call(data.draw(row.rule.accepted))


# --- the lint -----------------------------------------------------------

_ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _number(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def _nan_blind(test: ast.AST) -> bool:
    """``x <= 0``, ``self.x < 1.0``, or an ``or`` of such: NaN passes."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        return any(_nan_blind(value) for value in test.values)
    if not isinstance(test, ast.Compare):
        return False
    operands = [test.left, *test.comparators]
    return (any(isinstance(op, _ORDER) for op in test.ops)
            and any(isinstance(x, (ast.Name, ast.Attribute))
                    for x in operands)
            and any(_number(x) for x in operands))


def _raises_value_error(body) -> bool:
    for statement in body:
        if isinstance(statement, ast.Raise) and statement.exc is not None:
            exc = statement.exc
            exc = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                return True
    return False


def nan_blind_guards(root: pathlib.Path):
    """``path:line`` of every ``if <NaN-blind test>: raise ValueError``."""
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.If) and _raises_value_error(node.body)
                    and _nan_blind(node.test)):
                yield f"{path.relative_to(root.parent)}:{node.lineno}"


def test_the_lint_sees_the_nan_blind_forms(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(x, y):\n"
        "    if x <= 0:\n        raise ValueError\n"
        "    if y.rate < 1.0 or x < 0:\n        raise ValueError('r')\n"
        "    if not x > 0:\n        raise ValueError\n"
        "    if len(x) < 4:\n        raise ValueError\n")
    assert list(nan_blind_guards(tmp_path)) == [
        f"{tmp_path.name}/m.py:2", f"{tmp_path.name}/m.py:4"]


def test_no_nan_blind_guard_in_the_package():
    root = pathlib.Path(repro.__file__).parent
    assert list(nan_blind_guards(root)) == []
