"""Shared fixtures: expensive artifacts built once per test session."""

from __future__ import annotations

import pytest

from repro.keypoints.motion import capture_session
from repro.mesh.generate import head_mesh, persona_mesh


def pytest_addoption(parser):
    group = parser.getgroup("golden", "golden output digests")
    group.addoption("--golden-all", action="store_true",
                    help="also check the paper subcommands' golden digests "
                         "(tier-1 checks the sweep subcommands only)")
    group.addoption("--regen-golden", action="store_true",
                    help="run every golden case and rewrite "
                         "tests/golden/digests.json and help.json")


@pytest.fixture(scope="session")
def persona():
    """The 78,030-triangle spatial persona mesh."""
    return persona_mesh(seed=0)


@pytest.fixture(scope="session")
def small_head():
    """A small head mesh for cheap geometry tests."""
    return head_mesh(2000, seed=1)


@pytest.fixture(scope="session")
def motion_frames():
    """100 frames of synthetic keypoint motion."""
    return capture_session(100, fps=90, seed=3)
