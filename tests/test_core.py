"""Testbed construction and the study runner."""

import pytest

from repro.core.testbed import default_two_user_testbed, multi_user_testbed
from repro.core.testbed import Testbed as CoreTestbed
from repro.devices.models import MacBook, VisionPro
from repro.geo.regions import city
from repro.vca.profiles import FACETIME
from repro.vca.session import Participant


class TestTestbed:
    def test_default_two_users(self):
        testbed = default_two_user_testbed()
        assert [p.user_id for p in testbed.participants] == ["U1", "U2"]
        assert all(d.supports_spatial_persona for d in testbed.devices)

    def test_u2_device_override(self):
        testbed = default_two_user_testbed(u2_device=MacBook())
        assert not testbed.devices[1].supports_spatial_persona

    def test_session_factory(self):
        session = default_two_user_testbed().session(FACETIME, seed=1)
        assert session.profile is FACETIME

    def test_duplicate_user_ids_rejected(self):
        p = Participant("U1", VisionPro(), city("dallas"))
        with pytest.raises(ValueError):
            CoreTestbed([p, p])

    def test_multi_user_counts(self):
        for n in (2, 3, 5):
            assert len(multi_user_testbed(n).participants) == n

    def test_multi_user_needs_cities(self):
        with pytest.raises(ValueError):
            multi_user_testbed(4, cities=["dallas"])

    def test_too_few_users_rejected(self):
        with pytest.raises(ValueError):
            multi_user_testbed(1)
