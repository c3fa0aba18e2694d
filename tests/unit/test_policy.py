"""Unit tests for the Mobile Policy Table and routing modes."""

from repro.core.policy import MobilePolicyTable, RoutingMode
from repro.net.addressing import ip, subnet
from repro.obs.metrics import MetricsRegistry


class TestModes:
    def test_mode_properties_match_the_papers_table(self):
        # (mode, uses home source, encapsulates, via HA, preserves mobility)
        expectations = [
            (RoutingMode.TUNNEL, True, True, True, True),
            (RoutingMode.TRIANGLE, True, False, False, True),
            (RoutingMode.ENCAP_DIRECT, True, True, False, True),
            (RoutingMode.LOCAL, False, False, False, False),
        ]
        for mode, home_src, encap, via_ha, mobile in expectations:
            assert mode.uses_home_source is home_src
            assert mode.encapsulates is encap
            assert mode.via_home_agent is via_ha
            assert mode.preserves_mobility is mobile


class TestTable:
    def test_default_mode_applies_without_entries(self):
        table = MobilePolicyTable(metrics=MetricsRegistry())
        assert table.lookup(ip("1.2.3.4")) is RoutingMode.TUNNEL

    def test_host_entry_overrides_default(self):
        table = MobilePolicyTable(metrics=MetricsRegistry())
        table.set_policy(ip("36.8.0.20"), RoutingMode.TRIANGLE)
        assert table.lookup(ip("36.8.0.20")) is RoutingMode.TRIANGLE
        assert table.lookup(ip("36.8.0.21")) is RoutingMode.TUNNEL

    def test_longest_prefix_wins(self):
        table = MobilePolicyTable(metrics=MetricsRegistry())
        table.set_policy(subnet("36.0.0.0/8"), RoutingMode.TRIANGLE)
        table.set_policy(subnet("36.8.0.0/24"), RoutingMode.LOCAL)
        table.set_policy(ip("36.8.0.20"), RoutingMode.ENCAP_DIRECT)
        assert table.lookup(ip("36.8.0.20")) is RoutingMode.ENCAP_DIRECT
        assert table.lookup(ip("36.8.0.99")) is RoutingMode.LOCAL
        assert table.lookup(ip("36.9.0.1")) is RoutingMode.TRIANGLE

    def test_set_policy_replaces_same_prefix(self):
        table = MobilePolicyTable(metrics=MetricsRegistry())
        table.set_policy(ip("36.8.0.20"), RoutingMode.TRIANGLE)
        table.set_policy(ip("36.8.0.20"), RoutingMode.LOCAL)
        assert len(table) == 1
        assert table.lookup(ip("36.8.0.20")) is RoutingMode.LOCAL

    def test_clear_policy(self):
        table = MobilePolicyTable(metrics=MetricsRegistry())
        table.set_policy(ip("36.8.0.20"), RoutingMode.TRIANGLE)
        table.clear_policy(ip("36.8.0.20"))
        assert table.lookup(ip("36.8.0.20")) is table.default_mode


class TestProbeFallback:
    def test_failed_probe_caches_tunnel(self):
        table = MobilePolicyTable(metrics=MetricsRegistry())
        table.default_mode = RoutingMode.TRIANGLE
        table.record_probe_result(ip("36.8.0.20"), reachable=False)
        assert table.lookup(ip("36.8.0.20")) is RoutingMode.TUNNEL
        entry = table.lookup_entry(ip("36.8.0.20"))
        assert entry is not None and entry.origin == "probe"

    def test_successful_probe_clears_dynamic_fallback(self):
        table = MobilePolicyTable(metrics=MetricsRegistry())
        table.default_mode = RoutingMode.TRIANGLE
        table.record_probe_result(ip("36.8.0.20"), reachable=False)
        table.record_probe_result(ip("36.8.0.20"), reachable=True)
        assert table.lookup(ip("36.8.0.20")) is RoutingMode.TRIANGLE

    def test_successful_probe_keeps_static_entries(self):
        table = MobilePolicyTable(metrics=MetricsRegistry())
        table.default_mode = RoutingMode.TRIANGLE
        table.set_policy(ip("36.8.0.20"), RoutingMode.TUNNEL)  # operator's
        table.record_probe_result(ip("36.8.0.20"), reachable=True)
        assert table.lookup(ip("36.8.0.20")) is RoutingMode.TUNNEL

    def test_repeated_failures_are_idempotent(self):
        table = MobilePolicyTable(metrics=MetricsRegistry())
        table.default_mode = RoutingMode.TRIANGLE
        for _ in range(3):
            table.record_probe_result(ip("36.8.0.20"), reachable=False)
        assert len(table) == 1


def test_describe_lists_entries():
    table = MobilePolicyTable(metrics=MetricsRegistry())
    table.default_mode = RoutingMode.TUNNEL
    table.set_policy(subnet("36.8.0.0/24"), RoutingMode.TRIANGLE)
    text = table.describe()
    assert "default: tunnel" in text
    assert "36.8.0.0/24 -> triangle" in text
