"""Unit tests for Mobile Policy Table lookups after mutation, and inspection.

The table answers lookups from an incremental prefix index.  The
``TestLookupCache`` cases check that no answer goes stale: every kind of
mutation (set, clear, default mode, probe result) shows in the very next
lookup, and default-mode answers keep their ``lookups{miss}`` accounting.
"""

from repro.core.policy import MobilePolicyTable, RoutingMode, policy_tables
from repro.net.addressing import ip, subnet
from repro.obs import format_policy_table
from repro.obs.metrics import MetricsRegistry


def make_table(metrics=None, owner="mh"):
    if metrics is None:
        metrics = MetricsRegistry()
    table = MobilePolicyTable(metrics=metrics, owner=owner)
    table.set_policy(subnet("36.8.0.0/24"), RoutingMode.LOCAL)
    table.set_policy(ip("36.8.0.99"), RoutingMode.TRIANGLE)
    return table


class TestLookupCache:
    def test_cached_default_mode_counts_as_policy_miss(self):
        """Every default-mode answer counts one lookups{miss}."""
        metrics = MetricsRegistry()
        table = make_table(metrics=metrics)
        for _ in range(3):
            assert table.lookup(ip("99.9.9.9")) is RoutingMode.TUNNEL
        assert table.lookup(ip("36.8.0.20")) is RoutingMode.LOCAL
        snap = metrics.snapshot()
        assert snap[
            "policy/lookups{host=mh,mode=tunnel,result=miss}"] == 3
        assert snap["policy/lookups{host=mh,mode=local,result=hit}"] == 1

    def test_set_policy_invalidates(self):
        table = make_table()
        assert table.lookup(ip("36.8.0.20")) is RoutingMode.LOCAL
        table.set_policy(ip("36.8.0.20"), RoutingMode.ENCAP_DIRECT)
        assert table.lookup(ip("36.8.0.20")) is RoutingMode.ENCAP_DIRECT

    def test_clear_policy_invalidates(self):
        table = make_table()
        assert table.lookup(ip("36.8.0.20")) is RoutingMode.LOCAL
        table.clear_policy(subnet("36.8.0.0/24"))
        assert table.lookup(ip("36.8.0.20")) is RoutingMode.TUNNEL

    def test_default_mode_setter_invalidates(self):
        table = make_table()
        assert table.lookup(ip("1.2.3.4")) is RoutingMode.TUNNEL
        table.default_mode = RoutingMode.TRIANGLE
        assert table.lookup(ip("1.2.3.4")) is RoutingMode.TRIANGLE

    def test_probe_fallback_invalidates(self):
        table = make_table()
        assert table.lookup(ip("36.8.0.20")) is RoutingMode.LOCAL
        table.record_probe_result(ip("36.8.0.20"), reachable=False)
        assert table.lookup(ip("36.8.0.20")) is RoutingMode.TUNNEL
        table.record_probe_result(ip("36.8.0.20"), reachable=True)
        assert table.lookup(ip("36.8.0.20")) is RoutingMode.LOCAL


class TestInspection:
    def test_snapshot_sorts_most_specific_first(self):
        snap = make_table().snapshot()
        assert snap["owner"] == "mh"
        assert snap["default_mode"] == "tunnel"
        assert [e["destination"] for e in snap["entries"]] == [
            "36.8.0.99/32", "36.8.0.0/24"]
        assert snap["entries"][0]["mode"] == "triangle"
        assert snap["entries"][0]["origin"] == "static"

    def test_repr_mentions_owner_default_and_entries(self):
        text = repr(make_table())
        assert "owner='mh'" in text
        assert "default=tunnel" in text
        assert "36.8.0.0/24->local(static)" in text

    def test_format_policy_table_renders_snapshot(self):
        report = format_policy_table(make_table().snapshot())
        assert "mh" in report
        assert "default" in report and "tunnel" in report
        assert "36.8.0.99/32" in report and "triangle" in report

    def test_policy_tables_lists_one_registrys_tables_in_build_order(self):
        metrics, other = MetricsRegistry(), MetricsRegistry()
        first = make_table(metrics=metrics, owner="b")
        elsewhere = make_table(metrics=other, owner="a")
        second = make_table(metrics=metrics, owner="a")
        # Another field table, even one naming a policy table, is not one.
        metrics.register(first, (("policy", "probes", (), "probe_fallbacks"),),
                         host="b")
        assert policy_tables(metrics) == [first, second]
        assert policy_tables(other) == [elsewhere]
        assert policy_tables(MetricsRegistry()) == []
