"""Unit tests for the experiment harness utilities."""

import pytest

from repro.experiments.harness import (
    format_histogram,
    format_table,
    histogram,
)
from repro.sim import ms
from repro.stats import Stats, Welford, merge_stats, summarize, summarize_ms
from repro.workloads.udp_echo import switch_phase


class TestSummarize:
    def test_empty_input(self):
        stats = summarize([])
        assert stats.count == 0
        assert stats.mean == 0.0 and stats.std == 0.0

    def test_single_value_has_zero_std(self):
        stats = summarize([7.0])
        assert stats.mean == 7.0
        assert stats.std == 0.0
        assert stats.minimum == stats.maximum == 7.0

    def test_known_distribution(self):
        stats = summarize([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.mean == pytest.approx(5.0)
        # Sample std of this classic example is ~2.138.
        assert stats.std == pytest.approx(2.138, abs=0.01)
        assert stats.minimum == 2.0 and stats.maximum == 9.0

    def test_summarize_ms_converts_nanoseconds(self):
        stats = summarize_ms([ms(5), ms(7)])
        assert stats.mean == pytest.approx(6.0)

    def test_format_ms_is_paper_style(self):
        stats = Stats(count=10, mean=7.392, std=0.181, minimum=7.0,
                      maximum=7.8)
        assert stats.format_ms() == "7.39 (0.18)"


class TestWelford:
    def test_matches_two_pass_formula(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        stats = Welford().add_many(values).finalize()
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert stats.mean == pytest.approx(mean)
        assert stats.std == pytest.approx(variance ** 0.5)
        assert stats.minimum == 2.0 and stats.maximum == 9.0

    def test_empty_finalizes_to_zero_stats(self):
        stats = Welford().finalize()
        assert stats == Stats(count=0, mean=0.0, std=0.0,
                              minimum=0.0, maximum=0.0)

    def test_merge_equals_single_accumulator(self):
        left_values = [1.0, 2.0, 3.5, 10.0]
        right_values = [-4.0, 7.25, 0.5]
        merged = Welford().add_many(left_values).merge(
            Welford().add_many(right_values)).finalize()
        combined = Welford().add_many(left_values + right_values).finalize()
        assert merged.count == combined.count
        assert merged.mean == pytest.approx(combined.mean)
        assert merged.std == pytest.approx(combined.std)
        assert merged.minimum == combined.minimum
        assert merged.maximum == combined.maximum

    def test_merge_with_empty_sides(self):
        values = [3.0, 4.0]
        assert Welford().merge(
            Welford().add_many(values)).finalize().count == 2
        assert Welford().add_many(values).merge(
            Welford()).finalize().count == 2

    def test_merge_stats_recovers_partial(self):
        shard = summarize([5.0, 6.0, 9.0])
        merged = Welford().add_many([1.0, 2.0]).merge_stats(shard).finalize()
        direct = summarize([1.0, 2.0, 5.0, 6.0, 9.0])
        assert merged.mean == pytest.approx(direct.mean)
        assert merged.std == pytest.approx(direct.std)
        assert merged.count == 5


class TestMergeStats:
    def test_merges_shard_summaries(self):
        shards = [[2.0, 4.0, 4.0], [4.0, 5.0], [5.0, 7.0, 9.0]]
        merged = merge_stats([summarize(shard) for shard in shards])
        direct = summarize([v for shard in shards for v in shard])
        assert merged.count == direct.count == 8
        assert merged.mean == pytest.approx(direct.mean)
        assert merged.std == pytest.approx(direct.std)
        assert merged.minimum == direct.minimum
        assert merged.maximum == direct.maximum

    def test_single_part_is_returned_unchanged(self):
        part = summarize([1.5, 2.5, 8.0])
        assert merge_stats([part]) is part

    def test_empty_parts_are_skipped(self):
        part = summarize([3.0])
        assert merge_stats([summarize([]), part, summarize([])]) is part
        assert merge_stats([]).count == 0


class TestHistogram:
    def test_counts_occurrences_sorted(self):
        assert histogram([1, 0, 1, 4, 0, 0]) == {0: 3, 1: 2, 4: 1}

    def test_format_histogram_bars(self):
        text = format_histogram({0: 3, 1: 1})
        assert "0 packets lost: ### (3)" in text
        assert "1 packets lost: # (1)" in text

    def test_format_empty_histogram(self):
        assert format_histogram({}) == "(no data)"


class TestFormatTable:
    def test_columns_align(self):
        text = format_table(("name", "value"),
                            [("short", 1), ("a-much-longer-name", 22)])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        header, rule = lines[0], lines[1]
        assert header.startswith("name")
        assert set(rule) <= {"-", " "}
        # Every "value" column starts at the same offset.
        offset = header.index("value")
        assert lines[2][offset - 1] == " "

    def test_handles_non_string_cells(self):
        text = format_table(("a",), [(3.14,), (None,)])
        assert "3.14" in text and "None" in text


class TestSpreadPhases:
    """:func:`switch_phase` spreads trials' switches across one interval."""

    def test_phases_cover_one_interval_uniformly(self):
        phases = [switch_phase(index, 10, ms(10)) for index in range(10)]
        assert phases[0] == 0
        assert phases[-1] == 9 * ms(10) // 10
        deltas = [b - a for a, b in zip(phases, phases[1:])]
        assert all(delta == ms(1) for delta in deltas)

    def test_single_iteration(self):
        assert switch_phase(0, 1, ms(10)) == 0
