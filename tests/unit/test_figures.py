"""Unit tests for the ASCII figure renderers."""

from repro.experiments import run_experiment
from repro.experiments.figures import (
    render_figure6,
    render_figure7,
    render_histogram,
)


class TestRenderHistogram:
    def test_empty(self):
        assert render_histogram({}) == "(no data)"

    def test_bar_heights_match_counts(self):
        text = render_histogram({0: 3, 2: 1})
        lines = text.splitlines()
        columns = [line for line in lines if "|" in line]
        # The value-0 column has more filled cells than the value-2 column.
        zero_hits = sum(1 for line in columns if line.split("|", 1)[1][:3].strip() == "#")
        two_hits = sum(1 for line in columns
                       if len(line.split("|", 1)[1]) >= 9
                       and line.split("|", 1)[1][6:9].strip() == "#")
        assert zero_hits == 3
        assert two_hits == 1

    def test_axis_labels(self):
        text = render_histogram({0: 1, 1: 2}, x_label="losses")
        assert "losses" in text
        assert " 0 " in text and " 1 " in text


def test_figure6_renders_all_cases():
    report = run_experiment("f6", seed=19, iterations=2)
    text = render_figure6(report)
    for fragment in ("cold ethernet->radio", "cold radio->ethernet",
                     "hot ethernet->radio", "hot radio->ethernet"):
        assert fragment in text
    assert "packets lost" in text


def test_figure7_bars_are_proportional():
    report = run_experiment("f7", seed=20, iterations=3)
    text = render_figure7(report)
    lines = {line.strip().split("|")[0].strip(): line
             for line in text.splitlines() if "|" in line}
    reg_bar = lines["registration req->reply"].count("#")
    route_bar = lines["change route table"].count("#")
    assert reg_bar > route_bar * 4  # 4.8 ms vs 0.6 ms
    assert "total" in text
