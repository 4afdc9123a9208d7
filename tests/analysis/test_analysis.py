"""Analysis helpers: tables, plots."""

from repro.analysis import line_plot, render_table


class TestRendering:
    def test_table_alignment(self):
        text = render_table(["name", "v"], [["long-name", "1"], ["x", "22"]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # all same width

    def test_table_title(self):
        text = render_table(["a"], [["1"]], title="Table 1")
        assert text.startswith("Table 1")

    def test_line_plot_contains_legend(self):
        plot = line_plot({"scion": [(1, 10.0), (2, 20.0)]}, title="t")
        assert "a = scion" in plot
        assert "t" in plot

    def test_empty_plot(self):
        assert line_plot({}) == "(empty plot)"
