"""Text-chart helper tests."""


from repro.viz import ascii_line_chart, series_table, sparkline


def test_sparkline_range():
    s = sparkline([0, 1, 2, 3])
    assert len(s) == 4
    assert s[0] == " " and s[-1] == "@"


def test_sparkline_flat_and_empty():
    assert sparkline([]) == ""
    flat = sparkline([5, 5, 5])
    assert len(set(flat)) == 1


def test_ascii_line_chart_shape():
    chart = ascii_line_chart([1, 5, 3, 9], height=4, title="demo")
    lines = chart.splitlines()
    assert lines[0] == "demo"
    assert len(lines) == 1 + 4 + 1  # title + levels + axis
    assert lines[-1].strip().startswith("+")
    # the max point reaches the top level
    assert "#" in lines[1]


def test_ascii_line_chart_empty():
    assert ascii_line_chart([], title="t") == "t"


def test_series_table_alignment():
    table = series_table(
        ["size", "rounds"], [[5, 8], [9, 16], [13, 24]]
    )
    lines = table.splitlines()
    assert len(lines) == 5
    assert lines[0].split() == ["size", "rounds"]
    assert lines[2].split() == ["5", "8"]
    widths = {len(line) for line in lines}
    assert len(widths) == 1  # perfectly aligned


def test_adoption_charts_from_trajectory():
    from repro.core import theorem4_cordalis_dynamo
    from repro.engine import run_synchronous
    from repro.rules import SMPRule

    con = theorem4_cordalis_dynamo(5, 5)
    res = run_synchronous(
        con.topo, con.colors, SMPRule(), target_color=con.k, record=True
    )
    curve = [int((state == con.k).sum()) for state in res.trajectory]
    assert curve[0] == con.seed_size and curve[-1] == con.topo.num_vertices
    assert len(sparkline(curve)) == len(curve)
    chart = ascii_line_chart(curve, height=6)
    assert chart.count("\n") == 6
