"""SVG output: well-formed, deterministic, and geometrically sane."""

import xml.etree.ElementTree as ET

import pytest

from spidereval.svgplot import grouped_bar_plot, line_plot, mean_sd_plot

SVG_NS = "{http://www.w3.org/2000/svg}"

LINE_ARGS = dict(
    series=[
        ("alpha", [(50, 0.13), (100, 0.36), (200, 0.46), (313, 0.50)]),
        ("beta", [(50, 0.24), (100, 0.41), (200, 0.51), (313, 0.56)]),
    ],
    title="score against training size",
    xlabel="training images",
    ylabel="score",
    markers=[(50, 0.14), (313, 0.52)],
)


def _parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


def test_line_plot_is_valid_xml():
    root = _parse(line_plot(**LINE_ARGS))
    assert root.tag == f"{SVG_NS}svg"
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 2
    circles = root.findall(f"{SVG_NS}circle")
    assert len(circles) == 2


def test_line_plot_deterministic():
    assert line_plot(**LINE_ARGS) == line_plot(**LINE_ARGS)


def test_line_plot_legend_and_title_present():
    svg = line_plot(**LINE_ARGS)
    assert "alpha" in svg and "beta" in svg
    assert "score against training size" in svg


def test_coordinates_inside_canvas():
    svg = line_plot(**LINE_ARGS)
    root = _parse(svg)
    for poly in root.findall(f"{SVG_NS}polyline"):
        for pair in poly.attrib["points"].split():
            x, y = map(float, pair.split(","))
            assert 0.0 <= x <= 640.0
            assert 0.0 <= y <= 440.0


def test_coordinates_rounded_to_two_decimals():
    svg = line_plot(**LINE_ARGS)
    root = _parse(svg)
    for poly in root.findall(f"{SVG_NS}polyline"):
        for pair in poly.attrib["points"].split():
            for token in pair.split(","):
                whole, frac = token.split(".")
                assert len(frac) == 2


def test_mean_sd_plot_structure():
    points = [(5, 0.62, 0.04), (10, 0.68, 0.03), (20, 0.72, 0.02)]
    svg = mean_sd_plot(points, "reliability", "raters", "agreement")
    root = _parse(svg)
    assert len(root.findall(f"{SVG_NS}circle")) == 3
    # one whisker per point on top of axis ticks
    lines = root.findall(f"{SVG_NS}line")
    assert len(lines) >= 3
    assert svg == mean_sd_plot(points, "reliability", "raters", "agreement")


def test_mean_sd_whisker_spans_sd():
    points = [(5, 0.5, 0.1), (10, 0.7, 0.1)]
    svg = mean_sd_plot(points, "t", "x", "y")
    root = _parse(svg)
    circles = root.findall(f"{SVG_NS}circle")
    lines = [
        ln for ln in root.findall(f"{SVG_NS}line")
        if ln.attrib.get("x1") == ln.attrib.get("x2")
        and ln.attrib.get("stroke") != "black"
    ]
    assert len(lines) == 2
    for circle, whisker in zip(circles, lines):
        cy = float(circle.attrib["cy"])
        y1, y2 = float(whisker.attrib["y1"]), float(whisker.attrib["y2"])
        assert min(y1, y2) < cy < max(y1, y2)


def test_grouped_bar_plot_structure():
    svg = grouped_bar_plot(
        categories=["smooth", "hairy", "none"],
        pairs=[(0.42, 0.40), (0.40, 0.46), (0.18, 0.14)],
        pair_labels=("share", "frequency"),
        title="error share by category",
        ylabel="fraction",
    )
    root = _parse(svg)
    bars = [r for r in root.findall(f"{SVG_NS}rect") if r.attrib.get("fill") != "white"]
    assert len(bars) == 6
    for bar in bars:
        assert float(bar.attrib["height"]) >= 0.0
    assert "smooth" in svg and "frequency" in svg


def test_grouped_bar_plot_bar_heights_ordered():
    svg = grouped_bar_plot(
        categories=["a", "b"],
        pairs=[(0.2, 0.8), (0.5, 0.5)],
        pair_labels=("x", "y"),
        title="t",
        ylabel="v",
    )
    root = _parse(svg)
    bars = [r for r in root.findall(f"{SVG_NS}rect") if r.attrib.get("fill") != "white"]
    # taller value -> taller rectangle
    assert float(bars[1].attrib["height"]) > float(bars[0].attrib["height"])
    assert float(bars[2].attrib["height"]) == pytest.approx(
        float(bars[3].attrib["height"]), abs=0.02
    )


def test_grouped_bar_plot_rejects_empty():
    with pytest.raises(ValueError):
        grouped_bar_plot([], [], ("a", "b"), "t", "y")


def test_single_point_series_does_not_crash():
    svg = line_plot([("only", [(313, 0.5)])], "t", "x", "y")
    _parse(svg)


def test_constant_series_padded_axes():
    svg = line_plot([("flat", [(1, 5.0), (2, 5.0), (3, 5.0)])], "t", "x", "y")
    root = _parse(svg)
    (poly,) = root.findall(f"{SVG_NS}polyline")
    ys = {pair.split(",")[1] for pair in poly.attrib["points"].split()}
    assert len(ys) == 1  # flat line stays flat after the y-pad


MARKUP = "a & b <c>"


def _texts(svg: str) -> set[str]:
    return {t.text for t in _parse(svg).iter(f"{SVG_NS}text")}


def _labelled_plots(text: str) -> list[tuple[str, range]]:
    """Each plot function with ``text`` numbered into every caller field,
    paired with the labels it should show."""
    line = line_plot([(text + " 1", [(1, 2.0), (2, 3.0)])], text + " 2",
                     text + " 3", text + " 4")
    bars = grouped_bar_plot([text + " 5", "plain"], [(0.2, 0.8), (0.5, 0.5)],
                            (text + " 6", text + " 7"), text + " 8", text + " 9")
    sd = mean_sd_plot([(5, 0.5, 0.1), (10, 0.7, 0.1)], text + " 10", text + " 11",
                      text + " 12")
    return [(line, range(1, 5)), (bars, range(5, 10)), (sd, range(10, 13))]


def test_caller_text_is_escaped_in_every_field():
    for svg, numbers in _labelled_plots(MARKUP):
        assert {MARKUP + f" {k}" for k in numbers} <= _texts(svg)


def test_characters_xml_forbids_become_replacement_characters():
    # C0 controls other than tab, LF and CR, U+FFFE and U+FFFF are not XML 1.0
    text = "a\x00b\x01\x08\x0b\x0c\x0e\x1f\ufffe\uffffc\td"
    shown = "a\ufffdb" + "\ufffd" * 8 + "c\td"
    for svg, numbers in _labelled_plots(text):
        assert {shown + f" {k}" for k in numbers} <= _texts(svg)
