"""SVG rendering: structure counts and frozen byte output."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumascore.photometry import BrightnessCurve, CurveChannel
from lumascore.svgplot import HEIGHT, WIDTH, plot_svg


def make_curve(values, rate=1.0):
    return BrightnessCurve(CurveChannel.LUMA, rate, 0.0,
                           np.asarray(values, dtype=np.float64))


class TestStructure:
    def test_constant_curve_no_segments(self):
        svg = plot_svg(make_curve([0.5] * 10)).decode("ascii")
        assert svg.count("<polyline") == 1
        assert svg.count("<line") == 0
        assert svg.count("<text") == 0
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" version="1.1"')
        assert svg.rstrip().endswith("</svg>")

    def test_two_segments_one_boundary_two_labels(self):
        segments = [(0.0, 5.0, "chord_held"), (5.0, 10.0, "chord_resonance")]
        svg = plot_svg(make_curve([0.5] * 10), segments).decode("ascii")
        assert svg.count("<polyline") == 1
        assert svg.count("<line") == 1
        assert svg.count("<text") == 2
        assert "chord_held" in svg and "chord_resonance" in svg

    def test_three_segments_two_boundaries(self):
        segments = [(0.0, 2.0, "a"), (2.0, 5.0, "b"), (5.0, 10.0, "c")]
        svg = plot_svg(make_curve([0.5] * 10), segments).decode("ascii")
        assert svg.count("<line") == 2

    def test_y_axis_inverted(self):
        # bright samples sit near the top (small y), dark near the bottom
        svg = plot_svg(make_curve([0.0, 1.0])).decode("ascii")
        assert "0.00,300.00" in svg  # value 0 at the bottom edge
        assert "600.00,0.00" in svg  # value 1 at the top edge

    def test_deterministic_bytes(self):
        curve = make_curve(np.linspace(0.1, 0.9, 30))
        segments = [(0.0, 15.0, "x"), (15.0, 30.0, "y")]
        assert plot_svg(curve, segments) == plot_svg(curve, segments)


class TestGoldenBytes:
    def test_flat_two_sample_curve(self):
        expected = (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            'width="1200" height="300" viewBox="0 0 1200 300">\n'
            '<polyline fill="none" stroke="#1f4e79" stroke-width="1.5" '
            'points="0.00,150.00 600.00,150.00"/>\n'
            "</svg>\n"
        ).encode("ascii")
        assert plot_svg(make_curve([0.5, 0.5])) == expected

    def test_annotated_curve(self):
        segments = [(0.0, 1.0, "plateau"), (1.0, 2.0, "decay")]
        expected = (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            'width="1200" height="300" viewBox="0 0 1200 300">\n'
            '<polyline fill="none" stroke="#1f4e79" stroke-width="1.5" '
            'points="0.00,300.00 600.00,0.00"/>\n'
            '<line x1="600.00" y1="0" x2="600.00" y2="300" stroke="#888888" '
            'stroke-width="1" stroke-dasharray="4 4"/>\n'
            '<text x="300.00" y="16" text-anchor="middle" font-family="sans-serif" '
            'font-size="12">plateau</text>\n'
            '<text x="900.00" y="16" text-anchor="middle" font-family="sans-serif" '
            'font-size="12">decay</text>\n'
            "</svg>\n"
        ).encode("ascii")
        assert plot_svg(make_curve([0.0, 1.0]), segments) == expected


# The plot as it was when it formatted one point per loop pass: the oracle
# the array version is held to.
def _parent_plot_svg(curve, segments=None):
    duration = curve.duration
    points = []
    for i, v in enumerate(curve.values):
        x = (i / curve.sample_rate) / duration * WIDTH if duration > 0 else 0.0
        y = HEIGHT - float(v) * HEIGHT
        points.append("%.2f,%.2f" % (x, y))
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%d" height="%d" viewBox="0 0 %d %d">' % (WIDTH, HEIGHT, WIDTH, HEIGHT),
        '<polyline fill="none" stroke="#1f4e79" stroke-width="1.5" points="%s"/>'
        % " ".join(points),
    ]
    if segments:
        for start_s, end_s, _ in segments[1:]:
            x = start_s / duration * WIDTH
            parts.append(
                '<line x1="%.2f" y1="0" x2="%.2f" y2="%d" stroke="#888888" '
                'stroke-width="1" stroke-dasharray="4 4"/>' % (x, x, HEIGHT)
            )
        for start_s, end_s, label in segments:
            x = (start_s + end_s) / 2.0 / duration * WIDTH
            parts.append(
                '<text x="%.2f" y="16" text-anchor="middle" font-family="sans-serif" '
                'font-size="12">%s</text>' % (x, label)
            )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("ascii")


# 300 - 0.00035 * 300 rounds to 299.89, (1 - 0.00035) * 300 to 299.90
VALUES = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.00035, 0.995]), st.floats(0.0, 1.0))


class TestAgainstThePointByPointPlot:
    @given(values=st.lists(VALUES, max_size=80),
           rate=st.sampled_from([1.0, 24.0, 24000 / 1001, 1e6]) | st.floats(1e-3, 1e6),
           cuts=st.lists(st.floats(0.0, 1.0), max_size=4))
    @example(values=[], rate=24.0, cuts=[])
    @example(values=[0.0, 1.0], rate=1.0, cuts=[0.5])
    @example(values=[0.00035], rate=24.0, cuts=[])
    # an infinite rate, as a CSV whose times span 5e-324 s gives, has no duration
    @example(values=[0.5, 0.5], rate=math.inf, cuts=[])
    @settings(max_examples=300, deadline=None)
    def test_plot_gives_the_same_bytes(self, values, rate, cuts):
        curve = make_curve(values, rate)
        bounds = [0.0, *sorted(c * curve.duration for c in cuts), curve.duration]
        segments = [(a, b, "s%d" % i) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
        for drawn in (None, segments if curve.duration > 0 else None):
            assert plot_svg(curve, drawn) == _parent_plot_svg(curve, drawn)
