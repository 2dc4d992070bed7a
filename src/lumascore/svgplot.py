"""Deterministic SVG rendering of a curve with optional segment annotation."""

from __future__ import annotations

import numpy as np

from .photometry import BrightnessCurve

WIDTH = 1200.0
HEIGHT = 300.0


def plot_svg(
    curve: BrightnessCurve,
    segments: list[tuple[float, float, str]] | None = None,
) -> bytes:
    """Render the curve as a polyline on a 1200 x 300 canvas.

    ``segments`` holds (start_s, end_s, label) triples; interior boundaries
    become dashed vertical lines and each label is centered in its span.
    All coordinates are fixed to two decimals so the bytes are stable.
    """
    duration = curve.duration
    x = np.arange(len(curve.values)) / curve.sample_rate / duration * WIDTH
    points = ["%.2f,%.2f" % point for point in zip(x, HEIGHT - curve.values * HEIGHT)]
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
