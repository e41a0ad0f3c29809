"""Golden charts for `svgplot.convergence_svg`.

A report's charts share one checkpoint grid, positive values and counts
from 1, so the grid digests in test_digests.py never reach some of the
chart's edges. These charts do: values at or below 0 (drawn at the 1e-300
log floor), series whose evaluation counts differ, a one-point series, a
flat series (the value axis widened to one decade) and counts below 1 (the
evaluation axis held at 1). The chart is built from Python floats alone,
so one digest per chart holds on every arithmetic profile.
"""

import hashlib

import pytest

from mcdopt.svgplot import convergence_svg

# name -> (title, series, SHA-256 of the SVG text)
CHARTS = {
    "floor_and_unshared_counts": ("floor (dim 4)", [
        ("mcd", "#1f77b4", [(1.0, 3.5e4), (20.0, 12.0), (60.0, 0.0), (120.0, -2.0)]),
        ("de", "#d62728", [(1.0, 3.5e4), (30.0, 8.25), (60.0, 1e-7), (90.0, 4e-12),
                           (120.0, 1e-300)]),
        ("cc", "#2ca02c", [(45.0, 7.0)]),
    ], "8d5194b3bc8ac1daa3b306ffd63c725bcdde67366d6f6ed1b419dc555ed3264b"),
    "flat_below_one": ("flat (dim 2)", [
        ("mcd", "#1f77b4", [(0.0, 1.0), (0.25, 1.0), (0.5, 1.0)]),
        ("de", "#d62728", [(0.5, 1.0)]),
    ], "5a30a0817ed975dfe0c9e2b2ccd0a852beb1bfd4fb7f804114f727be4782431c"),
    "one_point": ("one point (dim 1)", [
        ("cc", "#2ca02c", [(1.0, 5e-3)]),
    ], "40ca945fc2d576d669cca07abaf35db858587756ec7aa3fd276ed3b7275ffcf0"),
    "flat_at_floor": ("zero (dim 3)", [
        ("de", "#d62728", [(0.0, 0.0), (0.75, -0.0)]),
    ], "c661bb52f68ecb169f6ce32c7cfde0a32eae00960bb58efbe496099a8524119a"),
}


@pytest.mark.parametrize("name", CHARTS)
def test_chart_bytes_are_frozen(name):
    title, series, digest = CHARTS[name]
    svg = convergence_svg(title, series)
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
    assert svg.count("<polyline ") == len(series)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


def test_values_at_or_below_zero_sit_on_the_floor():
    title, series, _ = CHARTS["flat_at_floor"]
    svg = convergence_svg(title, series)
    # one decade from the floor, every point on its lower edge
    assert ">1e-300</text>" in svg and ">1e-299</text>" in svg
    assert 'points="72.00,364.00 480.00,364.00"' in svg


def test_counts_below_one_keep_the_axis_at_one():
    title, series, _ = CHARTS["flat_below_one"]
    svg = convergence_svg(title, series)
    assert 'text-anchor="middle">1</text>' in svg
    assert 'points="344.00,' in svg  # the count 0.5 at half the axis
