import re

import pytest

from biflag.errors import DomainError
from biflag.presets import smooth_config
from biflag.svgplot import emit_plot
from biflag.sweep import SweepSpec, Table, sweep


def test_two_point_table_single_polyline(tmp_path):
    table = Table(columns=["f_hz", "U_m_s"], rows=[[0.0, 0.0], [1.0, 0.01]])
    path = tmp_path / "plot.svg"
    emit_plot(table, path)
    text = path.read_text()
    polylines = re.findall(r'<polyline[^>]*points="([^"]*)"', text)
    assert len(polylines) == 1
    assert len(polylines[0].split()) == 2


def test_deterministic_bytes(tmp_path):
    table = Table(columns=["x", "y1", "y2"],
                  rows=[[0.0, 1.0, 2.0], [0.5, 1.5, 1.0], [1.0, 0.25, 3.0]])
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_plot(table, p1)
    emit_plot(table, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_table_rejected(tmp_path):
    with pytest.raises(DomainError):
        emit_plot(Table(columns=["x", "y"], rows=[]), tmp_path / "empty.svg")


def test_monotone_sweep_gives_monotone_polyline(tmp_path):
    swept = sweep(smooth_config(),
                  SweepSpec(axis="f_sym", start=0.0, stop=6.0, count=61))
    speed = swept.columns.index("U_m_s")
    table = Table(columns=["f_hz", "U_m_s"],
                  rows=[[row[0], row[speed]] for row in swept.rows])
    path = tmp_path / "sweep.svg"
    emit_plot(table, path)
    match = re.search(r'<polyline[^>]*points="([^"]*)"', path.read_text())
    pixels = [tuple(map(float, pair.split(","))) for pair in match.group(1).split()]
    assert len(pixels) == 61
    # non-decreasing data means non-increasing pixel y (SVG y grows downward)
    ys = [y for _, y in pixels]
    assert all(b <= a for a, b in zip(ys, ys[1:]))


def test_flat_series_has_padded_range(tmp_path):
    table = Table(columns=["x", "y"], rows=[[0.0, 2.0], [1.0, 2.0]])
    path = tmp_path / "flat.svg"
    emit_plot(table, path)
    assert "<polyline" in path.read_text()


def test_axis_labels_come_from_the_table(tmp_path):
    table = Table(columns=["L_m", "U_m_s", "eta"],
                  rows=[[0.1, 0.01, 0.002], [0.2, 0.02, 0.001]])
    path = tmp_path / "labels.svg"
    emit_plot(table, path)
    labels = re.findall(r'font-size="12"[^>]*>([^<]*)</text>',
                        path.read_text())
    assert labels == ["L_m", "outputs"]
