"""Per-location scalar maps of a channel grid: x,y,value CSV rows and a fixed-ramp SVG."""

import numpy as np

from .channel import ChannelGrid


def _per_location(grid: ChannelGrid, values) -> np.ndarray:
    """``values`` as a float array, refused unless it holds one value per location."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.x.shape:
        raise ValueError(f"need one value per location, got {values.shape}")
    return values


def heatmap_csv(grid: ChannelGrid, values) -> str:
    """Per-location scalar map as x,y,value rows."""
    values = _per_location(grid, values)
    rows = zip(grid.x.tolist(), grid.y.tolist(), values.tolist())
    return "x,y,value\n" + "".join("%.6g,%.6g,%.6g\n" % row for row in rows)


_RAMP = [(13, 8, 135), (126, 3, 168), (204, 71, 120), (248, 149, 64), (240, 249, 33)]
_CELL_PX = 6.0  # side of one heatmap cell, SVG user units


def _ramp_color(t: float) -> str:
    t = min(max(t, 0.0), 1.0) * (len(_RAMP) - 1)
    i = min(int(t), len(_RAMP) - 2)
    f = t - i
    r, g, b = (
        round(_RAMP[i][c] + f * (_RAMP[i + 1][c] - _RAMP[i][c])) for c in range(3)
    )
    return f"#{r:02x}{g:02x}{b:02x}"


def svg_document(width: float, height: float, elements) -> str:
    """An SVG of the given size in user units holding ``elements``, one line each."""
    size = f'width="{width:g}" height="{height:g}" viewBox="0 0 {width:g} {height:g}"'
    return "\n".join([f'<svg xmlns="http://www.w3.org/2000/svg" {size}>', *elements, "</svg>"]) + "\n"


def heatmap_svg(grid: ChannelGrid, values) -> str:
    """Fixed-ramp SVG rendering of a per-location scalar map (no metadata)."""
    values = _per_location(grid, values)
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0
    xs, xi = np.unique(grid.x, return_inverse=True)
    ys, yi = np.unique(grid.y, return_inverse=True)
    cols, rows = (xi * _CELL_PX).tolist(), ((len(ys) - 1 - yi) * _CELL_PX).tolist()
    cells = (
        f'<rect x="{cx:g}" y="{cy:g}" width="{_CELL_PX:g}" height="{_CELL_PX:g}" '
        f'fill="{_ramp_color((v - lo) / span)}"/>'
        for cx, cy, v in zip(cols, rows, values.tolist())
    )
    return svg_document(len(xs) * _CELL_PX, len(ys) * _CELL_PX, cells)
