"""Static SVG rendering of permutation plots and hook configurations.

One document per configuration: the plot on an n-by-n grid with a 40 pixel
pitch, each hook drawn as a vertical-then-horizontal polyline, point fills
matching the induced coloring (sky points blue, hook colors from a fixed
palette in hook order) and northeast endpoints left hollow.
"""
from __future__ import annotations

from typing import Sequence

from .errors import UnsortedPermutationError
from .hooks import HookConfig, point_colors

PITCH = 40
POINT_RADIUS = 6
SKY_COLOR = "#1f77b4"
HOOK_PALETTE = (
    "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22",
)


def hook_color(ordinal: int) -> str:
    return HOOK_PALETTE[(ordinal - 1) % len(HOOK_PALETTE)]


def _xy(n: int, col: int, val: int) -> tuple[int, int]:
    # SVG y grows downward; plot values grow upward.
    return PITCH * col, PITCH * (n + 1 - val)


def _document(p: Sequence[int], config: HookConfig) -> str:
    n = len(p)
    side = PITCH * (n + 1)
    legend_y = side + 18
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{side}" height="{side + 40}" '
        f'viewBox="0 0 {side} {side + 40}">',
        f'<rect width="{side}" height="{side + 40}" fill="white"/>',
    ]
    for t in range(1, n + 1):
        parts.append(f'<line x1="{PITCH * t}" y1="{PITCH}" x2="{PITCH * t}" '
                     f'y2="{PITCH * n}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<line x1="{PITCH}" y1="{PITCH * t}" x2="{PITCH * n}" '
                     f'y2="{PITCH * t}" stroke="#dddddd" stroke-width="1"/>')
    for t, hook in enumerate(config, start=1):
        x1, y1 = _xy(n, hook.sw, p[hook.sw - 1])
        x2, y2 = _xy(n, hook.ne, p[hook.ne - 1])
        parts.append(f'<polyline points="{x1},{y1} {x1},{y2} {x2},{y2}" fill="none" '
                     f'stroke="{hook_color(t)}" stroke-width="3"/>')
    colors = point_colors(p, config)
    for col in range(1, n + 1):
        x, y = _xy(n, col, p[col - 1])
        c = colors[col - 1]
        if c < 0:
            fill, stroke = "white", 'stroke="#333333" stroke-width="2"'
        else:
            fill = SKY_COLOR if c == 0 else hook_color(c)
            stroke = 'stroke="#333333" stroke-width="1"'
        parts.append(f'<circle cx="{x}" cy="{y}" r="{POINT_RADIUS}" fill="{fill}" {stroke}/>')
    x = PITCH
    for label, fill in [("sky", SKY_COLOR)] + [
            (f"hook {t}", hook_color(t)) for t in range(1, len(config) + 1)]:
        parts.append(f'<circle cx="{x}" cy="{legend_y}" r="5" fill="{fill}"/>')
        parts.append(f'<text x="{x + 10}" y="{legend_y + 4}" font-size="12" '
                     f'font-family="sans-serif">{label}</text>')
        x += 70
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_svg(p: Sequence[int], configs: Sequence[HookConfig]) -> list[str]:
    """One SVG document per configuration in ``configs``, which must come
    from :func:`~stacksort.hooks.iter_vhc` for ``p``.

    An unsorted word has no configuration, and an empty ``configs`` cannot
    be rendered.
    """
    if not configs:
        raise UnsortedPermutationError("no hook configuration to render")
    return [_document(p, config) for config in configs]
