"""Single-vertex tropical discs and curves for product fans.

A disc is a half-line from a vertex in a ray direction; a curve is a
multiset of such half-lines from one vertex whose directions sum to zero.
For product fans, fixing the vertex and marking one factor's rays forces the
whole edge set, so the associated count is 1 whenever the forced edge set
balances and 0 otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import IndexOutOfRange, NotAProduct, ToricMirrorError


class VertexMismatch(ToricMirrorError):
    """Discs glued into a curve must share their vertex."""


class Unbalanced(ToricMirrorError):
    """Edge directions of a curve must sum to zero."""


@dataclass(frozen=True)
class TropicalDisc:
    vertex: tuple
    direction: tuple


@dataclass(frozen=True)
class TropicalCurve:
    vertex: tuple
    edges: tuple  # multiset of ray directions, kept sorted


def make_disc(data, vertex, direction):
    """Disc with the given vertex whose direction is one of the rays."""
    direction = tuple(int(c) for c in direction)
    if direction not in data.rays:
        raise ToricMirrorError(f"direction {direction} is not a ray of the fan")
    return TropicalDisc(vertex=tuple(Fraction(x) for x in vertex), direction=direction)


def glue_discs(discs):
    """Assemble discs sharing a vertex into a balanced curve."""
    discs = list(discs)
    if not discs:
        raise Unbalanced("cannot glue zero discs")
    vertex = discs[0].vertex
    if any(disc.vertex != vertex for disc in discs):
        raise VertexMismatch("discs do not share a vertex")
    directions = sorted(disc.direction for disc in discs)
    total = tuple(sum(v[j] for v in directions) for j in range(len(vertex)))
    if any(total):
        raise Unbalanced(f"directions sum to {total}, not zero")
    return TropicalCurve(vertex=vertex, edges=tuple(directions))


def curve_degree(curve, data):
    """Multiplicity vector of the curve's edges over the rays.

    The result lies in the kernel of the ray map by the balancing condition.
    """
    counts = [0] * data.d
    index = {ray: i for i, ray in enumerate(data.rays)}
    for edge in curve.edges:
        if edge not in index:
            raise ToricMirrorError(f"edge direction {edge} is not a ray")
        counts[index[edge]] += 1
    return tuple(counts)


def count_tgw(data, factorization, a, xi):
    """Count of single-vertex marked curves through xi for factor a.

    The markings force the edge directions to be exactly the factor's rays,
    so the enumeration reduces to a balancing check at the pinned vertex:
    the count is 1 when the forced edges balance, else 0.
    """
    try:
        factor_curve(data, factorization, a, xi)
    except Unbalanced:
        return 0
    return 1


def factor_curve(data, factorization, a, xi):
    """The unique marked curve counted by count_tgw, when it exists."""
    if factorization is None:
        raise NotAProduct("fan is not a product of projective-space fans")
    if not 0 <= a < len(factorization.factors):
        raise IndexOutOfRange(f"no factor with index {a}")
    block = factorization.factors[a]
    xi = tuple(Fraction(x) for x in xi)
    return glue_discs(
        [TropicalDisc(vertex=xi, direction=data.rays[i]) for i in block.ray_indices]
    )


def log_map(w):
    """Componentwise log of absolute values, mapping a torus point to a vertex."""
    return tuple(math.log(abs(complex(c))) for c in w)


def scene_svg(curves, size=360, reach=4.0):
    """Simple SVG scene for planar curves: vertices and ray half-lines."""
    half = size / 2

    def proj(point, direction=None, scale=0.0):
        x = float(point[0]) + scale * (direction[0] if direction else 0)
        y = float(point[1]) + scale * (direction[1] if direction else 0)
        return half + x * half / reach, half - y * half / reach

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for curve in curves:
        if len(curve.vertex) != 2:
            raise ToricMirrorError("SVG scenes are drawn for planar curves only")
        cx, cy = proj(curve.vertex)
        for edge in curve.edges:
            norm = math.hypot(edge[0], edge[1])
            ex, ey = proj(curve.vertex, edge, 2.0 * reach / norm)
            parts.append(
                f'<line x1="{cx:.2f}" y1="{cy:.2f}" x2="{ex:.2f}" y2="{ey:.2f}" '
                f'stroke="black" stroke-width="1.5"/>'
            )
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts)
