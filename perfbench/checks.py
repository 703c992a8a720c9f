"""Output checks that share no code with the package under test.

The float check recomputes every vertex's disk coordinates from its octuple
with its own value of c (a root of the minimal polynomial found here, not
taken from hypchrom.field) and then compares all vertex pairs against the
edge list.  The coloring check tests a witness against the edge list.
"""

from __future__ import annotations

import math

import numpy as np

# 16c^4 + 8c^3 - 12c^2 - 2c + 1, highest degree first
MIN_POLY_DESC = (16, 8, -12, -2, 1)

# Relative distance |f - F| / F of a pair from the edge value F.  Measured on
# the order-1378 graph: edges within 6.7e-12, non-edges at least 6.6e-4
# away; both thresholds sit two orders of magnitude inside that gap.
EDGE_TOL = 1e-9
NONEDGE_MIN = 1e-5

# 1 - |p|^2 of every vertex, and f between any two distinct vertices, stay
# above this; the smallest values on the order-1378 graph are about 1e-2.
SEPARATION_MIN = 1e-9


def generator() -> float:
    """The root of the minimal polynomial in (1/2, 1), polished by Newton."""
    roots = [r.real for r in np.roots(MIN_POLY_DESC) if abs(r.imag) < 1e-12]
    inside = [r for r in roots if 0.5 < r < 1.0]
    if len(inside) != 1:
        raise ValueError(f"expected one root in (1/2, 1), found {inside}")
    c = inside[0]
    a4, a3, a2, a1, a0 = MIN_POLY_DESC
    for _ in range(3):
        p = (((a4 * c + a3) * c + a2) * c + a1) * c + a0
        dp = ((4 * a4 * c + 3 * a3) * c + 2 * a2) * c + a1
        c -= p / dp
    return c


C = generator()
EDGE_VALUE = (2 * C - 1) / (1 - C)
_R = math.sqrt(2 * C - 1)
_RS = _R * math.sqrt(1 - C * C)


def disk_coords(octuples) -> np.ndarray:
    """(n, 2) float coordinates of octuples [m, n, p, q, u, v, w, z]:
    x = R (m c^3 + n c^2 + p c + q), y = R s (u c^3 + v c^2 + w c + z)."""
    powers = np.array([C**3, C**2, C, 1.0])
    octs = np.array([[float(v) for v in o] for o in octuples], dtype=np.float64)
    if octs.ndim != 2 or octs.shape[1] != 8:
        raise ValueError("octuples must have eight entries each")
    return np.stack([_R * (octs[:, :4] @ powers), _RS * (octs[:, 4:] @ powers)], axis=1)


def float_check(octuples, edges) -> list[str]:
    """Problems found when the edge list is compared with floating-point
    distances over all vertex pairs; empty when the graph passes.

    Every listed edge must have f within EDGE_TOL (relative) of the edge
    value, every other pair must be at least NONEDGE_MIN away from it, all
    vertices must lie strictly inside the disk and be pairwise distinct."""
    xy = disk_coords(octuples)
    n = len(xy)
    problems = []
    k = 1.0 - (xy * xy).sum(axis=1)
    if n and k.min() <= SEPARATION_MIN:
        problems.append(f"vertex {int(k.argmin()) + 1} not strictly inside the disk")
    listed = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            problems.append(f"edge ({i + 1}, {j + 1}) out of range")
            continue
        if listed[i, j]:
            problems.append(f"edge ({i + 1}, {j + 1}) listed twice")
        listed[i, j] = listed[j, i] = True
    iu, ju = np.triu_indices(n, 1)
    d2 = ((xy[iu] - xy[ju]) ** 2).sum(axis=1)
    f = 2.0 * d2 / (k[iu] * k[ju])
    rel = np.abs(f - EDGE_VALUE) / EDGE_VALUE
    is_edge = listed[iu, ju]
    for name, bad in (
        ("listed edge off the edge value", is_edge & (rel > EDGE_TOL)),
        ("unlisted pair at the edge value", ~is_edge & (rel < NONEDGE_MIN)),
        ("coincident vertices", f <= SEPARATION_MIN),
    ):
        for p in np.flatnonzero(bad)[:5]:
            problems.append(f"{name}: ({iu[p] + 1}, {ju[p] + 1}), rel {rel[p]:.3g}")
    return problems


def coloring_check(n: int, edges, coloring, k: int) -> list[str]:
    """Problems of a claimed proper k-coloring of the graph on n vertices
    with the given edge list; empty when it is proper."""
    if coloring is None:
        return ["no coloring"]
    if len(coloring) != n:
        return [f"coloring has {len(coloring)} entries for {n} vertices"]
    problems = [
        f"vertex {v + 1} has color {c!r}"
        for v, c in enumerate(coloring)
        if not (isinstance(c, int) and 0 <= c < k)
    ]
    problems += [
        f"edge ({i + 1}, {j + 1}) is monochromatic"
        for i, j in edges
        if coloring[i] == coloring[j]
    ]
    return problems[:5]
