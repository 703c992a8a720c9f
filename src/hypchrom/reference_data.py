"""Pinned data reproducing the published vertex selection.

The growth rule (module form, enough neighbors at the target distance)
admits a handful of candidates that the published construction omits; the
omission is not derivable from any stated criterion, so the points are
pinned here explicitly.  Each entry is the octuple of an excluded point
together with the phase and source pair where it first arises.  The
pipeline reports every time one of them is dropped; running with an empty
exclusion set gives the unfiltered rule instead.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import ModulePoint

# (first phase, 1-based source pair, octuple numerators, common denominator)
_EXCLUDED = (
    (1, (2, 6), (-16, -6, 10, 2, 16, 0, -6, 0), 1),
    (1, (2, 9), (-204, -92, 173, 48, 368, 420, -120, -147), 79),
    (1, (6, 8), (-180, -202, 148, 126, -176, -36, 78, 60), 79),
    (4, (4, 20), (-252, -30, 223, 50, 512, 76, -270, 5), 79),
    (4, (7, 14), (-824, -384, 674, 87, 272, 544, -20, -64), 158),
)


def reference_exclusion_table():
    """Human-readable rows: (phase, source pair, point)."""
    return [
        (phase, pair, ModulePoint.from_octuple([Fraction(v, den) for v in nums]))
        for phase, pair, nums, den in _EXCLUDED
    ]


def reference_excluded_points() -> frozenset:
    """The points of reference_exclusion_table."""
    return frozenset(point for _phase, _pair, point in reference_exclusion_table())
