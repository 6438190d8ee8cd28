"""Field partitioning among swarm devices, and failure repartitioning.

At time zero the field is divided equally among the drones (section 2.1).
When a device fails, HiveMind repartitions its area among its neighbours
(Fig 10) — implemented here as :func:`repartition_on_failure`, which splits
the failed device's region and grafts the pieces onto the adjacent regions
(devices keep their original area plus a share of the failed one).
"""

from __future__ import annotations

import math
from typing import Dict, List

from .coverage import Region

__all__ = ["partition_field", "repartition_on_failure", "neighbors_of"]


def partition_field(width: float, height: float,
                    n_regions: int) -> List[Region]:
    """Divide a rectangle into ``n_regions`` near-equal-area tiles.

    Uses rows ~ sqrt(n) and spreads the remainder one-extra-tile-per-row,
    so tile areas never differ by more than one part in the row width —
    grossly unequal tiles would hand some devices multiples of the average
    flight time.
    """
    if n_regions <= 0:
        raise ValueError("need at least one region")
    if width <= 0 or height <= 0:
        raise ValueError("field dimensions must be positive")
    rows = max(1, round(math.sqrt(n_regions)))
    base, extra = divmod(n_regions, rows)
    regions: List[Region] = []
    row_height = height / rows
    for row in range(rows):
        in_row = base + (1 if row < extra else 0)
        tile_width = width / in_row
        for col in range(in_row):
            regions.append(Region(
                x0=col * tile_width,
                y0=row * row_height,
                x1=(col + 1) * tile_width,
                y1=(row + 1) * row_height,
            ))
    return regions


def _touches(a: Region, b: Region) -> bool:
    """True when two regions share an edge (not merely a corner)."""
    tolerance = 1e-9
    horizontal_adjacent = (
        (abs(a.x1 - b.x0) < tolerance or abs(b.x1 - a.x0) < tolerance) and
        min(a.y1, b.y1) - max(a.y0, b.y0) > tolerance)
    vertical_adjacent = (
        (abs(a.y1 - b.y0) < tolerance or abs(b.y1 - a.y0) < tolerance) and
        min(a.x1, b.x1) - max(a.x0, b.x0) > tolerance)
    return horizontal_adjacent or vertical_adjacent


def neighbors_of(target: str, regions: Dict[str, Region]) -> List[str]:
    """Devices whose regions share an edge with ``target``'s region."""
    if target not in regions:
        raise KeyError(f"unknown device {target!r}")
    home = regions[target]
    return [device for device, region in regions.items()
            if device != target and _touches(home, region)]


def repartition_on_failure(regions: Dict[str, Region],
                           failed: str) -> Dict[str, List[Region]]:
    """Reassign a failed device's region to its neighbours (Fig 10).

    Returns the new assignment: every surviving device maps to a list of
    regions (its own, plus possibly a slice of the failed region). The
    failed region is cut into equal vertical strips, one per neighbour;
    with no surviving neighbour (single-device swarm edge case) the nearest
    surviving device inherits the whole region.
    """
    if failed not in regions:
        raise KeyError(f"unknown device {failed!r}")
    survivors = {device: [region] for device, region in regions.items()
                 if device != failed}
    if not survivors:
        raise ValueError("cannot repartition: no surviving devices")
    failed_region = regions[failed]
    heirs = [d for d in neighbors_of(failed, regions) if d in survivors]
    if not heirs:
        # Fall back to the survivor whose region center is closest.
        center_x, center_y = failed_region.center
        heirs = [min(survivors, key=lambda d: (
            (regions[d].center[0] - center_x) ** 2 +
            (regions[d].center[1] - center_y) ** 2))]
    strip_width = failed_region.width / len(heirs)
    for index, heir in enumerate(heirs):
        survivors[heir].append(Region(
            x0=failed_region.x0 + index * strip_width,
            y0=failed_region.y0,
            x1=failed_region.x0 + (index + 1) * strip_width,
            y1=failed_region.y1,
        ))
    return survivors
