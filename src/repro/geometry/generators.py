"""Generators for the structures used in the paper's evaluation.

* :func:`crossing_wires` -- the elementary two-wire crossing of Figure 1,
  also the canonical problem from which arch shapes are extracted.
* :func:`bus_crossing` -- the n x m crossing-bus array of Figure 7 (right);
  ``bus_crossing(24, 24)`` is the structure of Table 3 / Figure 8.
* :func:`transistor_interconnect` -- a synthetic multi-layer transistor-cell
  interconnect block standing in for the industry-provided structure of
  Figure 7 (left) / Table 2.
* :func:`parallel_plates`, :func:`plate_over_ground`, :func:`single_plate`,
  :func:`comb_capacitor` -- classic verification structures with known or
  easily bounded capacitances, used by the test-suite.
* :func:`via_stack`, :func:`guard_ring`, :func:`random_manhattan`,
  :func:`comb_bus_hybrid` -- the extended geometry families of the workload
  registry (:mod:`repro.workloads`): multi-box via pillars over a rail,
  a shielding ring enclosure, seeded random Manhattan routing, and a
  comb capacitor under a crossing bus.

All dimensions are in metres; the defaults are micron-scale interconnect
dimensions similar to those plotted in the paper's figures.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.conductor import Box, Conductor
from repro.geometry.layout import Layout

__all__ = [
    "crossing_wires",
    "bus_crossing",
    "transistor_interconnect",
    "parallel_plates",
    "plate_over_ground",
    "single_plate",
    "comb_capacitor",
    "wire_array",
    "via_stack",
    "guard_ring",
    "random_manhattan",
    "comb_bus_hybrid",
]

#: One micron, the natural length unit of the paper's examples.
UM = 1e-6


def crossing_wires(
    separation: float = 1.0 * UM,
    width: float = 1.0 * UM,
    thickness: float = 1.0 * UM,
    length: float = 10.0 * UM,
    relative_permittivity: float = 1.0,
) -> Layout:
    """Build the elementary pair of crossing wires of Figure 1.

    The *source* (bottom) wire runs along x; the *target* (top) wire runs
    along y and passes over the centre of the bottom wire at a vertical gap
    of ``separation``.
    """
    _require_positive(separation=separation, width=width, thickness=thickness, length=length)
    half = length / 2.0
    bottom = Conductor(
        "source",
        [Box((-half, -width / 2.0, 0.0), (half, width / 2.0, thickness))],
    )
    top = Conductor(
        "target",
        [
            Box(
                (-width / 2.0, -half, thickness + separation),
                (width / 2.0, half, 2.0 * thickness + separation),
            )
        ],
    )
    return Layout([bottom, top], relative_permittivity=relative_permittivity)


def bus_crossing(
    n_lower: int = 24,
    n_upper: int = 24,
    width: float = 1.0 * UM,
    spacing: float = 1.0 * UM,
    thickness: float = 1.0 * UM,
    separation: float = 1.0 * UM,
    margin: float = 1.0 * UM,
    relative_permittivity: float = 1.0,
) -> Layout:
    """Build an ``n_lower x n_upper`` crossing bus (Figure 7, right).

    ``n_lower`` wires run along x on the lower layer and ``n_upper`` wires
    run along y on the upper layer.  Wires are ``width`` wide on a
    ``width + spacing`` pitch, and the two layers are separated vertically by
    ``separation``.  Lower wires are named ``lower_<i>``; upper wires
    ``upper_<j>``.
    """
    _require_positive(
        width=width, spacing=spacing, thickness=thickness, separation=separation, margin=margin
    )
    if n_lower < 1 or n_upper < 1:
        raise ValueError(f"bus sizes must be >= 1, got ({n_lower}, {n_upper})")
    pitch = width + spacing
    lower_span = n_upper * pitch - spacing + 2.0 * margin
    upper_span = n_lower * pitch - spacing + 2.0 * margin

    conductors: list[Conductor] = []
    for i in range(n_lower):
        y0 = i * pitch
        conductors.append(
            Conductor(
                f"lower_{i}",
                [Box((-margin, y0, 0.0), (lower_span - margin, y0 + width, thickness))],
            )
        )
    z0 = thickness + separation
    for j in range(n_upper):
        x0 = j * pitch
        conductors.append(
            Conductor(
                f"upper_{j}",
                [Box((x0, -margin, z0), (x0 + width, upper_span - margin, z0 + thickness))],
            )
        )
    return Layout(conductors, relative_permittivity=relative_permittivity)


def transistor_interconnect(
    n_fingers: int = 4,
    n_m1_straps: int = 3,
    n_m2_lines: int = 2,
    gate_length: float = 0.18 * UM,
    gate_pitch: float = 0.72 * UM,
    finger_width: float = 2.0 * UM,
    metal_width: float = 0.36 * UM,
    metal_thickness: float = 0.35 * UM,
    poly_thickness: float = 0.2 * UM,
    ild_thickness: float = 0.45 * UM,
    relative_permittivity: float = 1.0,
) -> Layout:
    """Build a synthetic transistor-cell interconnect block.

    The structure stands in for the industry-provided transistor interconnect
    of Figure 7 (left) used in Table 2.  It contains:

    * ``n_fingers`` polysilicon gate fingers running along y (conductor
      ``poly``, all fingers strapped together by a poly head),
    * ``n_m1_straps`` metal-1 straps running along x above the fingers
      (conductors ``m1_<i>``), representing source/drain and gate routing,
    * ``n_m2_lines`` metal-2 lines running along y above metal-1
      (conductors ``m2_<j>``), representing higher-level routing crossing the
      cell.

    The stack (poly -> ILD -> M1 -> ILD -> M2) produces the dense field of
    orthogonal crossings at several separations that characterises the
    paper's industrial example.
    """
    _require_positive(
        gate_length=gate_length,
        gate_pitch=gate_pitch,
        finger_width=finger_width,
        metal_width=metal_width,
        metal_thickness=metal_thickness,
        poly_thickness=poly_thickness,
        ild_thickness=ild_thickness,
    )
    if n_fingers < 1 or n_m1_straps < 1 or n_m2_lines < 1:
        raise ValueError("all element counts must be >= 1")

    cell_width = n_fingers * gate_pitch
    conductors: list[Conductor] = []

    # --- Poly gate fingers, strapped by a head running along x. -----------
    poly_boxes: list[Box] = []
    head_height = metal_width
    for k in range(n_fingers):
        x0 = k * gate_pitch + (gate_pitch - gate_length) / 2.0
        poly_boxes.append(
            Box((x0, 0.0, 0.0), (x0 + gate_length, finger_width, poly_thickness))
        )
    poly_boxes.append(
        Box(
            (0.0, finger_width, 0.0),
            (cell_width, finger_width + head_height, poly_thickness),
        )
    )
    conductors.append(Conductor("poly", poly_boxes))

    # --- Metal-1 straps running along x over the fingers. -----------------
    m1_z0 = poly_thickness + ild_thickness
    m1_pitch = (finger_width + head_height) / (n_m1_straps + 1)
    for i in range(n_m1_straps):
        y0 = (i + 1) * m1_pitch - metal_width / 2.0
        conductors.append(
            Conductor(
                f"m1_{i}",
                [
                    Box(
                        (-metal_width, y0, m1_z0),
                        (cell_width + metal_width, y0 + metal_width, m1_z0 + metal_thickness),
                    )
                ],
            )
        )

    # --- Metal-2 lines running along y over the straps. -------------------
    m2_z0 = m1_z0 + metal_thickness + ild_thickness
    m2_pitch = cell_width / (n_m2_lines + 1)
    m2_length = finger_width + head_height + 2.0 * metal_width
    for j in range(n_m2_lines):
        x0 = (j + 1) * m2_pitch - metal_width / 2.0
        conductors.append(
            Conductor(
                f"m2_{j}",
                [
                    Box(
                        (x0, -metal_width, m2_z0),
                        (x0 + metal_width, m2_length - metal_width, m2_z0 + metal_thickness),
                    )
                ],
            )
        )
    return Layout(conductors, relative_permittivity=relative_permittivity)


def parallel_plates(
    side: float = 10.0 * UM,
    gap: float = 1.0 * UM,
    thickness: float = 0.5 * UM,
    relative_permittivity: float = 1.0,
) -> Layout:
    """Two identical square plates facing each other across ``gap``.

    The parallel-plate estimate ``eps * side^2 / gap`` is a lower bound on
    the extracted coupling capacitance (fringing adds to it), which the test
    suite uses as a physical sanity check.
    """
    _require_positive(side=side, gap=gap, thickness=thickness)
    bottom = Conductor("bottom", [Box((0.0, 0.0, -thickness), (side, side, 0.0))])
    top = Conductor("top", [Box((0.0, 0.0, gap), (side, side, gap + thickness))])
    return Layout([bottom, top], relative_permittivity=relative_permittivity)


def plate_over_ground(
    side: float = 4.0 * UM,
    gap: float = 1.0 * UM,
    thickness: float = 0.5 * UM,
    ground_margin: float = 4.0 * UM,
    relative_permittivity: float = 1.0,
) -> Layout:
    """A small plate above a larger grounded plate."""
    _require_positive(side=side, gap=gap, thickness=thickness, ground_margin=ground_margin)
    ground = Conductor(
        "ground",
        [Box((-ground_margin, -ground_margin, -thickness), (side + ground_margin, side + ground_margin, 0.0))],
    )
    plate = Conductor("plate", [Box((0.0, 0.0, gap), (side, side, gap + thickness))])
    return Layout([ground, plate], relative_permittivity=relative_permittivity)


def single_plate(
    side: float = 10.0 * UM,
    thickness: float = 1.0 * UM,
    relative_permittivity: float = 1.0,
) -> Layout:
    """A single isolated square conductor.

    For a thin square plate of side ``a`` the self-capacitance is about
    ``0.367 * 4 * pi * eps * a`` (Maxwell's classic result ~40.8 pF for a
    1 m plate in vacuum), which brackets the extracted value in tests.
    """
    _require_positive(side=side, thickness=thickness)
    plate = Conductor("plate", [Box((0.0, 0.0, 0.0), (side, side, thickness))])
    return Layout([plate], relative_permittivity=relative_permittivity)


def comb_capacitor(
    n_fingers: int = 4,
    finger_length: float = 8.0 * UM,
    finger_width: float = 1.0 * UM,
    finger_gap: float = 1.0 * UM,
    thickness: float = 1.0 * UM,
    relative_permittivity: float = 1.0,
) -> Layout:
    """Two interdigitated comb conductors on the same layer.

    A common MOM-capacitor structure dominated by lateral coupling; used to
    exercise the lateral-pair detection and the PWC baseline on a structure
    without any vertical crossing.
    """
    _require_positive(
        finger_length=finger_length,
        finger_width=finger_width,
        finger_gap=finger_gap,
        thickness=thickness,
    )
    if n_fingers < 2:
        raise ValueError(f"need at least 2 fingers, got {n_fingers}")
    pitch = finger_width + finger_gap
    spine_width = finger_width
    total_height = n_fingers * pitch - finger_gap

    a_boxes = [Box((0.0, 0.0, 0.0), (spine_width, total_height, thickness))]
    b_boxes = [
        Box(
            (spine_width + finger_length + 2.0 * finger_gap, 0.0, 0.0),
            (2.0 * spine_width + finger_length + 2.0 * finger_gap, total_height, thickness),
        )
    ]
    for k in range(n_fingers):
        y0 = k * pitch
        if k % 2 == 0:
            a_boxes.append(
                Box(
                    (spine_width, y0, 0.0),
                    (spine_width + finger_length, y0 + finger_width, thickness),
                )
            )
        else:
            b_boxes.append(
                Box(
                    (spine_width + 2.0 * finger_gap, y0, 0.0),
                    (spine_width + finger_length + 2.0 * finger_gap, y0 + finger_width, thickness),
                )
            )
    comb_a = Conductor("comb_a", a_boxes)
    comb_b = Conductor("comb_b", b_boxes)
    return Layout([comb_a, comb_b], relative_permittivity=relative_permittivity)


def wire_array(
    n_wires: int = 3,
    width: float = 1.0 * UM,
    spacing: float = 1.0 * UM,
    thickness: float = 1.0 * UM,
    length: float = 10.0 * UM,
    relative_permittivity: float = 1.0,
) -> Layout:
    """A single-layer array of parallel wires running along x."""
    _require_positive(width=width, spacing=spacing, thickness=thickness, length=length)
    if n_wires < 1:
        raise ValueError(f"need at least one wire, got {n_wires}")
    pitch = width + spacing
    conductors = [
        Conductor(
            f"wire_{i}",
            [Box((0.0, i * pitch, 0.0), (length, i * pitch + width, thickness))],
        )
        for i in range(n_wires)
    ]
    return Layout(conductors, relative_permittivity=relative_permittivity)


def via_stack(
    n_stacks: int = 3,
    pad_side: float = 1.0 * UM,
    via_side: float = 0.4 * UM,
    pad_thickness: float = 0.35 * UM,
    via_height: float = 0.6 * UM,
    spacing: float = 1.0 * UM,
    rail_gap: float = 0.8 * UM,
    rail_margin: float = 1.0 * UM,
    relative_permittivity: float = 1.0,
) -> Layout:
    """A row of via pillars (pad / via / pad) crossing over a buried rail.

    Each pillar is one conductor (``stack_<i>``) made of three stacked
    boxes: a lower metal pad, a narrower via cube spanning the inter-layer
    dielectric, and an upper pad.  A ``rail`` wire runs along x underneath
    the whole row at a vertical gap of ``rail_gap``, so every pillar forms
    a vertical crossing with the rail while neighbouring pillars couple
    laterally.  The multi-box pillars exercise the buried-face removal of
    :meth:`~repro.geometry.conductor.Conductor.surface_panels`.
    """
    _require_positive(
        pad_side=pad_side,
        via_side=via_side,
        pad_thickness=pad_thickness,
        via_height=via_height,
        spacing=spacing,
        rail_gap=rail_gap,
        rail_margin=rail_margin,
    )
    if n_stacks < 1:
        raise ValueError(f"need at least one via stack, got {n_stacks}")
    if via_side > pad_side:
        raise ValueError(
            f"via_side must not exceed pad_side, got {via_side!r} > {pad_side!r}"
        )
    pitch = pad_side + spacing
    rail_thickness = pad_thickness
    z_pad_lo = rail_thickness + rail_gap

    conductors: list[Conductor] = [
        Conductor(
            "rail",
            [
                Box(
                    (-rail_margin, 0.0, 0.0),
                    (n_stacks * pitch - spacing + rail_margin, pad_side, rail_thickness),
                )
            ],
        )
    ]
    inset = (pad_side - via_side) / 2.0
    for i in range(n_stacks):
        x0 = i * pitch
        z_via_lo = z_pad_lo + pad_thickness
        z_top_lo = z_via_lo + via_height
        boxes = [
            Box((x0, 0.0, z_pad_lo), (x0 + pad_side, pad_side, z_via_lo)),
            Box(
                (x0 + inset, inset, z_via_lo),
                (x0 + inset + via_side, inset + via_side, z_top_lo),
            ),
            Box((x0, 0.0, z_top_lo), (x0 + pad_side, pad_side, z_top_lo + pad_thickness)),
        ]
        conductors.append(Conductor(f"stack_{i}", boxes))
    return Layout(conductors, relative_permittivity=relative_permittivity)


def guard_ring(
    victim_length: float = 6.0 * UM,
    wire_width: float = 1.0 * UM,
    thickness: float = 1.0 * UM,
    ring_clearance: float = 1.0 * UM,
    ring_width: float = 1.0 * UM,
    aggressor_clearance: float = 1.0 * UM,
    relative_permittivity: float = 1.0,
) -> Layout:
    """A victim wire enclosed by a grounded guard ring, with an aggressor outside.

    All three conductors sit on one layer: the ``victim`` wire runs along x,
    the ``guard`` ring encloses it in plan view at a lateral clearance of
    ``ring_clearance`` (four boxes sharing corners), and the ``aggressor``
    wire runs parallel to the victim outside the ring at
    ``aggressor_clearance``.  The ring shields the victim--aggressor
    coupling, which makes the family a sensitive accuracy probe for lateral
    interactions.
    """
    _require_positive(
        victim_length=victim_length,
        wire_width=wire_width,
        thickness=thickness,
        ring_clearance=ring_clearance,
        ring_width=ring_width,
        aggressor_clearance=aggressor_clearance,
    )
    victim = Conductor(
        "victim",
        [Box((0.0, 0.0, 0.0), (victim_length, wire_width, thickness))],
    )
    # Ring interior hole: the victim footprint grown by the clearance.
    hole_lo_x, hole_lo_y = -ring_clearance, -ring_clearance
    hole_hi_x = victim_length + ring_clearance
    hole_hi_y = wire_width + ring_clearance
    ring_lo_x, ring_lo_y = hole_lo_x - ring_width, hole_lo_y - ring_width
    ring_hi_x, ring_hi_y = hole_hi_x + ring_width, hole_hi_y + ring_width
    guard = Conductor(
        "guard",
        [
            # Bottom and top bars span the full ring width, the side bars
            # fill the remaining gap; the four boxes touch at the corners.
            Box((ring_lo_x, ring_lo_y, 0.0), (ring_hi_x, hole_lo_y, thickness)),
            Box((ring_lo_x, hole_hi_y, 0.0), (ring_hi_x, ring_hi_y, thickness)),
            Box((ring_lo_x, hole_lo_y, 0.0), (hole_lo_x, hole_hi_y, thickness)),
            Box((hole_hi_x, hole_lo_y, 0.0), (ring_hi_x, hole_hi_y, thickness)),
        ],
    )
    aggressor_y0 = ring_hi_y + aggressor_clearance
    aggressor = Conductor(
        "aggressor",
        [
            Box(
                (ring_lo_x, aggressor_y0, 0.0),
                (ring_hi_x, aggressor_y0 + wire_width, thickness),
            )
        ],
    )
    return Layout([victim, guard, aggressor], relative_permittivity=relative_permittivity)


def random_manhattan(
    n_wires: int = 6,
    seed: int = 0,
    width: float = 1.0 * UM,
    spacing: float = 1.0 * UM,
    thickness: float = 1.0 * UM,
    separation: float = 1.0 * UM,
    region: float = 12.0 * UM,
    min_length_fraction: float = 0.5,
    relative_permittivity: float = 1.0,
) -> Layout:
    """A seeded random two-layer Manhattan routing block.

    Wires alternate between the lower layer (routed along x) and the upper
    layer (routed along y).  Each wire occupies a randomly drawn track on
    its layer (tracks are on a ``width + spacing`` pitch, so same-layer
    wires never overlap) with a random start and length inside the
    ``region`` x ``region`` window, snapped to half-width grid steps.  The
    construction is a deterministic function of ``seed`` -- the same seed
    reproduces the exact same layout, which the workload registry relies on
    for its golden references.
    """
    _require_positive(
        width=width,
        spacing=spacing,
        thickness=thickness,
        separation=separation,
        region=region,
        min_length_fraction=min_length_fraction,
    )
    if n_wires < 2:
        raise ValueError(f"need at least two wires, got {n_wires}")
    if min_length_fraction > 1.0:
        raise ValueError(
            f"min_length_fraction must be <= 1, got {min_length_fraction}"
        )
    pitch = width + spacing
    num_tracks = max(int(region // pitch), 1)
    rng = np.random.default_rng(seed)
    # Per-layer random track permutations guarantee distinct tracks as long
    # as each layer holds at most num_tracks wires.
    per_layer = (n_wires + 1) // 2
    if per_layer > num_tracks:
        raise ValueError(
            f"{n_wires} wires need {per_layer} tracks per layer but the "
            f"region only fits {num_tracks}; enlarge region or reduce n_wires"
        )
    lower_tracks = rng.permutation(num_tracks)[:per_layer]
    upper_tracks = rng.permutation(num_tracks)[: n_wires - per_layer]
    grid = width / 2.0
    z_upper = thickness + separation

    def _span() -> tuple[float, float]:
        min_length = min_length_fraction * region
        length = float(rng.uniform(min_length, region))
        start = float(rng.uniform(0.0, region - length))
        start = round(start / grid) * grid
        length = max(round(length / grid) * grid, grid)
        return start, min(start + length, region)

    conductors: list[Conductor] = []
    for index in range(n_wires):
        layer = index % 2
        track_index = index // 2
        if layer == 0:
            y0 = float(lower_tracks[track_index]) * pitch
            lo_x, hi_x = _span()
            box = Box((lo_x, y0, 0.0), (hi_x, y0 + width, thickness))
        else:
            x0 = float(upper_tracks[track_index]) * pitch
            lo_y, hi_y = _span()
            box = Box((x0, lo_y, z_upper), (x0 + width, hi_y, z_upper + thickness))
        conductors.append(Conductor(f"net_{index}", [box]))
    return Layout(conductors, relative_permittivity=relative_permittivity)


def comb_bus_hybrid(
    n_fingers: int = 3,
    n_bus: int = 2,
    finger_length: float = 6.0 * UM,
    finger_width: float = 1.0 * UM,
    finger_gap: float = 1.0 * UM,
    thickness: float = 1.0 * UM,
    separation: float = 1.0 * UM,
    bus_width: float = 1.0 * UM,
    relative_permittivity: float = 1.0,
) -> Layout:
    """An interdigitated comb capacitor under a perpendicular crossing bus.

    The lower layer is the two-conductor comb of :func:`comb_capacitor`
    (lateral coupling); ``n_bus`` wires (``bus_<j>``) run along y on the
    upper layer across the whole comb (vertical crossings with both combs).
    The hybrid mixes the two coupling regimes in one dense structure.
    """
    _require_positive(separation=separation, bus_width=bus_width)
    if n_bus < 1:
        raise ValueError(f"need at least one bus wire, got {n_bus}")
    comb = comb_capacitor(
        n_fingers=n_fingers,
        finger_length=finger_length,
        finger_width=finger_width,
        finger_gap=finger_gap,
        thickness=thickness,
        relative_permittivity=relative_permittivity,
    )
    comb_bb = comb.bounding_box()
    span_x = comb_bb.hi[0] - comb_bb.lo[0]
    z0 = thickness + separation
    bus_pitch = span_x / (n_bus + 1)
    y_lo = comb_bb.lo[1] - bus_width
    y_hi = comb_bb.hi[1] + bus_width
    conductors = list(comb.conductors)
    for j in range(n_bus):
        x_center = comb_bb.lo[0] + (j + 1) * bus_pitch
        conductors.append(
            Conductor(
                f"bus_{j}",
                [
                    Box(
                        (x_center - bus_width / 2.0, y_lo, z0),
                        (x_center + bus_width / 2.0, y_hi, z0 + thickness),
                    )
                ],
            )
        )
    return Layout(conductors, relative_permittivity=relative_permittivity)


def _require_positive(**values: float) -> None:
    """Raise ValueError when any named value is not strictly positive."""
    for name, value in values.items():
        if not (value > 0.0) or not math.isfinite(value):
            raise ValueError(f"{name} must be a positive finite number, got {value!r}")
