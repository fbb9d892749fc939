"""Calibration board geometry.

The board is a checkerboard with four circular holes near its corners. Its
reference frame sits at the geometric center of the board: x right, y up,
z out of the front face. Circle centers are always handled in the canonical
order top-left, top-right, bottom-right, bottom-left.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_OFFSETS = ((-0.38, 0.38), (0.38, 0.38), (0.38, -0.38), (-0.38, -0.38))


@dataclass(frozen=True)
class TargetSpec:
    """Physical board description; all lengths in meters."""

    squares_x: int = 8
    squares_y: int = 8
    square_size: float = 0.1
    board_width: float = 1.0
    board_height: float = 1.0
    circle_offsets: tuple = DEFAULT_OFFSETS
    circle_radius: float = 0.06

    def __post_init__(self):
        if min(self.squares_x, self.squares_y) < 2:
            raise ValueError("squares_x and squares_y must be >= 2")
        if min(self.square_size, self.circle_radius) <= 0:
            raise ValueError("square_size and circle_radius must be positive")
        offsets = tuple((float(x), float(y)) for x, y in self.circle_offsets)
        if len(offsets) != 4 or len(set(offsets)) != 4:
            raise ValueError("need 4 distinct circle offsets")
        object.__setattr__(self, "circle_offsets", offsets)
        for ox, oy in offsets:
            if (
                abs(ox) + self.circle_radius > self.board_width / 2
                or abs(oy) + self.circle_radius > self.board_height / 2
            ):
                raise ValueError(f"circle at ({ox}, {oy}) extends past board boundary")
        if (
            self.board_width < self.squares_x * self.square_size
            or self.board_height < self.squares_y * self.square_size
        ):
            raise ValueError("board smaller than checker extent")


def circle_centers_board(spec: TargetSpec) -> np.ndarray:
    """4x3 array of hole centers in the board frame, canonical order, z=0."""
    return np.array([[ox, oy, 0.0] for ox, oy in spec.circle_offsets])


def checker_corners_board(spec: TargetSpec) -> np.ndarray:
    """(n, 3) table of the inner checker corners, row k corner id k.

    Ids are row-major starting at the top-left inner corner (highest y),
    n = (squares_x-1)*(squares_y-1) corners, all at z=0.
    """
    x = -spec.squares_x * spec.square_size / 2 + np.arange(1, spec.squares_x) * spec.square_size
    y = spec.squares_y * spec.square_size / 2 - np.arange(1, spec.squares_y) * spec.square_size
    gx, gy = np.meshgrid(x, y)  # rows of gy run down the board
    return np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)


def generate_mask_cloud(spec: TargetSpec, sample_pitch: float = 0.01) -> np.ndarray:
    """Grid sampling of the board plane with the 4 circular holes removed.

    Returned as an (N, 3) array in the board frame (z=0). The grid includes
    the board boundary, so the xy bounding box equals the board size.
    """
    if not (0 < sample_pitch <= spec.circle_radius / 2):
        raise ValueError("sample_pitch must be in (0, circle_radius/2]")
    nx = int(round(spec.board_width / sample_pitch))
    ny = int(round(spec.board_height / sample_pitch))
    xs = np.linspace(-spec.board_width / 2, spec.board_width / 2, nx + 1)
    ys = np.linspace(-spec.board_height / 2, spec.board_height / 2, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
    keep = np.ones(len(pts), dtype=bool)
    for ox, oy in spec.circle_offsets:
        d2 = (pts[:, 0] - ox) ** 2 + (pts[:, 1] - oy) ** 2
        keep &= d2 >= spec.circle_radius**2
    return pts[keep]
