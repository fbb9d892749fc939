"""Target module: board geometry, checker corners, mask cloud."""

import numpy as np
import pytest

from crosscal.target import (
    TargetSpec,
    checker_corners_board,
    circle_centers_board,
    generate_mask_cloud,
)


def test_canonical_center_order_symmetric_offsets():
    a, b = 0.3, 0.25
    spec = TargetSpec(circle_offsets=((-a, b), (a, b), (a, -b), (-a, -b)))
    centers = circle_centers_board(spec)
    # top-left, top-right, bottom-right, bottom-left
    expected = np.array([[-a, b, 0.0], [a, b, 0.0], [a, -b, 0.0], [-a, -b, 0.0]])
    assert np.array_equal(centers, expected)


def test_default_centers_inside_board():
    spec = TargetSpec()
    centers = circle_centers_board(spec)
    assert np.all(np.abs(centers[:, 0]) < spec.board_width / 2)
    assert np.all(np.abs(centers[:, 1]) < spec.board_height / 2)
    assert np.all(centers[:, 2] == 0.0)


def test_center_pairwise_distances_match_offset_arithmetic():
    spec = TargetSpec()
    centers = circle_centers_board(spec)
    offs = np.asarray(spec.circle_offsets)
    for i in range(4):
        for j in range(4):
            d = np.linalg.norm(offs[i] - offs[j])
            assert abs(np.linalg.norm(centers[i] - centers[j]) - d) < 1e-12


def test_spec_validation():
    with pytest.raises(ValueError):
        TargetSpec(circle_radius=0.0)
    with pytest.raises(ValueError):
        TargetSpec(circle_offsets=((0.1, 0.1), (0.1, 0.1), (0.2, 0.2), (0.3, 0.3)))
    with pytest.raises(ValueError):  # circle past the board edge
        TargetSpec(circle_offsets=((-0.48, 0.38), (0.38, 0.38), (0.38, -0.38), (-0.38, -0.38)))
    with pytest.raises(ValueError):  # board smaller than checker extent
        TargetSpec(board_width=0.7, circle_offsets=((-0.2, 0.2), (0.2, 0.2), (0.2, -0.2), (-0.2, -0.2)))


def test_checker_corners_3x3_hand_layout():
    spec = TargetSpec(
        squares_x=3,
        squares_y=3,
        square_size=0.1,
        board_width=1.0,
        board_height=1.0,
    )
    corners = checker_corners_board(spec)
    assert corners.shape == (4, 3)
    pts = [tuple(np.round(p[:2], 9)) for p in corners]
    # row-major from the top-left inner corner (highest y first)
    assert pts == [(-0.05, 0.05), (0.05, 0.05), (-0.05, -0.05), (0.05, -0.05)]
    assert (corners[:, 2] == 0.0).all()


@pytest.mark.parametrize(
    "spec",
    [
        TargetSpec(),
        TargetSpec(squares_x=5, squares_y=7, square_size=0.0837),
        TargetSpec(squares_x=9, squares_y=6, square_size=0.113, board_width=1.1),
        TargetSpec(squares_x=2, squares_y=3, square_size=0.3),
    ],
    ids=["8x8", "5x7", "9x6", "2x3"],
)
def test_checker_corner_table_row_k_is_corner_k(spec):
    """Row k of the table is bit for bit the per-corner formula of id k:
    row-major, column col and row row at (x0 + (col+1) s, y0 - (row+1) s)."""
    table = checker_corners_board(spec)
    nx = spec.squares_x - 1
    x0 = -spec.squares_x * spec.square_size / 2
    y0 = spec.squares_y * spec.square_size / 2
    assert table.shape == (nx * (spec.squares_y - 1), 3)
    for cid, point in enumerate(table):
        row, col = divmod(cid, nx)
        x = x0 + (col + 1) * spec.square_size
        y = y0 - (row + 1) * spec.square_size
        assert point.tobytes() == np.array([x, y, 0.0]).tobytes(), cid


def test_checker_corner_count_8x8():
    assert len(checker_corners_board(TargetSpec())) == 49


def test_mask_cloud_count_matches_brute_force_oracle():
    spec = TargetSpec()
    pitch = 0.01
    cloud = generate_mask_cloud(spec, pitch)
    # independent oracle: full grid minus point-in-circle test
    xs = np.linspace(-0.5, 0.5, 101)
    ys = np.linspace(-0.5, 0.5, 101)
    count = 0
    for x in xs:
        for y in ys:
            if all((x - ox) ** 2 + (y - oy) ** 2 >= spec.circle_radius**2
                   for ox, oy in spec.circle_offsets):
                count += 1
    assert len(cloud) == count


def test_mask_cloud_holes_empty_and_bbox():
    spec = TargetSpec()
    cloud = generate_mask_cloud(spec, 0.01)
    for ox, oy in spec.circle_offsets:
        d = np.hypot(cloud[:, 0] - ox, cloud[:, 1] - oy)
        assert d.min() >= spec.circle_radius
    assert np.allclose(cloud[:, :2].min(axis=0), [-0.5, -0.5])
    assert np.allclose(cloud[:, :2].max(axis=0), [0.5, 0.5])
    assert np.all(cloud[:, 2] == 0.0)


def test_mask_pitch_bounds():
    spec = TargetSpec()
    with pytest.raises(ValueError):
        generate_mask_cloud(spec, 0.0)
    with pytest.raises(ValueError):
        generate_mask_cloud(spec, spec.circle_radius)  # > radius/2
    generate_mask_cloud(spec, spec.circle_radius / 2)  # boundary allowed


def test_centers_invariant_to_pitch():
    spec = TargetSpec()
    c = circle_centers_board(spec)
    generate_mask_cloud(spec, 0.005)
    generate_mask_cloud(spec, 0.02)
    assert np.array_equal(c, circle_centers_board(spec))
