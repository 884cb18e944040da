import math

import numpy as np
import pytest

from modselect.encode import (
    Box,
    DetectionSet,
    Keypoints,
    RasterImage,
    detection_vector,
    heatmap,
    limbs,
    read_pgm,
    write_pgm,
)


def test_keypoints_validation():
    with pytest.raises(ValueError, match="confidences"):
        Keypoints([[1.0, 2.0, 1.5]])
    with pytest.raises(ValueError, match="finite"):
        Keypoints([[np.inf, 2.0, 0.5]])


def test_box_validation():
    with pytest.raises(ValueError, match="extent"):
        Box(5.0, 0.0, 1.0, 2.0)
    assert Box(0.0, 0.0, 4.0, 2.0).center == (2.0, 1.0)
    assert Box(np.float64(1), 2, np.int64(3), 4.5).center == (2.0, 3.25)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.float64(np.nan)])
@pytest.mark.parametrize("at", range(4))
def test_box_rejects_a_non_finite_coordinate(at, bad):
    coordinates = [0.0, 0.0, 1.0, 1.0]
    coordinates[at] = bad
    with pytest.raises(ValueError, match="^box coordinates must be finite$"):
        Box(*coordinates)


class TestHeatmap:
    def test_peak_equals_confidence(self):
        image = heatmap(Keypoints([[10.0, 10.0, 1.0]]), 32, 32)
        assert image.values[10, 10] == pytest.approx(1.0, abs=1e-9)

    def test_value_at_sigma_distance(self):
        image = heatmap(Keypoints([[10.0, 10.0, 1.0]]), 32, 32, sigma=6.0)
        assert image.values[10, 16] == pytest.approx(math.exp(-0.5), abs=1e-9)

    def test_confidence_weighting(self):
        image = heatmap(Keypoints([[4.0, 4.0, 0.37]]), 16, 16)
        assert image.values[4, 4] == pytest.approx(0.37, abs=1e-9)

    def test_no_joints_gives_zeros(self):
        image = heatmap(Keypoints(np.zeros((0, 3))), 8, 8)
        assert not image.values.any()

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            heatmap(Keypoints([[1.0, 1.0, 1.0]]), 8, 8, sigma=0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match=f"^sigma must be finite, got {sigma}$"):
            heatmap(Keypoints([[1.0, 1.0, 1.0]]), 8, 8, sigma=sigma)

    def test_radial_monotonicity(self):
        image = heatmap(Keypoints([[12.0, 9.0, 0.8]]), 30, 30, sigma=4.0)
        row = image.values[9, 12:]
        assert np.all(np.diff(row) <= 1e-15)
        col = image.values[9:, 12]
        assert np.all(np.diff(col) <= 1e-15)

    def test_off_frame_joint_contributes_tail(self):
        image = heatmap(Keypoints([[-3.0, 5.0, 1.0]]), 16, 16, sigma=6.0)
        assert image.values[5, 0] == pytest.approx(math.exp(-9.0 / 72.0), abs=1e-9)

    def test_translation_equivariance(self):
        joints = np.array([[6.0, 7.0, 0.9], [11.0, 4.0, 0.5]])
        base = heatmap(Keypoints(joints), 40, 40, sigma=3.0)
        moved = joints.copy()
        moved[:, 0] += 5
        moved[:, 1] += 3
        shifted = heatmap(Keypoints(moved), 40, 40, sigma=3.0)
        np.testing.assert_allclose(
            base.values[:-3, :-5], shifted.values[3:, 5:], atol=1e-12
        )

    def test_max_stacking_keeps_per_joint_peaks(self):
        joints = [[5.0, 5.0, 0.9], [20.0, 20.0, 0.4]]
        image = heatmap(Keypoints(joints), 30, 30, sigma=2.0)
        assert image.values[5, 5] == pytest.approx(0.9, abs=1e-6)
        assert image.values[20, 20] == pytest.approx(0.4, abs=1e-6)
        assert image.values.max() <= 1.0

    def test_sum_mode_clamps(self):
        joints = [[5.0, 5.0, 0.9], [5.0, 5.0, 0.8]]
        image = heatmap(Keypoints(joints), 12, 12, combine="sum")
        assert image.values[5, 5] == 1.0  # 1.7 clamped


class TestLimbs:
    def test_horizontal_segment_pixels(self):
        kp = Keypoints([[2.0, 5.0, 1.0], [6.0, 5.0, 1.0]])
        image = limbs(kp, 10, 10, skeleton=[(0, 1)])
        ys, xs = np.nonzero(image.values)
        assert set(zip(xs.tolist(), ys.tolist())) == {(x, 5) for x in range(2, 7)}

    def test_min_confidence_rule(self):
        kp = Keypoints([[1.0, 1.0, 1.0], [4.0, 1.0, 0.4]])
        image = limbs(kp, 8, 8, skeleton=[(0, 1)])
        assert image.values[1, 2] == pytest.approx(0.4)

    def test_zero_confidence_invisible(self):
        kp = Keypoints([[1.0, 1.0, 0.0], [4.0, 1.0, 1.0]])
        image = limbs(kp, 8, 8, skeleton=[(0, 1)])
        assert not image.values.any()

    def test_overlap_takes_max(self):
        kp = Keypoints([[0.0, 0.0, 0.3], [4.0, 0.0, 0.3], [0.0, 0.0, 0.9], [4.0, 0.0, 0.9]])
        image = limbs(kp, 8, 8, skeleton=[(0, 1), (2, 3)])
        assert image.values[0, 2] == pytest.approx(0.9)

    def test_invalid_skeleton_index(self):
        kp = Keypoints([[1.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match="outside joint range"):
            limbs(kp, 8, 8, skeleton=[(0, 3)])

    @pytest.mark.parametrize(
        "start, end",
        [
            ((2, 2), (2, 6)),  # vertical, both ways
            ((2, 6), (2, 2)),
            ((1, 0), (3, 5)),  # steep, both ways
            ((6, 7), (4, 2)),
            ((5, 1), (1, 5)),  # diagonal, both ways
            ((7, 7), (0, 0)),
        ],
    )
    def test_vertical_steep_and_diagonal_segments_are_8_connected(self, start, end):
        kp = Keypoints([[*start, 1.0], [*end, 1.0]])
        ys, xs = np.nonzero(limbs(kp, 8, 8, skeleton=[(0, 1)]).values)
        pixels = set(zip(xs.tolist(), ys.tolist()))
        assert start in pixels and end in pixels
        dx, dy = abs(end[0] - start[0]), abs(end[1] - start[1])
        assert len(pixels) == max(dx, dy) + 1
        # Along the major axis each step moves one pixel, and the other coordinate at most one.
        major = 1 if dy >= dx else 0
        path = sorted(pixels, key=lambda p: p[major])
        for a, b in zip(path, path[1:]):
            assert b[major] - a[major] == 1 and abs(b[1 - major] - a[1 - major]) <= 1

    def test_steep_segment_pixels(self):
        kp = Keypoints([[1.0, 0.0, 1.0], [3.0, 5.0, 1.0]])
        ys, xs = np.nonzero(limbs(kp, 8, 8, skeleton=[(0, 1)]).values)
        assert list(zip(xs.tolist(), ys.tolist())) == [(1, 0), (1, 1), (2, 2), (2, 3), (3, 4), (3, 5)]

    def test_segment_clipped_to_frame(self):
        kp = Keypoints([[-5.0, 2.0, 1.0], [3.0, 2.0, 1.0]])
        image = limbs(kp, 6, 6, skeleton=[(0, 1)])
        ys, xs = np.nonzero(image.values)
        assert xs.min() >= 0 and set(xs.tolist()) == {0, 1, 2, 3}


class TestDetectionVector:
    def test_single_object_is_one_hot(self):
        det = DetectionSet(Box(0, 0, 2, 2), ((3, Box(10, 10, 12, 12)),))
        vec = detection_vector(det, 8)
        assert vec[3] == pytest.approx(1.0)
        assert np.count_nonzero(vec) == 1

    def test_two_object_example(self):
        det = DetectionSet(
            Box(-1, -1, 1, 1),
            ((0, Box(0.5, -0.5, 1.5, 0.5)), (1, Box(1.5, -0.5, 2.5, 0.5))),
        )
        vec = detection_vector(det, 4)
        assert vec[0] == pytest.approx(1.0 / math.sqrt(1.25), abs=1e-9)
        assert vec[1] == pytest.approx(0.5 / math.sqrt(1.25), abs=1e-9)

    def test_no_objects_zero_vector(self):
        vec = detection_vector(DetectionSet(Box(0, 0, 2, 2)), 5)
        assert not vec.any()

    def test_unit_norm_when_nonempty(self, rng):
        for _ in range(25):
            objects = []
            for _ in range(int(rng.integers(1, 6))):
                x0, y0 = rng.uniform(-50, 50, 2)
                w, h = rng.uniform(0, 10, 2)
                objects.append((int(rng.integers(0, 10)), Box(x0, y0, x0 + w, y0 + h)))
            vec = detection_vector(DetectionSet(Box(0, 0, 1, 1), tuple(objects)), 10)
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_proximity_ordering(self):
        det = DetectionSet(
            Box(0, 0, 0, 0),
            ((2, Box(3, 0, 3, 0)), (5, Box(9, 0, 9, 0))),
        )
        vec = detection_vector(det, 6)
        assert vec[2] > vec[5] > 0

    def test_nearest_detection_wins_within_class(self):
        det = DetectionSet(
            Box(0, 0, 0, 0),
            ((1, Box(10, 0, 10, 0)), (1, Box(2, 0, 2, 0))),
        )
        vec = detection_vector(det, 3)
        expected = 1.0 / 2.0
        assert vec[1] == pytest.approx(expected / expected)  # normalized one-hot

    def test_distance_clamped_at_one_pixel(self):
        det = DetectionSet(Box(0, 0, 2, 2), ((0, Box(0, 0, 2, 2)), (1, Box(0.9, 0.9, 1.3, 1.3))))
        vec = detection_vector(det, 2)
        assert vec[0] == vec[1]  # both distances clamp to 1

    def test_class_out_of_range(self):
        det = DetectionSet(Box(0, 0, 1, 1), ((9, Box(2, 2, 3, 3)),))
        with pytest.raises(ValueError, match="outside"):
            detection_vector(det, 4)

    @pytest.mark.parametrize("n_classes", [0, -1])
    def test_class_count_must_be_positive(self, n_classes):
        with pytest.raises(ValueError, match=f"^class count must be positive, got {n_classes}$"):
            detection_vector(DetectionSet(Box(0, 0, 1, 1)), n_classes)


def test_pgm_round_trip(tmp_path, rng):
    image = RasterImage(rng.random((7, 11)))
    binary_path = tmp_path / "img.pgm"
    ascii_path = tmp_path / "img_ascii.pgm"
    write_pgm(image, binary_path, binary=True)
    write_pgm(image, ascii_path, binary=False)
    back_binary = read_pgm(binary_path)
    back_ascii = read_pgm(ascii_path)
    np.testing.assert_array_equal(back_binary.values, back_ascii.values)
    np.testing.assert_allclose(back_binary.values, image.values, atol=0.5 / 255.0 + 1e-12)
    assert binary_path.read_bytes().startswith(b"P5\n11 7\n255\n")


@pytest.mark.parametrize("maxval", [b"0", b"-3"])
def test_pgm_nonpositive_maxval_rejected(tmp_path, maxval):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 1\n" + maxval + b"\n0 0\n")
    with pytest.raises(ValueError, match="maxval must be positive"):
        read_pgm(path)


def test_pgm_sixteen_bit_samples_are_big_endian(tmp_path):
    path = tmp_path / "wide.pgm"
    path.write_bytes(b"P5\n2 1\n65535\n" + np.array([65535, 0], dtype=">u2").tobytes())
    assert read_pgm(path).values.tolist() == [[1.0, 0.0]]


@pytest.mark.parametrize("sample", [b"300", b"101"])
def test_pgm_sample_above_maxval_rejected(tmp_path, sample):
    path = tmp_path / "bright.pgm"
    path.write_bytes(b"P2\n2 1\n100\n0 " + sample + b"\n")
    with pytest.raises(ValueError, match=r"sample outside \[0, 100\]"):
        read_pgm(path)


@pytest.mark.parametrize("raster", [b"P5\n2 2\n255\n\x00\x01", b"P2\n2 2\n255\n0 1\n"])
def test_pgm_truncated_raster_rejected(tmp_path, raster):
    path = tmp_path / "short.pgm"
    path.write_bytes(raster)
    with pytest.raises(ValueError, match="expected 4 graymap samples, found 2"):
        read_pgm(path)


def test_pgm_unsupported_magic_names_the_file(tmp_path):
    path = tmp_path / "color.ppm"
    path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(ValueError) as err:
        read_pgm(path)
    assert str(err.value) == f"{path}: unsupported graymap magic b'P6'"
