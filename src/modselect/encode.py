"""Modality encoders for precomputed keypoints and object detections."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

# Limb pairs for the standard 17-joint body layout
# (nose, eyes, ears, shoulders, elbows, wrists, hips, knees, ankles).
DEFAULT_SKELETON: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (1, 3), (2, 4),
    (3, 5), (4, 6), (5, 6), (5, 7), (6, 8), (7, 9), (8, 10),
    (5, 11), (6, 12), (11, 12), (11, 13), (12, 14), (13, 15), (14, 16),
)

DEFAULT_DETECTION_CLASSES = 80

# Input rules, also checked by the CSV readers, which name the offending line.
CONFIDENCE_RULE = "joint confidences must lie in [0, 1]"
CLASS_INDEX_RULE = "object class indices must be nonnegative"


@dataclass(frozen=True, eq=False)
class Keypoints:
    """Joint locations with detection confidences, one row per joint (x, y, c)."""

    joints: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.joints, dtype=np.float64).reshape(-1, 3)
        if arr.size and not np.isfinite(arr[:, :2]).all():
            raise ValueError("joint coordinates must be finite")
        conf = arr[:, 2]
        if arr.size and ((conf < 0.0) | (conf > 1.0) | ~np.isfinite(conf)).any():
            raise ValueError(CONFIDENCE_RULE)
        arr.setflags(write=False)
        object.__setattr__(self, "joints", arr)

    def __len__(self) -> int:
        return self.joints.shape[0]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box (x_min, y_min, x_max, y_max) with nonnegative extent."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_min, self.y_min, self.x_max, self.y_max))):
            raise ValueError("box coordinates must be finite")
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError("box extent must be nonnegative")

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))


@dataclass(frozen=True)
class DetectionSet:
    """A person box plus detected objects as (class_index, box) pairs."""

    person_box: Box
    objects: tuple[tuple[int, Box], ...] = ()

    def __post_init__(self):
        objects = tuple((int(c), b) for c, b in self.objects)
        for class_index, _ in objects:
            if class_index < 0:
                raise ValueError(CLASS_INDEX_RULE)
        object.__setattr__(self, "objects", objects)


@dataclass(frozen=True, eq=False)
class RasterImage:
    """Single-channel image with values clamped to [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.clip(np.asarray(self.values, dtype=np.float64), 0.0, 1.0)
        if arr.ndim != 2:
            raise ValueError("raster image must be 2-D")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def heatmap(
    keypoints: Keypoints,
    width: int,
    height: int,
    sigma: float = 6.0,
    combine: str = "max",
) -> RasterImage:
    """Render confidence-weighted Gaussian maps around each joint.

    Each joint contributes ``exp(-((x - xi)^2 + (y - yi)^2) / (2 sigma^2)) * ci``
    at pixel (x, y); overlapping maps are combined by pixelwise maximum,
    which keeps values in [0, 1] and preserves each joint's confidence at its
    peak. ``combine="sum"`` adds the maps and clamps instead. Joints outside
    the frame still contribute their in-frame tail.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if combine not in ("max", "sum"):
        raise ValueError("combine must be 'max' or 'sum'")
    if width < 1 or height < 1:
        raise ValueError("raster dimensions must be positive")
    image = np.zeros((height, width))
    if len(keypoints) == 0:
        return RasterImage(image)
    xs = np.arange(width, dtype=np.float64)
    ys = np.arange(height, dtype=np.float64)
    inv = 1.0 / (2.0 * sigma * sigma)
    for x_i, y_i, c_i in keypoints.joints:
        gx = np.exp(-((xs - x_i) ** 2) * inv)
        gy = np.exp(-((ys - y_i) ** 2) * inv)
        g = c_i * np.outer(gy, gx)
        if combine == "max":
            np.maximum(image, g, out=image)
        else:
            image += g
    return RasterImage(image)


def _bresenham(x0: int, y0: int, x1: int, y1: int):
    dx = abs(x1 - x0)
    sx = 1 if x0 < x1 else -1
    dy = -abs(y1 - y0)
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    while True:
        yield x0, y0
        if x0 == x1 and y0 == y1:
            return
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def limbs(
    keypoints: Keypoints,
    width: int,
    height: int,
    skeleton: Sequence[tuple[int, int]] = DEFAULT_SKELETON,
) -> RasterImage:
    """Rasterize skeleton edges as 1-pixel lines.

    Each edge is drawn at the smaller of its endpoint confidences; where
    edges overlap the brighter value wins. Endpoints are rounded to the
    nearest pixel and segments are clipped to the frame.
    """
    if width < 1 or height < 1:
        raise ValueError("raster dimensions must be positive")
    joints = keypoints.joints
    image = np.zeros((height, width))
    for a, b in skeleton:
        if not (0 <= a < len(joints)) or not (0 <= b < len(joints)):
            raise ValueError(f"skeleton edge ({a}, {b}) outside joint range")
        intensity = min(joints[a, 2], joints[b, 2])
        if intensity <= 0.0:
            continue
        x0, y0 = int(round(joints[a, 0])), int(round(joints[a, 1]))
        x1, y1 = int(round(joints[b, 0])), int(round(joints[b, 1]))
        for x, y in _bresenham(x0, y0, x1, y1):
            if 0 <= x < width and 0 <= y < height:
                if image[y, x] < intensity:
                    image[y, x] = intensity
    return RasterImage(image)


def detection_vector(detections: DetectionSet, n_classes: int = DEFAULT_DETECTION_CLASSES) -> np.ndarray:
    """Encode detections as normalized reciprocal distances to the person.

    Entry i holds the reciprocal Euclidean distance between the person's box
    center and the nearest class-i object's center, so closer objects weigh
    more; distances are clamped below at one pixel. Absent classes stay 0.
    The vector is scaled to unit norm when any object is present.
    """
    if n_classes < 1:
        raise ValueError(f"class count must be positive, got {n_classes}")
    vector = np.zeros(n_classes)
    px, py = detections.person_box.center
    for class_index, box in detections.objects:
        if class_index >= n_classes:
            raise ValueError(
                f"class index {class_index} outside [0, {n_classes})"
            )
        ox, oy = box.center
        distance = max(float(np.hypot(ox - px, oy - py)), 1.0)
        vector[class_index] = max(vector[class_index], 1.0 / distance)
    norm = float(np.linalg.norm(vector))
    if norm > 0.0:
        vector /= norm
    return vector


def write_pgm(image: RasterImage, path, binary: bool = True) -> None:
    """Write a raster as a portable graymap (P5 binary, or P2 ASCII), making its directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    gray = np.round(image.values * 255.0).astype(np.uint8)
    header = f"{'P5' if binary else 'P2'}\n{image.width} {image.height}\n255\n"
    if binary:
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(gray.tobytes())
    else:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(header)
            for row in gray:
                fh.write(" ".join(str(int(v)) for v in row) + "\n")


def read_pgm(path) -> RasterImage:
    """Read a P2/P5 graymap back into a raster (values rescaled to [0, 1]).

    Binary samples take two bytes, most significant first, when maxval
    exceeds 255. A sample above maxval or a short raster is an error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    magic = fields[0]
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"{path}: unsupported graymap magic {magic!r}")
    try:
        width, height, maxval = map(int, fields[1:])
    except ValueError:
        raise ValueError(f"{path}: malformed graymap header") from None
    if maxval <= 0:
        raise ValueError(f"{path}: graymap maxval must be positive, got {maxval}")
    if maxval > 65535:
        raise ValueError(f"{path}: graymap maxval must be at most 65535, got {maxval}")
    if width < 0 or height < 0:
        raise ValueError(f"{path}: graymap dimensions must be nonnegative")
    pos += 1
    if magic == b"P5":
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        samples = data[pos : pos + width * height * dtype.itemsize]
        raw = np.frombuffer(samples[: len(samples) - len(samples) % dtype.itemsize], dtype=dtype)
    else:
        try:
            raw = np.array([int(v) for v in data[pos:].split()], dtype=np.int64)
        except (ValueError, OverflowError):
            raise ValueError(f"{path}: graymap samples must be integers") from None
    if raw.size != width * height:
        raise ValueError(f"{path}: expected {width * height} graymap samples, found {raw.size}")
    if raw.size and (raw.min() < 0 or raw.max() > maxval):
        raise ValueError(f"{path}: graymap sample outside [0, {maxval}]")
    grid = raw.reshape(height, width).astype(np.float64) / float(maxval)
    return RasterImage(grid)
