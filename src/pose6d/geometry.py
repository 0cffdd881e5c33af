"""Rotation, pinhole-camera, and 2D-box primitives.

Conventions used across the toolkit:

- Quaternions are scalar-first ``(w, x, y, z)``. ``q`` and ``-q`` encode the
  same rotation (double cover); nothing here forces a canonical sign.
- Euler angles are radians, applied as intrinsic Tait-Bryan yaw-pitch-roll:
  yaw about the z axis, then pitch about the rotated y axis, then roll about
  the twice-rotated x axis. ``euler_from_quat`` returns each angle in
  ``(-pi, pi]`` with pitch in ``[-pi/2, pi/2]``; within ``GIMBAL_LOCK_MARGIN``
  of ``pitch = +/-pi/2`` roll and yaw become ill-conditioned and a
  :class:`GimbalLockWarning` is emitted; at the lock itself roll is
  reported as 0.
- Translations are camera-frame coordinates in meters, z along the optical
  axis. Pixels follow the pinhole model ``u = fx * x / z + cx``,
  ``v = fy * y / z + cy``.
- 2D boxes are pixel-space ``(x1, y1, x2, y2)``, finite, with ``x1 < x2, y1 < y2``,
  a finite width, height and area, and an area above 0.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

GIMBAL_LOCK_MARGIN = 1e-6

# Normalization is skipped when |norm^2 - 1| is below this, so feeding an
# already-unit quaternion back through keeps its bits (round-trip identity).
_UNIT_NORM_SQ_TOL = 1e-12

_ZERO_NORM_TOL = 1e-12

# At gimbal lock one half-angle magnitude of the pitch is 0; below this it
# is treated as 0 (roll set to 0), which moves the rotation by < 3e-12 rad.
_LOCK_TOL = 1e-12


def _reals(*values: object) -> bool:
    """Whether each value is a real number and not a bool, which would compare
    and draw as 0 or 1."""
    return all(isinstance(v, numbers.Real) and type(v) is not bool for v in values)


class ZeroNormError(ValueError):
    """Quaternion norm is too close to zero to define a rotation."""


class BehindCameraError(ValueError):
    """Point with z <= 0 has no pinhole projection."""


class NonPositiveDepthError(ValueError):
    """Back-projection requires a strictly positive depth."""


class GimbalLockWarning(UserWarning):
    """Pitch is within GIMBAL_LOCK_MARGIN of +/-pi/2; roll/yaw are coupled."""


@dataclass(frozen=True, slots=True)
class Quaternion:
    w: float
    x: float
    y: float
    z: float

    def dot(self, other: Quaternion) -> float:
        """The dot product of the components taken as floats, as
        ``quat_normalize`` and the item check take them: a float
        quaternion's keeps its bits, and a numpy float32 one's is the float
        the constructors test."""
        return (float(self.w) * float(other.w) + float(self.x) * float(other.x)
                + float(self.y) * float(other.y) + float(self.z) * float(other.z))

    def norm(self) -> float:
        return math.sqrt(self.dot(self))


@dataclass(frozen=True, slots=True)
class EulerAngles:
    """Intrinsic yaw-pitch-roll angles in radians (see module docstring)."""

    roll: float
    pitch: float
    yaw: float


@dataclass(frozen=True, slots=True)
class Translation:
    """Camera-frame position in meters; z > 0 is in front of the camera."""

    x: float
    y: float
    z: float


@dataclass(frozen=True, slots=True)
class Pose:
    rotation: Quaternion
    translation: Translation


@dataclass(frozen=True, slots=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self) -> None:
        if bool in (type(self.fx), type(self.fy), type(self.cx), type(self.cy)):  # 0 or 1 as a number
            raise ValueError(f"camera intrinsics must be numbers, not bools, got fx={self.fx}, "
                             f"fy={self.fy}, cx={self.cx}, cy={self.cy}")
        try:
            if not (self.fx > 0.0 and self.fy > 0.0):
                raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
            finite = (math.isfinite(self.fx) and math.isfinite(self.fy) and math.isfinite(self.cx)
                      and math.isfinite(self.cy))
        except OverflowError:  # an int beyond the float range
            finite = False
        except TypeError:  # a value that does not compare or convert as a number
            raise ValueError(f"camera intrinsics must be numbers, got fx={self.fx!r}, "
                             f"fy={self.fy!r}, cx={self.cx!r}, cy={self.cy!r}") from None
        if not finite:
            raise ValueError(f"camera intrinsics must be finite, got fx={self.fx}, "
                             f"fy={self.fy}, cx={self.cx}, cy={self.cy}")


@dataclass(frozen=True, slots=True)
class BBox2D:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        x1, y1, x2, y2 = self.x1, self.y1, self.x2, self.y2
        if type(x1) is bool or type(y1) is bool or type(x2) is bool or type(y2) is bool:
            # it would compare as 0 or 1
            raise ValueError(f"box coordinates must be numbers, not bools, got "
                             f"({x1}, {y1}, {x2}, {y2})")
        try:
            finite = math.isfinite(x1) and math.isfinite(y1) and math.isfinite(x2) and math.isfinite(y2)
        except OverflowError:  # an int beyond the float range
            finite = False
        except TypeError:  # a value that does not convert as a number
            raise ValueError(f"box coordinates must be numbers, got "
                             f"({x1!r}, {y1!r}, {x2!r}, {y2!r})") from None
        if not finite:
            raise ValueError(f"box coordinates must be finite, got ({x1}, {y1}, {x2}, {y2})")
        if not (x1 < x2 and y1 < y2):
            raise ValueError(f"degenerate box ({x1}, {y1}, {x2}, {y2}): requires x1 < x2 and y1 < y2")
        area = (x2 - x1) * (y2 - y1)
        try:
            finite = math.isfinite(area)  # w, h > 0 here, so an inf w or h makes it inf
        except OverflowError:  # the area of ints, beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"box width, height and area must be finite, got "
                             f"({x1}, {y1}, {x2}, {y2})")
        if not area > 0.0:  # w, h > 0 here, but their product can underflow to 0
            raise ValueError(f"box area must be positive, got ({x1}, {y1}, {x2}, {y2}) with "
                             f"area {area}")

    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


def quat_normalize(q: Quaternion) -> Quaternion:
    """Scale ``q`` to unit norm.

    Raises ZeroNormError when the norm is below 1e-12. An input that is
    already unit to within floating-point noise is returned unchanged so that
    normalization is idempotent at the bit level. The test is made on the
    components as floats (a numpy float32 too), as the item constructors and
    the reader make it, so what it returns is a quaternion they accept. When
    the squared norm overflows, ``q`` is first divided by its largest
    absolute component, so ``(1e308, 0, 0, 0)`` becomes ``(1, 0, 0, 0)``; an
    input whose squared norm is finite skips that step, so its result keeps
    the same bits.
    """
    w, x, y, z = q.w, q.x, q.y, q.z
    norm_sq = w * w + x * x + y * y + z * z  # in Quaternion.dot's order
    if type(norm_sq) is not float:  # an int's, or a numpy float32's: take them as floats
        w, x, y, z = float(w), float(x), float(y), float(z)
        norm_sq = w * w + x * x + y * y + z * z
    if math.isinf(norm_sq):
        scale = max(abs(w), abs(x), abs(y), abs(z))
        w, x, y, z = w / scale, x / scale, y / scale, z / scale
        q = Quaternion(w, x, y, z)
        norm_sq = w * w + x * x + y * y + z * z
    if norm_sq < _ZERO_NORM_TOL * _ZERO_NORM_TOL:
        raise ZeroNormError(f"cannot normalize quaternion with norm {math.sqrt(norm_sq)!r}")
    if abs(norm_sq - 1.0) <= _UNIT_NORM_SQ_TOL:
        return q
    n = math.sqrt(norm_sq)
    return Quaternion(w / n, x / n, y / n, z / n)


def quat_conjugate(q: Quaternion) -> Quaternion:
    return Quaternion(q.w, -q.x, -q.y, -q.z)


def quat_multiply(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product ``a * b`` (apply ``b`` first, then ``a``)."""
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def quat_from_euler(e: EulerAngles) -> Quaternion:
    """Convert intrinsic yaw-pitch-roll angles to a unit quaternion."""
    cy = math.cos(e.yaw * 0.5)
    sy = math.sin(e.yaw * 0.5)
    cp = math.cos(e.pitch * 0.5)
    sp = math.sin(e.pitch * 0.5)
    cr = math.cos(e.roll * 0.5)
    sr = math.sin(e.roll * 0.5)
    return Quaternion(
        cr * cp * cy + sr * sp * sy,
        sr * cp * cy - cr * sp * sy,
        cr * sp * cy + sr * cp * sy,
        cr * cp * sy - sr * sp * cy,
    )


def _wrap_angle(a: float) -> float:
    """Map an angle to (-pi, pi]."""
    r = math.remainder(a, math.tau)
    return math.pi if r <= -math.pi else r


def euler_from_quat(q: Quaternion) -> EulerAngles:
    """Convert a quaternion to intrinsic yaw-pitch-roll angles.

    Pitch comes from atan2 of the half-angle magnitudes
    ``|cos(p/2) +/- sin(p/2)|``, and roll/yaw from the half-angle sum and
    difference ``(roll +/- yaw) / 2``, so every angle is well conditioned up
    to the lock itself. Where one of those magnitudes vanishes (pitch at
    +/-pi/2) roll and yaw are not separately observable: the full twist
    goes to yaw, roll is 0, and a GimbalLockWarning is emitted.
    """
    q = quat_normalize(q)
    up = math.hypot(q.w + q.y, q.x - q.z)    # |cos(p/2) + sin(p/2)|
    down = math.hypot(q.w - q.y, q.x + q.z)  # |cos(p/2) - sin(p/2)|
    pitch = 2.0 * math.atan2(up, down) - math.pi / 2.0
    half_diff = math.atan2(q.x - q.z, q.w + q.y)  # (roll - yaw) / 2
    half_sum = math.atan2(q.x + q.z, q.w - q.y)   # (roll + yaw) / 2
    if min(up, down) <= _LOCK_TOL:
        if down <= _LOCK_TOL:
            half_sum = -half_diff
        else:
            half_diff = -half_sum
        warnings.warn("pitch at +/-pi/2: roll/yaw are coupled", GimbalLockWarning, stacklevel=2)
        return EulerAngles(roll=0.0, pitch=pitch, yaw=_wrap_angle(half_sum - half_diff))
    if abs(pitch) >= math.pi / 2.0 - GIMBAL_LOCK_MARGIN:
        warnings.warn("pitch within 1e-6 of +/-pi/2: roll/yaw are ill-conditioned",
                      GimbalLockWarning, stacklevel=2)
    return EulerAngles(roll=_wrap_angle(half_sum + half_diff), pitch=pitch,
                       yaw=_wrap_angle(half_sum - half_diff))


def angular_error(q_gt: Quaternion, q_pred: Quaternion) -> float:
    """Geodesic rotation distance in radians, in [0, pi].

    Equals ``2 * arccos(|q_gt . q_pred|)`` for unit inputs but is computed
    from the relative rotation with atan2, which is exact at 0 (identical
    inputs give exactly 0.0) and well conditioned for tiny angles. Inputs
    are normalized defensively; the sign ambiguity of the double cover is
    absorbed by the absolute value.
    """
    return _unit_angle(quat_normalize(q_gt), quat_normalize(q_pred))


def _unit_angle(a: Quaternion, b: Quaternion) -> float:
    """``angular_error`` of two quaternions that ``quat_normalize`` returns
    unchanged, without normalizing them: every item holds such a quaternion,
    so matching calls this directly."""
    # vector and scalar parts of conjugate(a) * b; the pairwise grouping
    # cancels exactly when a and b carry identical bits
    rx = (a.w * b.x - a.x * b.w) - (a.y * b.z - a.z * b.y)
    ry = (a.w * b.y - a.y * b.w) + (a.x * b.z - a.z * b.x)
    rz = (a.w * b.z - a.z * b.w) - (a.x * b.y - a.y * b.x)
    rw = a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z
    return 2.0 * math.atan2(math.hypot(rx, ry, rz), abs(rw))


def project(p: Translation, k: CameraIntrinsics) -> tuple[float, float]:
    """Pinhole-project a camera-frame point to pixel coordinates (u, v)."""
    if p.z <= 0.0:
        raise BehindCameraError(f"cannot project point with z={p.z}")
    return (k.fx * p.x / p.z + k.cx, k.fy * p.y / p.z + k.cy)


def backproject(u: float, v: float, z: float, k: CameraIntrinsics) -> Translation:
    """Invert the pinhole projection at a known depth z."""
    if z <= 0.0:
        raise NonPositiveDepthError(f"back-projection requires z > 0, got z={z}")
    return Translation((u - k.cx) * z / k.fx, (v - k.cy) * z / k.fy, z)


def bbox_center(b: BBox2D) -> tuple[float, float]:
    return ((b.x1 + b.x2) * 0.5, (b.y1 + b.y2) * 0.5)


def iou_2d(a: BBox2D, b: BBox2D) -> float:
    """Intersection-over-union of two boxes; 0.0 when disjoint."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    if (union := a.area() + b.area() - inter) == math.inf:
        return _halved_iou(inter, a.area(), b.area())
    return inter / union


def _halved_iou(inter: float, area_a: float, area_b: float) -> float:
    """IoU of a pair whose union overflows: halving every term changes no quotient."""
    return inter * 0.5 / (area_a * 0.5 + area_b * 0.5 - inter * 0.5)


def extent_bbox(t: Translation, width_m: float, height_m: float, k: CameraIntrinsics) -> BBox2D:
    """Box of a fronto-parallel ``width_m x height_m`` panel centered at ``t``.

    The box is centered exactly on ``project(t)``, so back-projecting its
    center at depth ``t.z`` recovers ``(t.x, t.y)`` up to rounding. Object
    rotation is deliberately ignored; this is a visibility footprint, not a
    tight silhouette.
    """
    u, v = project(t, k)
    hw = 0.5 * k.fx * width_m / t.z
    hh = 0.5 * k.fy * height_m / t.z
    return BBox2D(u - hw, v - hh, u + hw, v + hh)
