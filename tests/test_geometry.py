"""Quaternion algebra, Euler conversions, and pinhole camera tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pose6d import (
    Annotation,
    BBox2D,
    BehindCameraError,
    CameraIntrinsics,
    EulerAngles,
    GimbalLockWarning,
    NonPositiveDepthError,
    Pose,
    Quaternion,
    Translation,
    ZeroNormError,
    angular_error,
    backproject,
    bbox_center,
    euler_from_quat,
    extent_bbox,
    iou_2d,
    project,
    quat_conjugate,
    quat_from_euler,
    quat_multiply,
    quat_normalize,
)
from pose6d.geometry import _UNIT_NORM_SQ_TOL, _unit_angle

K = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0)

IDENTITY = Quaternion(1.0, 0.0, 0.0, 0.0)

HALF_SQRT2 = math.sqrt(0.5)


@st.composite
def unit_quats(draw):
    comps = [draw(st.floats(-1.0, 1.0)) for _ in range(4)]
    assume(sum(c * c for c in comps) > 1e-4)
    return quat_normalize(Quaternion(*comps))


def axis_quat(axis: tuple[float, float, float], angle: float) -> Quaternion:
    s = math.sin(angle / 2.0)
    return Quaternion(math.cos(angle / 2.0), s * axis[0], s * axis[1], s * axis[2])


class TestQuatAlgebra:
    def test_normalize_scales_to_unit(self):
        q = quat_normalize(Quaternion(2.0, 0.0, 0.0, 0.0))
        assert q == Quaternion(1.0, 0.0, 0.0, 0.0)

    def test_normalize_keeps_unit_input_bit_exact(self):
        q = Quaternion(0.5, 0.5, 0.5, 0.5)
        assert quat_normalize(q) is q

    @given(unit_quats())
    def test_normalize_is_idempotent_at_bit_level(self, q):
        assert quat_normalize(q) is q

    @pytest.mark.parametrize("q", [
        Quaternion(0.0, 0.0, 0.0, 0.0),
        Quaternion(1e-13, 0.0, 0.0, 0.0),
    ])
    def test_normalize_rejects_vanishing_norm(self, q):
        with pytest.raises(ZeroNormError):
            quat_normalize(q)

    @pytest.mark.parametrize("q, expected", [
        # squaring overflowed to inf, and dividing by it gave the zero quaternion
        (Quaternion(1e308, 0.0, 0.0, 0.0), Quaternion(1.0, 0.0, 0.0, 0.0)),
        (Quaternion(0.0, -1e308, 1e308, 0.0), quat_normalize(Quaternion(0.0, -1.0, 1.0, 0.0))),
    ])
    def test_normalize_survives_an_overflowing_norm(self, q, expected):
        assert quat_normalize(q) == expected

    @given(st.tuples(*[st.floats(-1e150, 1e150)] * 4))
    def test_normalize_keeps_its_bits_while_the_squared_norm_is_finite(self, comps):
        q = Quaternion(*comps)
        norm_sq = q.dot(q)
        assume(norm_sq >= 1e-24)
        n = math.sqrt(norm_sq)
        before = q if abs(norm_sq - 1.0) <= 1e-12 else Quaternion(*(c / n for c in comps))
        assert quat_normalize(q) == before

    def test_multiply_follows_hamilton_convention(self):
        i = Quaternion(0.0, 1.0, 0.0, 0.0)
        j = Quaternion(0.0, 0.0, 1.0, 0.0)
        k = Quaternion(0.0, 0.0, 0.0, 1.0)
        assert quat_multiply(i, j) == k
        assert quat_multiply(j, i) == Quaternion(0.0, 0.0, 0.0, -1.0)

    @given(unit_quats())
    def test_identity_is_neutral(self, q):
        assert quat_multiply(IDENTITY, q) == q
        assert quat_multiply(q, IDENTITY) == q

    @given(unit_quats())
    def test_conjugate_inverts_unit_quaternions(self, q):
        r = quat_multiply(q, quat_conjugate(q))
        assert angular_error(r, IDENTITY) < 1e-9

    def test_dot_and_norm(self):
        q = Quaternion(1.0, 2.0, 3.0, 4.0)
        assert q.dot(q) == 30.0
        assert q.norm() == pytest.approx(math.sqrt(30.0))

    @given(st.tuples(*[st.floats(-1e150, 1e150)] * 8))
    def test_a_float_dot_keeps_its_bits(self, comps):
        a, b = Quaternion(*comps[:4]), Quaternion(*comps[4:])
        assert repr(a.dot(b)) == repr(a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z)

    def test_dot_and_norm_take_the_components_as_floats(self):
        # in float32 arithmetic this quaternion is exactly unit, but its
        # components as floats, which the constructors test, are not
        q = Quaternion(np.float32(0.6), np.float32(0.8), 0.0, 0.0)
        assert (type(q.dot(q)), q.dot(q)) == (float, 1.0000000476837165)
        assert q.norm() == math.sqrt(1.0000000476837165)
        with pytest.raises(ValueError, match=r"with squared norm 1\.0000000476837165$"):
            Annotation(0, Pose(q, Translation(0.0, 0.0, 1.0)))
        n = Quaternion(1, 2, 3, 4)
        assert (type(n.dot(n)), n.dot(n), n.norm()) == (float, 30.0, math.sqrt(30.0))


class TestEulerConversion:
    @pytest.mark.parametrize("angles, expected", [
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
        ((math.pi, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)),
        ((math.pi / 2, 0.0, 0.0), (HALF_SQRT2, HALF_SQRT2, 0.0, 0.0)),
        ((0.0, math.pi / 2, 0.0), (HALF_SQRT2, 0.0, HALF_SQRT2, 0.0)),
        ((0.0, 0.0, math.pi / 2), (HALF_SQRT2, 0.0, 0.0, HALF_SQRT2)),
    ])
    def test_single_axis_values(self, angles, expected):
        roll, pitch, yaw = angles
        q = quat_from_euler(EulerAngles(roll=roll, pitch=pitch, yaw=yaw))
        assert (q.w, q.x, q.y, q.z) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(-3.0, 3.0), st.floats(-1.5, 1.5), st.floats(-3.0, 3.0))
    def test_composition_is_yaw_then_pitch_then_roll(self, roll, pitch, yaw):
        # intrinsic z-y'-x'': q = q_z(yaw) * q_y(pitch) * q_x(roll)
        composed = quat_multiply(
            axis_quat((0.0, 0.0, 1.0), yaw),
            quat_multiply(axis_quat((0.0, 1.0, 0.0), pitch), axis_quat((1.0, 0.0, 0.0), roll)),
        )
        direct = quat_from_euler(EulerAngles(roll=roll, pitch=pitch, yaw=yaw))
        assert angular_error(direct, composed) < 1e-9

    @given(unit_quats())
    # just short of gimbal lock: an asin pitch snapped to -pi/2 missed by 1.7e-7
    @example(Quaternion(w=8.429369705659068e-08, x=0.707106781186545, y=0.0, z=0.707106781186545))
    def test_quat_euler_quat_round_trip(self, q):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GimbalLockWarning)
            back = quat_from_euler(euler_from_quat(q))
        assert angular_error(q, back) < 1e-9

    @given(st.floats(-3.1, 3.1), st.floats(-1.4, 1.4), st.floats(-3.1, 3.1))
    def test_euler_quat_euler_round_trip(self, roll, pitch, yaw):
        e = euler_from_quat(quat_from_euler(EulerAngles(roll=roll, pitch=pitch, yaw=yaw)))
        assert e.roll == pytest.approx(roll, abs=1e-9)
        assert e.pitch == pytest.approx(pitch, abs=1e-9)
        assert e.yaw == pytest.approx(yaw, abs=1e-9)

    @given(unit_quats())
    def test_angles_fall_in_principal_ranges(self, q):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GimbalLockWarning)
            e = euler_from_quat(q)
        assert -math.pi < e.roll <= math.pi
        assert -math.pi / 2 <= e.pitch <= math.pi / 2
        assert -math.pi < e.yaw <= math.pi

    @pytest.mark.parametrize("pitch", [math.pi / 2, -math.pi / 2])
    def test_gimbal_lock_warns_and_still_round_trips(self, pitch):
        q = quat_from_euler(EulerAngles(roll=0.0, pitch=pitch, yaw=0.3))
        with pytest.warns(GimbalLockWarning):
            e = euler_from_quat(q)
        assert e.roll == 0.0
        assert e.pitch == pytest.approx(pitch)
        assert angular_error(q, quat_from_euler(e)) < 1e-9

    def test_near_lock_warns_but_keeps_converting(self):
        q = quat_from_euler(EulerAngles(roll=0.2, pitch=math.pi / 2 - 5e-7, yaw=0.1))
        with pytest.warns(GimbalLockWarning):
            e = euler_from_quat(q)
        assert angular_error(q, quat_from_euler(e)) < 1e-6


class TestAngularError:
    @given(unit_quats())
    def test_identical_inputs_give_exactly_zero(self, q):
        assert angular_error(q, q) == 0.0

    @given(unit_quats())
    def test_double_cover_gives_exactly_zero(self, q):
        negated = Quaternion(-q.w, -q.x, -q.y, -q.z)
        assert angular_error(q, negated) == 0.0

    @pytest.mark.parametrize("theta", [1e-6, 0.1, 1.0, math.pi / 2, 3.0])
    def test_single_axis_rotation_recovers_the_angle(self, theta):
        q = axis_quat((1.0, 0.0, 0.0), theta)
        assert angular_error(IDENTITY, q) == pytest.approx(theta, abs=1e-12)

    @given(unit_quats(), unit_quats())
    def test_symmetry(self, a, b):
        assert angular_error(a, b) == angular_error(b, a)

    @given(unit_quats(), unit_quats())
    def test_range_is_zero_to_pi(self, a, b):
        err = angular_error(a, b)
        assert 0.0 <= err <= math.pi + 1e-12

    @given(unit_quats(), unit_quats(), unit_quats())
    def test_invariance_under_common_rotation(self, r, a, b):
        rotated = angular_error(quat_multiply(r, a), quat_multiply(r, b))
        assert rotated == pytest.approx(angular_error(a, b), abs=1e-9)

    @given(unit_quats(), unit_quats())
    def test_agrees_with_arccos_of_absolute_dot(self, a, b):
        reference = 2.0 * math.acos(min(1.0, abs(a.dot(b))))
        assert angular_error(a, b) == pytest.approx(reference, abs=1e-6)

    def test_normalizes_inputs_before_comparing(self):
        doubled = Quaternion(2.0, 0.0, 0.0, 0.0)
        assert angular_error(doubled, IDENTITY) == 0.0


@st.composite
def near_unit_quats(draw):
    """A unit quaternion, now and then scaled by up to 4e-13 off unit: one
    that quat_normalize returns unchanged, as every item holds."""
    q = draw(unit_quats())
    s = 1.0 + draw(st.sampled_from([0.0, 4e-13, -4e-13, 1e-16]))
    q = Quaternion(q.w * s, q.x * s, q.y * s, q.z * s)
    assume(abs(q.dot(q) - 1.0) <= _UNIT_NORM_SQ_TOL)
    return q


class TestUnitKernel:
    """Matching takes its angles from ``_unit_angle``, which skips
    ``angular_error``'s normalizing: the two must agree to the bit on
    every quaternion an item can hold."""

    @given(near_unit_quats(), near_unit_quats())
    @example(IDENTITY, IDENTITY)
    @example(IDENTITY, Quaternion(-1.0, 0.0, 0.0, 0.0))
    @example(Quaternion(0.5, 0.5, 0.5, 0.5), Quaternion(0.5, -0.5, 0.5, -0.5))
    def test_unit_angle_is_angular_error_to_the_bit(self, a, b):
        assert quat_normalize(a) is a and quat_normalize(b) is b
        assert _unit_angle(a, b).hex() == angular_error(a, b).hex()

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    @example(1e308, -1e308, 1e308)
    @example(-1e308, 1e308, -1e308)
    @example(5e-324, 0.0, -5e-324)
    def test_an_euler_quaternion_is_unit_within_the_tolerance(self, roll, pitch, yaw):
        # the reader's Euler fast path stores this quaternion with no unit test
        q = quat_from_euler(EulerAngles(roll=roll, pitch=pitch, yaw=yaw))
        assert abs(q.w * q.w + q.x * q.x + q.y * q.y + q.z * q.z - 1.0) <= _UNIT_NORM_SQ_TOL
        assert quat_normalize(q) is q


class TestPinholeCamera:
    def test_project_known_point(self):
        assert project(Translation(2.0, 1.0, 10.0), K) == (1160.0, 640.0)

    @pytest.mark.parametrize("z", [0.0, -1.0])
    def test_project_rejects_nonpositive_depth(self, z):
        with pytest.raises(BehindCameraError):
            project(Translation(0.0, 0.0, z), K)

    def test_backproject_known_pixel(self):
        assert backproject(1160.0, 640.0, 10.0, K) == Translation(2.0, 1.0, 10.0)

    @pytest.mark.parametrize("z", [0.0, -2.0])
    def test_backproject_rejects_nonpositive_depth(self, z):
        with pytest.raises(NonPositiveDepthError):
            backproject(960.0, 540.0, z, K)

    @given(st.floats(0.0, 3840.0), st.floats(0.0, 2160.0), st.floats(0.1, 200.0))
    def test_project_backproject_round_trip(self, u, v, z):
        uu, vv = project(backproject(u, v, z, K), K)
        assert uu == pytest.approx(u, abs=1e-6)
        assert vv == pytest.approx(v, abs=1e-6)

    @pytest.mark.parametrize("fx, fy", [(0.0, 1000.0), (1000.0, -5.0)])
    def test_intrinsics_require_positive_focal_lengths(self, fx, fy):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=fx, fy=fy, cx=0.0, cy=0.0)

    @pytest.mark.parametrize("values, shown", [
        # it built, and recover_xy then moved a box centered at u = 150 (z = 10)
        # to x = -0.0 instead of -8.1
        ((math.inf, 1000.0, 960.0, 540.0), "fx=inf, fy=1000.0, cx=960.0, cy=540.0"),
        ((1000.0, math.inf, 960.0, 540.0), "fx=1000.0, fy=inf, cx=960.0, cy=540.0"),
        ((1000.0, 1000.0, math.nan, 540.0), "fx=1000.0, fy=1000.0, cx=nan, cy=540.0"),
        ((1000.0, 1000.0, 960.0, -math.inf), "fx=1000.0, fy=1000.0, cx=960.0, cy=-inf"),
        # an int beyond the float range raised OverflowError, not ValueError
        ((10 ** 400, 1000.0, 960.0, 540.0), f"fx={10 ** 400}, fy=1000.0, cx=960.0, cy=540.0"),
        ((1000.0, 1000.0, -10 ** 400, 540.0), f"fx=1000.0, fy=1000.0, cx={-10 ** 400}, cy=540.0"),
    ], ids=["fx inf", "fy inf", "cx nan", "cy -inf", "fx huge int", "cx huge int"])
    def test_intrinsics_must_be_finite(self, values, shown):
        with pytest.raises(ValueError) as err:
            CameraIntrinsics(*values)
        assert str(err.value) == f"camera intrinsics must be finite, got {shown}"

    # each raised TypeError from a comparison or math.isfinite
    @pytest.mark.parametrize("values, shown", [
        (("a", 1.0, 1.0, 1.0), "fx='a', fy=1.0, cx=1.0, cy=1.0"),
        ((1.0, 1.0, "a", 1.0), "fx=1.0, fy=1.0, cx='a', cy=1.0"),
    ], ids=["fx", "cx"])
    def test_intrinsics_must_be_numbers(self, values, shown):
        with pytest.raises(ValueError) as err:
            CameraIntrinsics(*values)
        assert str(err.value) == f"camera intrinsics must be numbers, got {shown}"

    # each built, and save_camera then wrote a file that load_camera refused
    @pytest.mark.parametrize("values, shown", [
        ((True, 1.0, 1.0, False), "fx=True, fy=1.0, cx=1.0, cy=False"),
        ((1.0, True, 1.0, 1.0), "fx=1.0, fy=True, cx=1.0, cy=1.0"),
        ((1.0, 1.0, False, 1.0), "fx=1.0, fy=1.0, cx=False, cy=1.0"),
    ], ids=["fx and cy", "fy", "cx"])
    def test_intrinsics_must_not_be_bools(self, values, shown):
        with pytest.raises(ValueError) as err:
            CameraIntrinsics(*values)
        assert str(err.value) == f"camera intrinsics must be numbers, not bools, got {shown}"


class TestBoxes:
    def test_iou_partial_overlap(self):
        a = BBox2D(0.0, 0.0, 2.0, 2.0)
        b = BBox2D(1.0, 1.0, 3.0, 3.0)
        assert iou_2d(a, b) == pytest.approx(1.0 / 7.0)

    def test_iou_identical_boxes(self):
        a = BBox2D(10.0, 20.0, 30.0, 50.0)
        assert iou_2d(a, a) == 1.0

    @pytest.mark.parametrize("b", [
        BBox2D(5.0, 0.0, 7.0, 2.0),   # disjoint
        BBox2D(2.0, 0.0, 4.0, 2.0),   # edge contact only
    ])
    def test_iou_zero_without_overlapping_area(self, b):
        assert iou_2d(BBox2D(0.0, 0.0, 2.0, 2.0), b) == 0.0

    box_floats = st.floats(-100.0, 100.0)

    @given(box_floats, box_floats, st.floats(0.1, 50.0), st.floats(0.1, 50.0),
           box_floats, box_floats, st.floats(0.1, 50.0), st.floats(0.1, 50.0))
    def test_iou_is_symmetric_and_bounded(self, ax, ay, aw, ah, bx, by, bw, bh):
        a = BBox2D(ax, ay, ax + aw, ay + ah)
        b = BBox2D(bx, by, bx + bw, by + bh)
        assert iou_2d(a, b) == iou_2d(b, a)
        assert 0.0 <= iou_2d(a, b) <= 1.0

    @pytest.mark.parametrize("coords", [(2.0, 0.0, 1.0, 3.0), (0.0, 0.0, 1.0, 0.0)])
    def test_degenerate_boxes_are_rejected(self, coords):
        with pytest.raises(ValueError):
            BBox2D(*coords)

    @pytest.mark.parametrize("coords, shown", [
        # such a box used to construct, save as Infinity and then fail to load
        ((0.0, 0.0, math.inf, 10.0), "(0.0, 0.0, inf, 10.0)"),
        ((-math.inf, 0.0, 1.0, 1.0), "(-inf, 0.0, 1.0, 1.0)"),
        ((0.0, math.nan, 1.0, 1.0), "(0.0, nan, 1.0, 1.0)"),
    ])
    def test_non_finite_boxes_are_rejected(self, coords, shown):
        with pytest.raises(ValueError) as err:
            BBox2D(*coords)
        assert str(err.value) == f"box coordinates must be finite, got {shown}"

    def test_a_box_of_a_non_number_is_rejected(self):
        # math.isfinite raised TypeError
        with pytest.raises(ValueError) as err:
            BBox2D("a", 0, 1, 1)
        assert str(err.value) == "box coordinates must be numbers, got ('a', 0, 1, 1)"

    @pytest.mark.parametrize("coords, message", [
        # the checks run field by field, in this order: a bool, a non-number,
        # a non-finite coordinate, a degenerate box; the first one met is named
        ((True, math.nan, 1.0, 1.0), "must be numbers, not bools, got (True, nan, 1.0, 1.0)"),
        ((math.nan, "a", 1.0, 1.0), "must be finite, got (nan, a, 1.0, 1.0)"),
        (("a", math.nan, 1.0, 1.0), "must be numbers, got ('a', nan, 1.0, 1.0)"),
        ((10 ** 400, "a", 1.0, 2.0), f"must be finite, got ({10 ** 400}, a, 1.0, 2.0)"),
        ((2.0, 0.0, 1.0, math.nan), "must be finite, got (2.0, 0.0, 1.0, nan)"),
        ((None, 0.0, 1.0, 1.0), "must be numbers, got (None, 0.0, 1.0, 1.0)"),
    ], ids=["bool before nan", "nan before str", "str before nan", "huge int before str",
            "nan before degenerate", "None"])
    def test_the_first_refusal_met_wins(self, coords, message):
        with pytest.raises(ValueError) as err:
            BBox2D(*coords)
        assert str(err.value) == f"box coordinates {message}"

    @pytest.mark.parametrize("coords, shown", [
        # finite coordinates whose area overflowed: area() inf, iou_2d(b, b) NaN
        ((-1e308, 0.0, 1e308, 1.0), "(-1e+308, 0.0, 1e+308, 1.0)"),
        ((0.0, -1e308, 1.0, 1e308), "(0.0, -1e+308, 1.0, 1e+308)"),
        ((0.0, 0.0, 1e200, 1e200), "(0.0, 0.0, 1e+200, 1e+200)"),
        # ints each in the float range: the int area raised OverflowError
        pytest.param((-10 ** 308, -10 ** 308, 10 ** 308, 10 ** 308),
                     f"({-10 ** 308}, {-10 ** 308}, {10 ** 308}, {10 ** 308})", id="int area"),
    ])
    def test_boxes_with_an_overflowing_size_are_rejected(self, coords, shown):
        with pytest.raises(ValueError) as err:
            BBox2D(*coords)
        assert str(err.value) == f"box width, height and area must be finite, got {shown}"

    @pytest.mark.parametrize("coords, shown", [
        # finite, ordered coordinates whose area underflows: area() 0.0, and
        # iou_2d(b, b) raised ZeroDivisionError
        ((0.0, 0.0, 1e-200, 1e-200), "(0.0, 0.0, 1e-200, 1e-200) with area 0.0"),
        ((0.0, 0.0, 1e-160, 1e-170), "(0.0, 0.0, 1e-160, 1e-170) with area 0.0"),
    ])
    def test_boxes_whose_area_underflows_are_rejected(self, coords, shown):
        with pytest.raises(ValueError) as err:
            BBox2D(*coords)
        assert str(err.value) == f"box area must be positive, got {shown}"

    def test_iou_of_boxes_whose_union_overflows(self):
        # area 1.5e308 each: the union overflowed to inf, so the IoU read 0.0
        b = BBox2D(0.0, 0.0, 1e154, 1.5e154)
        assert iou_2d(b, b) == 1.0
        half = BBox2D(0.0, 0.0, 1e154, 0.75e154)
        assert iou_2d(b, half) == iou_2d(half, b) == pytest.approx(0.5, rel=1e-15)

    def test_a_box_with_a_subnormal_area_is_kept_and_scores(self):
        b = BBox2D(0.0, 0.0, 1e-160, 1e-160)
        assert 0.0 < b.area() < 1e-300
        assert iou_2d(b, b) == 1.0

    def test_center_and_area(self):
        b = BBox2D(1.0, 2.0, 5.0, 10.0)
        assert bbox_center(b) == (3.0, 6.0)
        assert b.area() == 32.0

    def test_extent_bbox_is_centered_on_the_projection(self):
        t = Translation(3.0, -2.0, 25.0)
        box = extent_bbox(t, 4.5, 1.5, K)
        u, v = project(t, K)
        cu, cv = bbox_center(box)
        assert cu == pytest.approx(u, abs=1e-9)
        assert cv == pytest.approx(v, abs=1e-9)
        assert box.x2 - box.x1 == pytest.approx(K.fx * 4.5 / t.z, abs=1e-9)
        assert box.y2 - box.y1 == pytest.approx(K.fy * 1.5 / t.z, abs=1e-9)
