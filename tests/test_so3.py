import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cablelift import plant, so3
from rotation_helpers import quat_from_axis_angle


def _Rz(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _Ry(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _Rx(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _quat_zyx(phi, theta, psi):
    """Quaternion of _Rz(phi) @ _Ry(theta) @ _Rx(psi), composed from axis-angle factors."""
    qz = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), phi)
    qy = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), theta)
    qx = quat_from_axis_angle(np.array([1.0, 0.0, 0.0]), psi)
    return so3.quat_mul(so3.quat_mul(qz, qy), qx)


class TestRotationFromEuler:
    """quat_to_rotation of quaternions built from Euler triples, against the
    product of elementary rotation matrices."""

    def test_zero_angles_identity(self):
        R = so3.quat_to_rotation(_quat_zyx(0.0, 0.0, 0.0))
        np.testing.assert_allclose(R, np.eye(3), atol=1e-15)

    def test_matches_elementary_rotation_product(self):
        # oracle: each axis-angle quaternion against its elementary rotation
        rng = np.random.default_rng(6)
        for axis, elementary in [([0.0, 0.0, 1.0], _Rz), ([0.0, 1.0, 0.0], _Ry), ([1.0, 0.0, 0.0], _Rx)]:
            for angle in [math.pi / 2, *rng.uniform(-math.pi, math.pi, 10)]:
                R = so3.quat_to_rotation(quat_from_axis_angle(np.array(axis), angle))
                np.testing.assert_allclose(R, elementary(angle), atol=1e-14)

    def test_matches_elementary_product_on_random_angles(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            phi, theta, psi = rng.uniform(-math.pi, math.pi, 3)
            R = so3.quat_to_rotation(_quat_zyx(phi, theta, psi))
            np.testing.assert_allclose(R, _Rz(phi) @ _Ry(theta) @ _Rx(psi), atol=1e-13)

    def test_orthonormality_100_random_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            R = so3.quat_to_rotation(_quat_zyx(*rng.uniform(-2 * math.pi, 2 * math.pi, 3)))
            np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)

    @given(
        st.floats(-10.0, 10.0),
        st.floats(-10.0, 10.0),
        st.floats(-10.0, 10.0),
    )
    @settings(max_examples=60)
    def test_determinant_is_one(self, phi, theta, psi):
        R = so3.quat_to_rotation(_quat_zyx(phi, theta, psi))
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


    def test_one_quaternion_stack_and_plant_floats_agree_bitwise(self):
        """One (4,) quaternion, a stack of them and the plant's float
        rotation give the same bits, so the plant, the payload-only model
        and the predictor rotate alike."""
        rng = np.random.default_rng(15)
        q = rng.standard_normal((2000, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        stacked = so3.quat_to_rotation(q).view(np.uint64)
        for k in range(len(q)):
            one = so3.quat_to_rotation(q[k]).view(np.uint64)
            floats = np.array(plant._rotation(*q[k].tolist())).reshape(3, 3).view(np.uint64)
            np.testing.assert_array_equal(one, stacked[k])
            np.testing.assert_array_equal(floats, stacked[k])


class TestHatVee:
    def test_basis_cross_product(self):
        e_x = np.array([1.0, 0.0, 0.0])
        e_y = np.array([0.0, 1.0, 0.0])
        e_z = np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(so3.hat(e_z) @ e_x, e_y, atol=1e-15)

    def test_round_trip(self):
        v = np.array([1.0, 2.0, 3.0])
        S = so3.hat(v)
        np.testing.assert_array_equal(S + S.T, np.zeros((3, 3)))
        np.testing.assert_array_equal([S[2, 1], S[0, 2], S[1, 0]], v)

    def test_matches_cross_product_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v, w = rng.standard_normal(3), rng.standard_normal(3)
            np.testing.assert_allclose(so3.hat(v) @ w, np.cross(v, w), atol=1e-14)

    @given(
        st.floats(-5.0, 5.0),
        st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
        st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
    )
    @settings(max_examples=60)
    def test_hat_is_linear(self, a, u, v):
        u, v = np.array(u), np.array(v)
        np.testing.assert_allclose(
            so3.hat(a * u + v), a * so3.hat(u) + so3.hat(v), atol=1e-12
        )


class TestQuaternions:
    def _random_unit_quat(self, rng):
        return so3.quat_normalize(rng.standard_normal(4))

    def test_mul_matches_rotation_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            q1, q2 = self._random_unit_quat(rng), self._random_unit_quat(rng)
            R = so3.quat_to_rotation(so3.quat_mul(q1, q2))
            np.testing.assert_allclose(
                R, so3.quat_to_rotation(q1) @ so3.quat_to_rotation(q2), atol=1e-12
            )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([((4,), (4,)), ((7, 4), (7, 4)), ((3, 18, 4), (3, 1, 4)),
                         ((3, 1, 4), (3, 18, 4)), ((4,), (5, 4)), ((2, 1, 4), (3, 4))]),
    )
    def test_mul_bitwise_equals_explicit_products(self, seed, shapes):
        # oracle: the 16 products written out term by term, with the
        # grouping quat_mul documents; any other order of the sums rounds
        # differently, so equality is exact
        def explicit(q1, q2):
            w1, x1, y1, z1 = np.moveaxis(q1, -1, 0)
            w2, x2, y2, z2 = np.moveaxis(q2, -1, 0)
            return np.stack([
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                (w1 * x2 + x1 * w2) + (y1 * z2 - z1 * y2),
                (w1 * y2 + y1 * w2) + (z1 * x2 - x1 * z2),
                (w1 * z2 + z1 * w2) + (x1 * y2 - y1 * x2),
            ], axis=-1)

        rng = np.random.default_rng(seed)
        # unit quaternions as the solver meets them, and raw ones with
        # mixed magnitudes so every product and sum rounds
        q1 = rng.standard_normal(shapes[0]) * 10.0 ** rng.integers(-3, 4, shapes[0])
        q2 = so3.quat_normalize(rng.standard_normal(shapes[1]))
        for a, b in ((q1, q2), (q2, q1)):
            out = so3.quat_mul(a, b)
            assert out.shape == np.broadcast_shapes(a.shape, b.shape)
            bits = np.ascontiguousarray(out).view(np.uint64)
            np.testing.assert_array_equal(bits, explicit(a, b).view(np.uint64))

    def test_mul_by_conjugate_has_exactly_zero_vector_part(self):
        q = so3.quat_normalize(np.random.default_rng(9).standard_normal((200, 4)))
        assert np.all(so3.quat_mul(q, so3.quat_conj(q))[:, 1:] == 0.0)

    def test_quat_from_euler_matches_rotation_from_euler(self):
        # oracle: the closed-form ZYX Euler quaternion, and its rotation
        # against the elementary rotation product
        rng = np.random.default_rng(6)
        for _ in range(30):
            phi, theta, psi = rng.uniform(-math.pi, math.pi, 3)
            cz, sz = math.cos(phi / 2), math.sin(phi / 2)
            cy, sy = math.cos(theta / 2), math.sin(theta / 2)
            cx, sx = math.cos(psi / 2), math.sin(psi / 2)
            closed_form = np.array(
                [
                    cx * cy * cz + sx * sy * sz,
                    sx * cy * cz - cx * sy * sz,
                    cx * sy * cz + sx * cy * sz,
                    cx * cy * sz - sx * sy * cz,
                ]
            )
            q = _quat_zyx(phi, theta, psi)
            np.testing.assert_allclose(q, closed_form, atol=1e-12)
            np.testing.assert_allclose(
                so3.quat_to_rotation(q), _Rz(phi) @ _Ry(theta) @ _Rx(psi), atol=1e-12
            )

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rv = rng.standard_normal(3)
            rv = rv / np.linalg.norm(rv) * rng.uniform(0.0, math.pi - 1e-3)
            np.testing.assert_allclose(so3.quat_log(so3.quat_exp(rv)), rv, atol=1e-10)

    def test_normalize_hemisphere(self):
        q = so3.quat_normalize(np.array([-0.5, 0.5, 0.5, 0.5]))
        assert q[0] >= 0.0
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12

    def test_batched_ops_match_loop(self):
        rng = np.random.default_rng(8)
        qs = so3.quat_normalize(rng.standard_normal((10, 4)))
        omegas = rng.standard_normal((10, 3))
        batched = so3.omega_to_quat_dot(qs, omegas)
        for i in range(10):
            np.testing.assert_allclose(batched[i], so3.omega_to_quat_dot(qs[i], omegas[i]))


class TestAttitudeErrorLog:
    def test_identical_rotations_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            q = so3.quat_normalize(rng.standard_normal(4))
            np.testing.assert_array_equal(so3.attitude_error_log(q, q), np.zeros(3))

    def test_relative_z_rotation(self):
        # oracle: axis-angle construction of the relative rotation
        rng = np.random.default_rng(10)
        q_des = so3.quat_normalize(rng.standard_normal(4))
        q = so3.quat_mul(quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.3), q_des)
        np.testing.assert_allclose(
            so3.attitude_error_log(q, q_des), np.array([0.0, 0.0, 0.3]), atol=1e-12
        )

    def test_near_branch_cut(self):
        angle = math.pi - 1e-6
        q_des = so3.quat_identity()
        q = quat_from_axis_angle(np.array([1.0, 0.0, 0.0]), angle)
        err = so3.attitude_error_log(q, q_des)
        assert abs(np.linalg.norm(err) - angle) < 1e-9
        np.testing.assert_allclose(err / np.linalg.norm(err), [1.0, 0.0, 0.0], atol=1e-9)

    def test_norm_never_exceeds_pi(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = so3.quat_normalize(rng.standard_normal(4))
            q_des = so3.quat_normalize(rng.standard_normal(4))
            assert np.linalg.norm(so3.attitude_error_log(q, q_des)) <= math.pi + 1e-12


class TestLeftJacobianInverse:
    def test_matches_finite_difference(self):
        # oracle: central finite differences of log(Exp(a) Exp(b)) in a
        rng = np.random.default_rng(12)
        for _ in range(20):
            b = rng.standard_normal(3)
            b = b / np.linalg.norm(b) * rng.uniform(1e-4, 2.5)
            J = so3.left_jacobian_inverse(b)
            eps = 1e-6
            J_fd = np.zeros((3, 3))
            for k in range(3):
                da = np.zeros(3)
                da[k] = eps
                plus = so3.quat_log(so3.quat_mul(so3.quat_exp(da), so3.quat_exp(b)))
                minus = so3.quat_log(so3.quat_mul(so3.quat_exp(-da), so3.quat_exp(b)))
                J_fd[:, k] = (plus - minus) / (2 * eps)
            np.testing.assert_allclose(J, J_fd, atol=1e-6)
