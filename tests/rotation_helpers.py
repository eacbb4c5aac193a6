"""Rotation constructors shared by the test modules; the package itself
builds every rotation from rotation vectors (so3.quat_exp)."""

import math

import numpy as np


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Unit quaternion [w, x, y, z] of the rotation by angle about axis."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle
    return np.concatenate([[math.cos(half)], math.sin(half) * axis])
