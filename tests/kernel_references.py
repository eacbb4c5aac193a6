"""The per-tick kernels in their helper-based form, as references.

Before their products were written out on local floats, the plant
derivative, the cable and attitude controllers, the allocation's stacking
and the full-plant tick made one call to a small float helper (`cross`,
`dot`, `rotate`, `rotate_back`, `relative`, `vee`, and the plant's
`_quat_rate` and `_euler_rate`) per 3-vector or 3x3 product.  The bodies
below are that form, kept verbatim but for the payload row's quaternion
rate, which keeps so3.omega_to_quat_dot's zero terms as the plant's does;
the tests pin the written-out kernels to them bit for bit, also on paths the
preset digests do not reach (slack cables and a clipped desired cable rate).
They take each inertia as the full matrix of the rig's principal moments
(`inertia_matrices`), as they did before the rig kept only the moments.

The solver's dynamics linearization is kept here in its 18-column forward
mode, verbatim: every state and wrench tangent column carried through all 13
state components of the four RK4 stages.  `payload_ocp.linearize_dynamics`
carries only the 9 rotational columns and takes the translational block once;
the tests pin it to this form bit for bit, signed zeros included, and on a
solve where a row binds.

The QP oracle is the Mehrotra predictor-corrector interior point that solved
the SQP's QPs with binding rows before the dual active set on the row-free
Riccati factorization replaced it, kept verbatim with its stationarity,
ratio test, row curvature, stopping tolerance and Hessian regularization
ladder (`qp_subproblem` needs none).  Being an independent method on the
same QP, it checks `sqp.qp_subproblem`'s optimum, and its multipliers where
they are unique.
"""

import math

import numpy as np

from cablelift import allocation, cable_control, payload_ocp, plant, so3, sqp
from cablelift.cable_control import CableTrackingState
from cablelift.harness import OMEGA_DES_LIMIT
from cablelift.cable_control import NotSkew

# ---------------------------------------------------------------------------
# the float helpers: vectors are 3-sequences, matrices row-major 9-sequences


def cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def rotate(R, v) -> tuple:
    """R v."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    x, y, z = v
    return (r00 * x + r01 * y + r02 * z, r10 * x + r11 * y + r12 * z, r20 * x + r21 * y + r22 * z)


def rotate_back(R, v) -> tuple:
    """R^T v."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    x, y, z = v
    return (r00 * x + r10 * y + r20 * z, r01 * x + r11 * y + r21 * z, r02 * x + r12 * y + r22 * z)


def relative(R, D) -> tuple:
    """R^T D."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    d00, d01, d02, d10, d11, d12, d20, d21, d22 = D
    return (
        r00 * d00 + r10 * d10 + r20 * d20,
        r00 * d01 + r10 * d11 + r20 * d21,
        r00 * d02 + r10 * d12 + r20 * d22,
        r01 * d00 + r11 * d10 + r21 * d20,
        r01 * d01 + r11 * d11 + r21 * d21,
        r01 * d02 + r11 * d12 + r21 * d22,
        r02 * d00 + r12 * d10 + r22 * d20,
        r02 * d01 + r12 * d11 + r22 * d21,
        r02 * d02 + r12 * d12 + r22 * d22,
    )


def vee(S_rows) -> list:
    """Inverse of hat for each row-major 9-tuple of S_rows: the 3-tuple
    (S[2, 1], S[0, 2], S[1, 0]).  Requires ||S + S^T|| <= 1e-9 for every
    matrix; the comparison is written so that NaN fails it."""
    out = []
    for s00, s01, s02, s10, s11, s12, s20, s21, s22 in S_rows:
        a, b, c = s01 + s10, s02 + s20, s12 + s21
        d0, d1, d2 = s00 + s00, s11 + s11, s22 + s22
        if not d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (a * a + b * b + c * c) <= 1e-18:
            raise NotSkew("vee() input is not skew-symmetric")
        out.append((s21, s02, s10))
    return out


def _add(a, b) -> tuple:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


# ---------------------------------------------------------------------------
# plant


def quat_rate(w, x, y, z, ox, oy, oz) -> tuple:
    """Quaternion kinematics for body rate (ox, oy, oz), as
    so3.omega_to_quat_dot."""
    return (
        -0.5 * (x * ox + y * oy + z * oz),
        0.5 * (w * ox + (y * oz - z * oy)),
        0.5 * (w * oy + (z * ox - x * oz)),
        0.5 * (w * oz + (x * oy - y * ox)),
    )


def inertia_matrices(moments) -> tuple:
    """Row-major 9-lists of the inertia matrix diag(moments) and its inverse."""
    J = np.diag(moments)
    return J.ravel().tolist(), np.linalg.inv(J).ravel().tolist()


def euler_rate(J, J_inv, ox, oy, oz, tx, ty, tz) -> tuple:
    """Body angular acceleration J^-1 (tau - omega x J omega), J and J_inv as
    row-major 9-sequences."""
    a, b, c, d, e, f, g, h, i = J
    hx, hy, hz = a * ox + b * oy + c * oz, d * ox + e * oy + f * oz, g * ox + h * oy + i * oz
    rx, ry, rz = tx - (oy * hz - oz * hy), ty - (oz * hx - ox * hz), tz - (ox * hy - oy * hx)
    a, b, c, d, e, f, g, h, i = J_inv
    return a * rx + b * ry + c * rz, d * rx + e * ry + f * rz, g * rx + h * ry + i * rz


def payload_derivative(s: list, wrench, params) -> list:
    """The payload row's derivative; its quaternion rate keeps the zero terms
    of so3.omega_to_quat_dot's product with (0, omega), as the predictor."""
    qw, qx, qy, qz, wx, wy, wz = s[6:13]
    fx, fy, fz, mx, my, mz = wrench
    m_L, (gx, gy, gz) = params.m_L, params.g_vec
    return [
        *s[3:6], fx / m_L + gx, fy / m_L + gy, fz / m_L + gz,
        0.5 * (((qw * 0.0 - qx * wx) - qy * wy) - qz * wz),
        0.5 * ((qw * wx + qx * 0.0) + (qy * wz - qz * wy)),
        0.5 * ((qw * wy + qy * 0.0) + (qz * wx - qx * wz)),
        0.5 * ((qw * wz + qz * 0.0) + (qx * wy - qy * wx)),
        *euler_rate(*inertia_matrices(params.J_L), wx, wy, wz, mx, my, mz),
    ]


def world_derivative_flat(s: list, inputs, params, cables=None) -> list:
    R = plant._rotation(*s[6:10]) if cables is None else cables.rotation
    law = plant._cable_law(s, R, params) if cables is None else cables.law
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    (m, g), (J, Ji) = (params.m_i, params.g), inertia_matrices(params.J_i)
    out = []
    fx = fy = fz = mx = my = mz = 0.0
    b = 13
    for (ex, ey, ez, _, t, _), (rx, ry, rz), thrust, (tx, ty, tz) in zip(
        law, params._r_i, inputs[0], inputs[1]
    ):
        cfx, cfy, cfz = t * ex, t * ey, t * ez
        fx, fy, fz = fx + cfx, fy + cfy, fz + cfz
        bx = -t * (ex * r00 + ey * r10 + ez * r20)
        by = -t * (ex * r01 + ey * r11 + ez * r21)
        bz = -t * (ex * r02 + ey * r12 + ez * r22)
        mx, my, mz = mx + (ry * bz - rz * by), my + (rz * bx - rx * bz), mz + (rx * by - ry * bx)

        q0, q1, q2, q3, ox, oy, oz = s[b + 6 : b + 13]
        ax = (2 * (q1 * q3 + q0 * q2) * thrust + cfx) / m
        ay = (2 * (q2 * q3 - q0 * q1) * thrust + cfy) / m
        az = ((1 - 2 * (q1 * q1 + q2 * q2)) * thrust + cfz) / m - g
        out += s[b + 3 : b + 6]
        out += (ax, ay, az, *quat_rate(q0, q1, q2, q3, ox, oy, oz))
        out += euler_rate(J, Ji, ox, oy, oz, tx, ty, tz)
        b += 13
    return payload_derivative(s, (-fx, -fy, -fz, mx, my, mz), params) + out


def step_world(y: list, commands, dt: float, params, cables=None) -> list:
    thrusts, torques = commands
    inputs = ([plant.saturate_thrust(float(f), params.F_max) for f in thrusts], torques)
    k1 = None if cables is None else world_derivative_flat(y, inputs, params, cables)
    return plant._rk4_flat(world_derivative_flat, y, (inputs, params), dt, k1)


# ---------------------------------------------------------------------------
# allocation


def unstack(stacked, R_L) -> list:
    return [rotate(R_L, stacked[i : i + 3]) for i in range(0, len(stacked), 3)]


def stack_body(mu_world, R_L) -> list:
    return [x for mu in mu_world for x in rotate_back(R_L, mu)]


def allocate(wrench, R_L, amap) -> list:
    t0, t1, t2 = rotate_back(R_L, wrench[0:3])
    t3, t4, t5 = wrench[3:6]
    stacked = [
        a0 * t0 + a1 * t1 + a2 * t2 + a3 * t3 + a4 * t4 + a5 * t5
        for a0, a1, a2, a3, a4, a5 in amap.pinv_rows
    ]
    return unstack(stacked, R_L)


def attachments(p_L, R_L, r_i) -> list:
    return [_add(p_L, rotate(R_L, r)) for r in r_i]


# ---------------------------------------------------------------------------
# cable_control


def cable_errors(state):
    e_xi = [cross(xi_des, xi) for xi, xi_des in zip(state.xi, state.xi_des)]
    e_omega = []
    for xi, (a, b, c), omega_des in zip(state.xi, state.omega_cable, state.omega_des):
        x, y, z = cross(xi, cross(xi, omega_des))
        e_omega.append((a + x, b + y, c + z))
    return e_xi, e_omega


def attachment_accel(accel_des, R_L, Omega_L, Omega_dot_des, r, g: float = 9.81) -> list:
    ax, ay, az = accel_des[0], accel_des[1], accel_des[2] + g
    out = []
    for r_k in r:
        tx, ty, tz = rotate(R_L, cross(r_k, Omega_dot_des))
        cx, cy, cz = rotate(R_L, cross(Omega_L, cross(Omega_L, r_k)))
        out.append((ax - tx + cx, ay - ty + cy, az - tz + cz))
    return out


def control_components(mu_k, state, a_kc, m, length, gains):
    (kx, ky, kz), (wx, wy, wz) = (gains.K_xi,) * 3, (gains.K_omega,) * 3
    e_xi, e_omega = cable_errors(state)
    u_par, u_perp = [], []
    for k, xi in enumerate(state.xi):
        x, y, z = xi
        a, omega = a_kc[k], state.omega_cable[k]
        ml = m * length
        d1, r2, d3 = dot(xi, mu_k[k]), ml * dot(omega, omega), dot(xi, a)
        u_par.append((x * d1 + r2 * x + m * x * d3, y * d1 + r2 * y + m * y * d3,
                      z * d1 + r2 * z + m * z * d3))
        (ex, ey, ez), (fx, fy, fz) = e_xi[k], e_omega[k]
        b = (-kx * ex - wx * fx, -ky * ey - wy * fy, -kz * ez - wz * fz)
        cx, cy, cz = cross(xi, a)
        u_perp.append(cross(xi, (ml * b[0] - m * cx, ml * b[1] - m * cy, ml * b[2] - m * cz)))
    return u_par, u_perp


def desired_attitude(u_k, yaw_des: float) -> list:
    heading = hx, hy, hz = math.cos(yaw_des), math.sin(yaw_des), 0.0
    out = []
    for ux, uy, uz in u_k:
        norm_u = math.sqrt(ux * ux + uy * uy + uz * uz)
        if not norm_u > 1e-6:
            raise cable_control.DegenerateThrust(f"commanded force {norm_u:.2e} N is too small")
        b3 = (ux / norm_u, uy / norm_u, uz / norm_u)
        c = cross(b3, heading)
        if not math.sqrt(dot(c, c)) > 1e-6:
            raise cable_control.DegenerateThrust("commanded force is collinear with the heading")
        s = dot(heading, b3)
        x, y, z = hx - s * b3[0], hy - s * b3[1], hz - s * b3[2]
        n1 = math.sqrt(x * x + y * y + z * z)
        b1 = (x / n1, y / n1, z / n1)
        b2 = cross(b3, b1)
        out.append((b1[0], b2[0], b3[0], b1[1], b2[1], b3[1], b1[2], b2[2], b3[2]))
    return out


def attitude_errors(R_k, R_des):
    transports = [relative(R, D) for R, D in zip(R_k, R_des)]
    skew = [
        (t00 - t00, t10 - t01, t20 - t02, t01 - t10, t11 - t11, t21 - t12,
         t02 - t20, t12 - t21, t22 - t22)
        for t00, t01, t02, t10, t11, t12, t20, t21, t22 in transports
    ]
    return [(0.5 * x, 0.5 * y, 0.5 * z) for x, y, z in vee(skew)]


def moment_command(e_R, omega_k, J, gains):
    (kx, ky, kz), (wx, wy, wz) = (gains.K_R,) * 3, (gains.K_Omega,) * 3
    out = []
    for (ex, ey, ez), omega in zip(e_R, omega_k):
        fx, fy, fz = omega  # the rate error at zero desired rate
        gx, gy, gz = cross(omega, rotate(J, omega))
        out.append((-kx * ex - wx * fx + gx, -ky * ey - wy * fy + gy, -kz * ez - wz * fz + gz))
    return out


# ---------------------------------------------------------------------------
# harness


def full_plant_tick(model, y: list, wrench: list, new_stage: bool):
    """harness._FullPlant.tick on the references above, acting on model
    (its xi_prev and counters) the same way, and stepping the world with
    `step_world` above.  Returns tick's tuple and a dict of every kernel's
    inputs and outputs, by kernel name."""
    config, params, gains = model.config, model.config.params, model.config.gains
    seen = {}
    if new_stage:
        model.xi_prev = None
    cables = plant.cable_closure(y, params)
    R_L = plant._rotation(*y[6:10])
    v_L, omega_l = y[3:6], y[10:13]
    bodies = range(13, len(y), 13)
    R_k = [plant._rotation(*y[b + 6 : b + 10]) for b in bodies]
    omega_k = [y[b + 10 : b + 13] for b in bodies]
    mu = allocate(wrench, R_L, model.amap)
    seen["allocate"] = ((wrench, R_L, model.amap), mu)

    payload_rates = payload_derivative(y[0:13], wrench, params)
    accel_des, omega_dot_des = payload_rates[3:6], payload_rates[10:13]

    xi_des, om_des = allocation.desired_cable_direction(mu, model.xi_prev, config.dt_lowlevel)
    model.xi_prev = xi_des
    for k, (ox, oy, oz) in enumerate(om_des):
        om_norm = math.sqrt(ox * ox + oy * oy + oz * oz)
        if om_norm > OMEGA_DES_LIMIT:
            s = OMEGA_DES_LIMIT / om_norm
            om_des[k] = (ox * s, oy * s, oz * s)
            model.omega_des_clips += 1

    xi, om_c = list(xi_des), list(om_des)
    vx, vy, vz = v_L
    for k, ((ex, ey, ez), stretch, r, b) in enumerate(
        zip(cables.direction, cables.stretch, params._r_i, bodies)
    ):
        if stretch > 0.0:
            cx, cy, cz = rotate(R_L, cross(omega_l, r))
            ux, uy, uz = vx + cx - y[b + 3], vy + cy - y[b + 4], vz + cz - y[b + 5]
            dist = params.l_i + stretch
            d = ex * ux + ey * uy + ez * uz
            dx, dy, dz = (ux - ex * d) / dist, (uy - ey * d) / dist, (uz - ez * d) / dist
            xi[k] = (ex, ey, ez)
            om_c[k] = (ey * dz - ez * dy, ez * dx - ex * dz, ex * dy - ey * dx)
    state = CableTrackingState(xi, om_c, xi_des, om_des)
    seen["cable_errors"] = ((state,), cable_errors(state))

    args = (accel_des, R_L, omega_l, omega_dot_des, params._r_i, params.g)
    a_kc = attachment_accel(*args)
    seen["attachment_accel"] = (args, a_kc)
    args = (allocation.project_tension(mu, xi), state, a_kc, params.m_i, params.l_i, gains)
    u_par, u_perp = control_components(*args)
    seen["control_components"] = (args, (u_par, u_perp))
    u = [_add(a, b) for a, b in zip(u_par, u_perp)]
    thrust = cable_control.thrust_command(u, R_k)
    R_des = desired_attitude(u, 0.0)
    seen["desired_attitude"] = ((u, 0.0), R_des)
    e_R = attitude_errors(R_k, R_des)
    seen["attitude_errors"] = ((R_k, R_des), e_R)
    moment = moment_command(e_R, omega_k, inertia_matrices(params.J_i)[0], gains)
    seen["moment_command"] = ((e_R, omega_k, params._J_i, gains), moment)

    model.thrust_clamps += sum(1 for f in thrust if f < 0.0 or f > params.F_max)
    model.slack_cable_ticks += sum(1 for stretch in cables.stretch if not stretch > 0.0)
    mav_p = [y[b : b + 3] for b in bodies]
    args = (y, (thrust, moment), config.dt_lowlevel, params, cables)
    y_next = step_world(*args)
    seen["step_world"] = (args, y_next)
    return (cables.tension, cables.direction, mav_p, y_next), seen


def payload_only_tick(model, y: list, wrench: list):
    """harness._PayloadOnly.tick on the references above, stepping the
    payload row with `payload_derivative` above."""
    params = model.config.params
    R_L = plant._rotation(*y[6:10])
    tensions, directions, mav_p = [], [], []
    length = params.l_i
    for mu, r in zip(allocate(wrench, R_L, model.amap), params._r_i):
        tension = math.sqrt(dot(mu, mu))
        taut = tension > 1e-12
        unit = (mu[0] / tension, mu[1] / tension, mu[2] / tension) if taut else (0.0, 0.0, 1.0)
        tensions.append(tension)
        directions.append((-unit[0], -unit[1], -unit[2]) if taut else (0.0, 0.0, 0.0))
        attachment = _add(y[0:3], rotate(R_L, r))
        mav_p.append(_add(attachment, (length * unit[0], length * unit[1], length * unit[2])))
    dt = model.config.ocp.dt
    y_next = plant._rk4_flat(payload_derivative, y[0:13], (wrench, params), dt) + y[13:]
    return tensions, directions, mav_p, y_next


# ---------------------------------------------------------------------------
# the solver's forward-mode linearization with all 18 tangent columns


def dynamics_tangent(Y, dY, dU, problem):
    """Directional derivatives of payload_dynamics at the (B, 13) rows Y
    along the (B, T, 13) state tangents dY and the (T, 6) wrench tangents dU.

    The derivative is linear in (v, F, M), bilinear in (q, omega) and
    quadratic in omega, so the product rule below is exact.
    """
    q = Y[:, None, 6:10]
    w = Y[:, None, 10:13]
    dw = dY[..., 10:13]
    out = np.empty_like(dY)
    out[..., 0:3] = dY[..., 3:6]
    out[..., 3:6] = dU[:, 0:3] / problem.params.m_L
    out[..., 6:10] = so3.omega_to_quat_dot(dY[..., 6:10], w) + so3.omega_to_quat_dot(q, dw)
    J = np.diag(problem.params.J_L)
    out[..., 10:13] = (
        dU[:, 3:6] - so3.cross3_rows(dw, w @ J.T) - so3.cross3_rows(w, dw @ J.T)
    ) @ np.linalg.inv(J).T
    return out


def linearize_dynamics(X, U, dt, problem, rollout=None):
    """Exact tangent-space Jacobians of the discrete step at every stage.

    X holds (K, 13) state rows and U (K, 6) wrench rows.  Returns A (K, 12, 12)
    and B (K, 12, 6): the derivatives of
    local_coords(x_next, discretize(retract(x, dx), u + du)) in dx and du at
    zero, with x_next = discretize(x, u).  Forward mode: 18 tangent columns
    (12 state, 6 wrench directions) are carried through the retraction, the
    four RK4 stages, the quaternion renormalization and local_coords, for all
    K stages at once.
    """
    NX, NU = payload_ocp.NX, payload_ocp.NU
    X = np.asarray(X, dtype=np.float64)
    U = np.asarray(U, dtype=np.float64)
    K = len(X)
    eye3 = np.eye(3)
    dX = np.zeros((K, NX + NU, 13))
    dX[:, 0:6, 0:6] = np.eye(6)
    dX[:, 6:9, 6:10] = so3.omega_to_quat_dot(X[:, None, 6:10], eye3)  # d retract / d dtheta
    dX[:, 9:12, 10:13] = eye3
    dU = np.zeros((NX + NU, NU))
    dU[NX:] = np.eye(NU)

    stages, end = payload_ocp.rk4_stages(X, U, dt, problem) if rollout is None else rollout
    # the same step on the tangents, each stage along its stage state
    stage = iter(stages)
    dY = plant.rk4_step(lambda dy, du: dynamics_tangent(next(stage), dy, du, problem), dX, dU, dt)

    # renormalization q -> q/|q|; the hemisphere sign multiplies the base and
    # its tangent alike and cancels in local_coords, whose attitude block at
    # the base is 2 * vec(conj(q_next) * dq_next)
    norm = np.linalg.norm(end[:, 6:10], axis=-1)[:, None, None]
    qh = end[:, None, 6:10] / norm
    dq = dY[..., 6:10]
    dqh = (dq - qh * np.sum(qh * dq, axis=-1, keepdims=True)) / norm
    D = np.empty((K, NX + NU, NX))
    D[..., 0:6] = dY[..., 0:6]
    D[..., 6:9] = 2.0 * so3.quat_mul(so3.quat_conj(qh), dqh)[..., 1:4]
    D[..., 9:12] = dY[..., 10:13]
    D = D.transpose(0, 2, 1)
    return np.ascontiguousarray(D[:, :, :NX]), np.ascontiguousarray(D[:, :, NX:])


# ---------------------------------------------------------------------------
# the QP oracle: the interior point on the condensed Riccati recursion

# stopping tolerance on mu and on the residuals, and the first nonzero
# Hessian regularization qp_oracle tries
QP_TOL = 1e-9
REG = 1e-8


def stationarity(data, z, w, nu, lam_x, lam_u):
    """Lagrangian gradients in z (N+1, nx) and w (N, nu), with the row
    multipliers lam_x and lam_u."""
    r_x = sqp._mv(data.H_x, z) + data.g_x + data.rows_x.scatter(lam_x)
    r_x[:-1] += sqp._mtv(data.A, nu)
    r_x[1:] -= nu
    r_u = sqp._mv(data.H_u, w) + data.g_u + sqp._mtv(data.B, nu) + data.rows_u.scatter(lam_u)
    return r_x, r_u


def _max_step(value: np.ndarray, step: np.ndarray) -> float:
    """Largest a with value + a * step >= 0 (inf when nothing decreases)."""
    neg = step < 0
    return float(np.min(-value[neg] / step[neg])) if np.any(neg) else np.inf


def curvature(rows, weight: np.ndarray):
    """sum over a stage's rows of weight_r C_r^T C_r, per stage (without
    rows, 0.0, which adds like scatter's zeros)."""
    dim = rows.C.shape[1]
    outer = (rows.C[:, :, None] * rows.C[:, None, :]).reshape(rows.m, dim * dim)
    return (rows._onehot @ (weight[:, None] * outer)).reshape(-1, dim, dim) if rows.m else 0.0


def qp_oracle(data):
    """The stagewise QP solved by the interior point, adding a Hessian
    regularization of 0, then REG, 1e-6, 1e-4 and 1e-2 while its condensed
    factorization fails."""
    levels = [0.0, REG, 1e-6, 1e-4, 1e-2]
    nx, nu = data.H_x.shape[-1], data.H_u.shape[-1]
    last_error = None
    for reg in levels:
        H_x = data.H_x + reg * np.eye(nx)
        H_u = data.H_u + reg * np.eye(nu)
        try:
            return qp_interior_point(data, H_x, H_u)
        except np.linalg.LinAlgError as err:
            last_error = err
            continue
    raise sqp.QpNumericalFailure(f"Riccati factorization failed at reg {levels[-1]}: {last_error}")


def qp_interior_point(data, H_x, H_u):
    """Mehrotra predictor-corrector on C y + c + s = 0, s >= 0, lam >= 0.

    Each iteration condenses the rows into the stage Hessians with weights
    lam / s, factors the Riccati recursion once, and solves it for the
    affine direction (sigma = 0) and then for the corrector, centred at
    sigma = (mu_aff / mu)^3 and carrying the second-order term
    ds_aff * dlam_aff.
    """
    N = data.N
    nx = len(data.z0)
    rows_x, rows_u = data.rows_x, data.rows_u
    mx = rows_x.m
    m = mx + rows_u.m
    z = np.zeros((N + 1, nx))
    z[0] = data.z0
    w = np.zeros_like(data.g_u)
    nu = np.zeros((N, nx))
    c_rows = np.concatenate([rows_x.c, rows_u.c])
    lam = np.ones(m)
    s = np.maximum(1.0, np.abs(c_rows))
    ftb = 0.995

    def residuals():
        r_x, r_u = stationarity(data, z, w, nu, lam[:mx], lam[mx:])
        r_eq = sqp._mv(data.A, z[:N]) + sqp._mv(data.B, w) + data.c - z[1:]
        r_in = np.concatenate([rows_x.apply(z), rows_u.apply(w)]) + c_rows + s
        return r_x, r_u, r_eq, r_in

    for it in range(1, sqp.QP_MAX_ITERS + 1):
        r_x, r_u, r_eq, r_in = residuals()
        mu = float(lam @ s) / m
        if (
            mu <= QP_TOL
            and sqp._max_abs(r_x[1:], r_u) <= QP_TOL * 10  # stage 0 is pinned
            and sqp._max_abs(r_eq) <= QP_TOL
            and sqp._max_abs(r_in) <= QP_TOL
        ):
            return sqp.QpResult(z, w, nu, lam[:mx], lam[mx:], it, "optimal")
        if np.max(lam) > 1e8 and sqp._max_abs(r_in) > 1e-6:
            raise sqp.Infeasible("inequality rows inconsistent: duals diverged")

        # condensed Newton matrix: absorb each row block into its stage Hessian
        weight = lam / s
        fac = sqp._riccati_factor(
            data.A, data.B, H_x + curvature(rows_x, weight[:mx]),
            H_u + curvature(rows_u, weight[mx:]),
        )
        sl = np.concatenate([s, lam])

        def direction(r_comp):
            # slack and multiplier steps eliminated; the new iterate must
            # close the equality residual: dz_+ = A dz + B dw + r_eq
            v = (lam * r_in - r_comp) / s
            dz, dw, dnu = sqp._riccati_solve(
                fac, r_x + rows_x.scatter(v[:mx]), r_u + rows_u.scatter(v[mx:]), r_eq, np.zeros(nx)
            )
            ds = -r_in - np.concatenate([rows_x.apply(dz), rows_u.apply(dw)])
            dlam = -(r_comp + lam * ds) / s
            # one ratio test over slacks and multipliers together
            return dz, dw, dnu, ds, dlam, _max_step(sl, np.concatenate([ds, dlam]))

        _, _, _, ds, dlam, step = direction(lam * s)
        alpha = min(1.0, step)
        mu_aff = float((s + alpha * ds) @ (lam + alpha * dlam)) / m
        sigma = (mu_aff / mu) ** 3
        dz, dw, dnu, ds, dlam, step = direction(lam * s + ds * dlam - sigma * mu)
        alpha = min(1.0, ftb * step)
        z = z + alpha * dz
        w = w + alpha * dw
        nu = nu + alpha * dnu
        s = s + alpha * ds
        lam = lam + alpha * dlam

    # out of iterations: distinguish infeasibility from slow convergence
    r_in = residuals()[3]
    if sqp._max_abs(r_in) > 1e-6 and np.max(lam) > 1e6:
        raise sqp.Infeasible("inequality rows inconsistent: primal residual stalled")
    return sqp.QpResult(z, w, nu, lam[:mx], lam[mx:], sqp.QP_MAX_ITERS, "max_iter")
