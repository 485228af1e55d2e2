"""Residual verification of the representation-specific evolution equations.

For a trajectory rho(t) in the exactly-truncating field class (quadratic
scalar potential, uniform vector potential and magnetic field), the vector
distribution v(t) must satisfy d_t v = M v + S v, with M the representation
drift operator and S the constant spin-coupling matrix.  The residual engine
compares a central time difference of v against the spatially discretized
right-hand side and measures how the mismatch shrinks under refinement.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    EMFieldConfig,
    PropagatorConfig,
    Trajectory,
    evolve_oracle,
    spin_coupling_matrix,
)
from .grids import PhaseSpaceGrid, TomogramDomain
from .phase_space import _flip_x, angle_step, ddx, husimi_variances
from .spin_frames import SpinFrame
from .states import spin_coherent_state
from .vector_portrait import SpinorDensity, to_vector


def _theta_derivative(v: np.ndarray, thetas: np.ndarray, x_axis: int) -> np.ndarray:
    """Central difference in theta using the mirror extension
    w(X, theta + pi) = w(-X, theta); theta sits on axis 1 of (c, n_t, n_x)."""
    ext = np.concatenate([_flip_x(v[:, -1:], x_axis), v, _flip_x(v[:, :1], x_axis)], axis=1)
    return (ext[:, 2:] - ext[:, :-2]) / (2.0 * angle_step(thetas))


# Every drift below is an image of one affine flow d(q, p, 1)/dt = L (q, p, 1),
# L = fld.phase_flow(): G = L[:2, :2] is its linear part (zero diagonal in the
# quadratic class) and b = L[:2, 2] its offset.

def _rates(grid: PhaseSpaceGrid, fld: EMFieldConfig) -> tuple[np.ndarray, np.ndarray]:
    """(dq/dt, dp/dt) = L z with z = (q, p, 1) on the (q, p) mesh."""
    flow = fld.phase_flow()
    qq, pp = np.meshgrid(grid.q, grid.p, indexing="ij")
    return tuple(row[0] * qq + row[1] * pp + row[2] for row in flow[:2])


def wigner_generator(grid: PhaseSpaceGrid, fld: EMFieldConfig):
    """Liouville drift of the vector Wigner function: d_t w = -(L z).grad w."""
    rate_q, rate_p = _rates(grid, fld)
    neg_rate_q = -rate_q

    def apply(v: np.ndarray) -> np.ndarray:
        # accumulated in the d_q array as (-r_q * d_q v) - r_p * d_p v
        out = ddx(v, grid.dx, axis=1)
        out *= neg_rate_q
        d_p = ddx(v, grid.dp, axis=2)
        d_p *= rate_p
        out -= d_p
        return out

    return apply


def husimi_generator(grid: PhaseSpaceGrid, fld: EMFieldConfig):
    """Drift of the vector Husimi function: the Wigner drift minus
    (G_01 S_pp + G_10 S_qq) d_q d_p, where S = diag(S_qq, S_pp) is the
    covariance of the Gaussian that smooths Wigner into Husimi."""
    rate_q, rate_p = _rates(grid, fld)
    neg_rate_q = -rate_q
    g = fld.phase_flow()[:2, :2]
    var_q, var_p = husimi_variances(grid)
    diffusion = g[0, 1] * var_p + g[1, 0] * var_q

    def apply(v: np.ndarray) -> np.ndarray:
        # accumulated in the d_q array as ((-r_q * d_q v) - r_p * d_p v)
        # - D * d_q d_p v, so d_q d_p v is taken before d_q v is scaled
        out = ddx(v, grid.dx, axis=1)
        d_qp = ddx(out, grid.dp, axis=2)
        d_qp *= diffusion
        out *= neg_rate_q
        d_p = ddx(v, grid.dp, axis=2)
        d_p *= rate_p
        out -= d_p
        out -= d_qp
        return out

    return apply


def optical_generator(grid: PhaseSpaceGrid, dom: TomogramDomain, fld: EMFieldConfig):
    """Drift of the vector optical tomogram w(X, theta) = M(X, k(theta)) on
    the ellipse k = (cos theta, sin theta / m omega) (grid constants).

    Splitting G^T k = alpha k + beta dk/dtheta, the homogeneity of M turns
    the symplectic drift into
    d_t w = beta d_theta w - alpha (1 + X d_X) w - (k.b) d_X w,
    the form of the tomographic evolution equations of Mancini, Man'ko and
    Tombesi (Phys. Lett. A 213, 1996).
    """
    flow = fld.phase_flow()
    th = dom.thetas[:, None]
    x = dom.x[None, :]
    m_omega = grid.mass * grid.omega
    k = np.array([np.cos(th), np.sin(th) / m_omega])
    dk = np.array([-np.sin(th), np.cos(th) / m_omega])
    gk = np.einsum("ij,i...->j...", flow[:2, :2], k)
    # Cramer's rule; k x dk = 1 / m_omega
    alpha = m_omega * (gk[0] * dk[1] - gk[1] * dk[0])
    beta = m_omega * (k[0] * gk[1] - k[1] * gk[0])
    shift = flow[0, 2] * k[0] + flow[1, 2] * k[1]

    def apply(v: np.ndarray) -> np.ndarray:
        d_th = _theta_derivative(v, dom.thetas, x_axis=2)
        d_x = ddx(v, dom.dx, axis=2)
        return beta * d_th - alpha * (v + x * d_x) - shift * d_x

    return apply


def symplectic_generator(grid: PhaseSpaceGrid, dom: TomogramDomain, fld: EMFieldConfig):
    """Drift of the symplectic vector tomogram M(X, mu, nu), k = (mu, nu):
    d_t M = (G^T k).grad_k M - (k.b) d_X M.

    mu and nu derivatives are central differences, so residuals are
    meaningful on interior (mu, nu) samples only.
    """
    flow = fld.phase_flow()
    k = (dom.mu[:, None, None], dom.nu[None, :, None])
    rate_mu, rate_nu, shift = (flow[0, j] * k[0] + flow[1, j] * k[1] for j in range(3))
    d_mu = dom.mu[1] - dom.mu[0]
    d_nu = dom.nu[1] - dom.nu[0]

    def apply(v: np.ndarray) -> np.ndarray:
        d_x = ddx(v, dom.dx, axis=3)
        dv_mu = np.gradient(v, d_mu, axis=1)
        dv_nu = np.gradient(v, d_nu, axis=2)
        return rate_nu * dv_nu - shift * d_x + rate_mu * dv_mu

    return apply


def representation_generator(representation: str, grid: PhaseSpaceGrid,
                             dom: TomogramDomain | None, fld: EMFieldConfig):
    if representation == "wigner":
        return wigner_generator(grid, fld)
    if representation == "husimi":
        return husimi_generator(grid, fld)
    if representation == "optical":
        return optical_generator(grid, dom, fld)
    if representation == "symplectic-section":
        return symplectic_generator(grid, dom, fld)
    raise ValueError(f"unknown representation {representation!r}")


def _interior(res: np.ndarray, representation: str) -> np.ndarray:
    if representation == "symplectic-section":
        return res[:, 1:-1, 1:-1, :]
    return res


@dataclass(frozen=True)
class ResidualReport:
    representation: str
    times: np.ndarray
    per_frame_max: np.ndarray
    max_residual: float
    l2_residual: float
    meta: dict


def default_domain(representation: str, grid: PhaseSpaceGrid,
                   n_theta: int | None = None,
                   n_mu: int = 5, n_nu: int = 5) -> TomogramDomain | None:
    if representation == "optical":
        return TomogramDomain.optical_default(grid, n_theta)
    if representation == "symplectic-section":
        return TomogramDomain.symplectic_grid(
            grid, np.linspace(0.85, 1.15, n_mu), np.linspace(0.75, 1.05, n_nu))
    return None


def residual_check(traj: Trajectory, fld: EMFieldConfig, representation: str,
                   frame: SpinFrame, dom: TomogramDomain | None = None) -> ResidualReport:
    """Residuals d_t v - (M + S) v at interior frames of a uniform trajectory.

    The central difference at frame k reads frames k - 1, k and k + 1 only,
    so at most these three portraits are held: frame k + 1 is taken once the
    drift of frame k is formed, and the residual is formed in place in the
    array of frame k - 1, which is not read again.  to_vector runs once per
    frame, in frame order.
    """
    if len(traj.states) < 3:
        raise ValueError("residual check needs at least 3 frames")
    dts = np.diff(traj.times)
    if np.max(np.abs(dts - dts[0])) > 1e-12 * max(1.0, abs(dts[0])):
        raise ValueError("trajectory must be uniformly sampled in time")
    dt = float(dts[0])
    grid = traj.states[0].grid
    if dom is None:
        dom = default_domain(representation, grid)

    gen = representation_generator(representation, grid, dom, fld)
    s_mat = spin_coupling_matrix(frame, fld.b_field, fld.kappa, fld.spin, grid.hbar)

    if representation in ("wigner", "husimi"):
        cell = grid.cell
    elif representation == "optical":
        cell = dom.dx * angle_step(dom.thetas)
    else:
        cell = dom.dx * (dom.mu[1] - dom.mu[0]) * (dom.nu[1] - dom.nu[0])

    def portrait(k: int) -> np.ndarray:
        return to_vector(traj.states[k], frame, representation, dom).components

    per_frame = []
    sq_sum = 0.0
    times = []
    prev, cur = portrait(0), portrait(1)
    for k in range(1, len(traj.states) - 1):
        rhs = gen(cur)
        rhs += (s_mat @ cur.reshape(len(s_mat), -1)).reshape(cur.shape)
        nxt = portrait(k + 1)
        # frame k - 1 is read for the last time: its array takes the residual
        res = np.subtract(nxt, prev, out=prev)
        res /= 2.0 * dt
        res -= rhs
        del rhs
        res = _interior(res, representation)
        per_frame.append(float(np.max(np.abs(res))))
        sq_sum += float(np.sum(res**2) * cell)
        times.append(traj.times[k])
        del res
        prev, cur = cur, nxt
    per_frame = np.asarray(per_frame)
    return ResidualReport(
        representation=representation,
        times=np.asarray(times),
        per_frame_max=per_frame,
        max_residual=float(per_frame.max()),
        l2_residual=float(np.sqrt(sq_sum / len(per_frame))),
        meta={
            "dt": dt,
            "n": grid.n,
            "n_theta": None if dom is None or dom.thetas is None else len(dom.thetas),
            "n_mu": None if dom is None or dom.mu is None else len(dom.mu),
        },
    )


@dataclass(frozen=True)
class StateSpec:
    """Grid-independent initial state: spin eigenstate along a direction,
    tensored with a Gaussian packet."""

    spin_direction: tuple = (1.0, 0.0, 0.0)
    spin_m: float = 1.0
    q0: float = 0.0
    p0: float = 0.0
    sigma: float = 1.0

    def build(self, grid: PhaseSpaceGrid, s: float = 1.0) -> SpinorDensity:
        psi = spin_coherent_state(grid, self.spin_direction, s, self.spin_m,
                                  self.q0, self.p0, self.sigma)
        return SpinorDensity.from_pure(psi, grid)


@dataclass(frozen=True)
class ConvergenceReport:
    representation: str
    coarse: ResidualReport
    fine: ResidualReport
    ratio_max: float
    ratio_l2: float

    @property
    def order_max(self) -> float:
        return float(np.log2(self.ratio_max))


def residual_convergence(representation: str, fld: EMFieldConfig, frame: SpinFrame,
                         state: StateSpec, *, n: int = 128, length: float = 16.0,
                         n_theta: int = 64, n_mu: int = 5, n_nu: int = 5,
                         n_frames: int = 5, dt_frame: float = 0.04,
                         substeps: int = 8, hbar: float = 1.0, mass: float = 1.0,
                         omega: float = 1.0) -> ConvergenceReport:
    """Run the residual check at a base resolution and at (dt, dx)/2.

    Refinement halves the frame spacing (with the oracle substep tied to it),
    the discretized parameter grids (theta and mu/nu spacings), and the
    spatial spacing for the phase-space representations.  Second-order
    convergence shows as a residual ratio near 4.
    """
    reports = []
    for level in (0, 1):
        factor = 2**level
        n_grid = n * factor if representation in ("wigner", "husimi") else n
        grid = PhaseSpaceGrid.centered(n_grid, length, hbar, mass, omega)
        dom = default_domain(representation, grid, n_theta * factor,
                             (n_mu - 1) * factor + 1, (n_nu - 1) * factor + 1)
        dt = dt_frame / factor
        prop = PropagatorConfig(dt=dt / substeps, n_steps=substeps * (n_frames - 1),
                                scheme="split-step-strang", save_every=substeps)
        traj = evolve_oracle(state.build(grid, fld.spin), fld, prop)
        reports.append(residual_check(traj, fld, representation, frame, dom))
    coarse, fine = reports
    return ConvergenceReport(
        representation=representation,
        coarse=coarse,
        fine=fine,
        ratio_max=coarse.max_residual / fine.max_residual,
        ratio_l2=coarse.l2_residual / fine.l2_residual,
    )
