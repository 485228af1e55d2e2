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
from .errors import UnsupportedPotentialError
from .grids import PhaseSpaceGrid, TomogramDomain
from .phase_space import ddx
from .spin_frames import SpinFrame
from .states import spin_coherent_state
from .vector_portrait import SpinorDensity, to_vector


def _flip_x(values: np.ndarray, axis: int) -> np.ndarray:
    """X -> -X on a centered grid (index l -> (n - l) mod n)."""
    flipped = np.flip(values, axis=axis)
    return np.roll(flipped, 1, axis=axis)


def _theta_derivative(v: np.ndarray, thetas: np.ndarray, x_axis: int) -> np.ndarray:
    """Central difference in theta using the mirror extension
    w(X, theta + pi) = w(-X, theta); theta sits on axis 1 of (c, n_t, n_x)."""
    d_theta = thetas[1] - thetas[0]
    plus = np.empty_like(v)
    minus = np.empty_like(v)
    plus[:, :-1] = v[:, 1:]
    plus[:, -1] = _flip_x(v[:, 0], axis=x_axis - 1)
    minus[:, 1:] = v[:, :-1]
    minus[:, 0] = _flip_x(v[:, -1], axis=x_axis - 1)
    return (plus - minus) / (2.0 * d_theta)


def _require_quadratic(fld: EMFieldConfig) -> tuple[float, float, float]:
    if not fld.is_quadratic:
        raise UnsupportedPotentialError(
            "residual operators exist in closed form only for quadratic potentials")
    if callable(fld.a_long):
        raise UnsupportedPotentialError("residual operators require a static a_long")
    return fld.phi_coeffs()


def wigner_generator(grid: PhaseSpaceGrid, fld: EMFieldConfig):
    """Moyal-type drift for the vector Wigner function (quadratic class):
    -((p - eA/c)/m) d_q + e phi'(q) d_p."""
    _require_quadratic(fld)
    vel = (grid.p - fld.e * fld.a_at() / fld.c_light) / fld.mass
    force = fld.e * fld.dphi_dq(grid.q)

    def apply(v: np.ndarray) -> np.ndarray:
        dq = ddx(v, grid.dx, axis=1)
        dp = ddx(v, grid.dp, axis=2)
        return -vel[None, None, :] * dq + force[None, :, None] * dp

    return apply


def husimi_generator(grid: PhaseSpaceGrid, fld: EMFieldConfig):
    """Drift of the vector Husimi function; stated for m = omega = hbar = 1."""
    c0, c1, c2 = _require_quadratic(fld)
    if not (grid.hbar == 1.0 and grid.mass == 1.0 and grid.omega == 1.0):
        raise ValueError("the Husimi evolution operator is implemented for "
                         "m = omega = hbar = 1 grids")
    a_over_c = fld.e * fld.a_at() / fld.c_light

    def apply(v: np.ndarray) -> np.ndarray:
        dq = ddx(v, grid.dx, axis=1)
        dp = ddx(v, grid.dp, axis=2)
        dqdp = ddx(dq, grid.dp, axis=2)
        out = -grid.p[None, None, :] * dq - 0.5 * dqdp
        out += fld.e * (c1 + 2.0 * c2 * grid.q)[None, :, None] * dp
        out += fld.e * c2 * dqdp
        out += a_over_c * dq
        return out

    return apply


def optical_generator(grid: PhaseSpaceGrid, dom: TomogramDomain, fld: EMFieldConfig):
    """Drift of the vector optical tomogram (quadratic class).

    Kinetic part: omega [cos^2(t) d_t - (1/2) sin(2t) (1 + X d_X)];
    quadratic potential: (2 e c2 / m omega) [sin^2(t) d_t + (1/2) sin(2t)(1 + X d_X)];
    linear potential: (e c1 sin(t) / m omega) d_X;
    uniform A: (e A / m c) cos(t) d_X.
    """
    c0, c1, c2 = _require_quadratic(fld)
    th = dom.thetas[:, None]
    x = dom.x[None, :]
    m_omega = grid.mass * grid.omega
    omega = grid.omega
    a_term = fld.e * fld.a_at() / (fld.mass * fld.c_light)

    def apply(v: np.ndarray) -> np.ndarray:
        d_th = _theta_derivative(v, dom.thetas, x_axis=2)
        d_x = ddx(v, dom.dx, axis=2)
        stretch = v + x[None] * d_x            # (1 + X d_X) v
        out = omega * (np.cos(th)[None] ** 2 * d_th
                       - 0.5 * np.sin(2 * th)[None] * stretch)
        out += (2.0 * fld.e * c2 / m_omega) * (np.sin(th)[None] ** 2 * d_th
                                               + 0.5 * np.sin(2 * th)[None] * stretch)
        out += (fld.e * c1 / m_omega) * np.sin(th)[None] * d_x
        out += a_term * np.cos(th)[None] * d_x
        return out

    return apply


def symplectic_generator(grid: PhaseSpaceGrid, dom: TomogramDomain, fld: EMFieldConfig):
    """Drift of the symplectic vector tomogram (quadratic class):
    (mu/m) d_nu + e c1 nu d_X - 2 e c2 nu d_mu + (e A mu / m c) d_X.

    The kinetic term carries the 1/m factor mandated by the Hamiltonian;
    mu and nu derivatives are central differences, so residuals are
    meaningful on interior (mu, nu) samples only.
    """
    c0, c1, c2 = _require_quadratic(fld)
    mu = dom.mu[:, None, None]
    nu = dom.nu[None, :, None]
    d_mu = dom.mu[1] - dom.mu[0]
    d_nu = dom.nu[1] - dom.nu[0]
    a_term = fld.e * fld.a_at() / (fld.mass * fld.c_light)

    def apply(v: np.ndarray) -> np.ndarray:
        d_x = ddx(v, dom.dx, axis=3)
        dv_mu = np.gradient(v, d_mu, axis=1)
        dv_nu = np.gradient(v, d_nu, axis=2)
        out = (mu[None] / fld.mass) * dv_nu
        out += fld.e * c1 * nu[None] * d_x
        out += -2.0 * fld.e * c2 * nu[None] * dv_mu
        out += a_term * mu[None] * d_x
        return out

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

    def as_dict(self) -> dict:
        return {
            "representation": self.representation,
            "times": self.times.tolist(),
            "per_frame_max": self.per_frame_max.tolist(),
            "max_residual": self.max_residual,
            "l2_residual": self.l2_residual,
            "meta": self.meta,
        }


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
    """Residuals d_t v - (M + S) v at interior frames of a uniform trajectory."""
    if len(traj.states) < 3:
        raise ValueError("residual check needs at least 3 frames")
    dts = np.diff(traj.times)
    if np.max(np.abs(dts - dts[0])) > 1e-12 * max(1.0, abs(dts[0])):
        raise ValueError("trajectory must be uniformly sampled in time")
    dt = float(dts[0])
    grid = traj.states[0].grid
    if dom is None:
        dom = default_domain(representation, grid)

    vals = [to_vector(s, frame, representation, dom).components
            for s in traj.states]
    gen = representation_generator(representation, grid, dom, fld)
    s_mat = spin_coupling_matrix(frame, fld.b_field, fld.kappa, fld.spin, grid.hbar)

    if representation in ("wigner", "husimi"):
        cell = grid.cell
    elif representation == "optical":
        cell = dom.dx * (dom.thetas[1] - dom.thetas[0])
    else:
        cell = dom.dx * (dom.mu[1] - dom.mu[0]) * (dom.nu[1] - dom.nu[0])

    per_frame = []
    sq_sum = 0.0
    times = []
    for k in range(1, len(vals) - 1):
        lhs = (vals[k + 1] - vals[k - 1]) / (2.0 * dt)
        rhs = gen(vals[k]) + np.einsum("jk,k...->j...", s_mat, vals[k])
        res = _interior(lhs - rhs, representation)
        per_frame.append(float(np.max(np.abs(res))))
        sq_sum += float(np.sum(res**2) * cell)
        times.append(traj.times[k])
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

    def as_dict(self) -> dict:
        return {
            "representation": self.representation,
            "coarse": self.coarse.as_dict(),
            "fine": self.fine.as_dict(),
            "ratio_max": self.ratio_max,
            "ratio_l2": self.ratio_l2,
            "order_max": self.order_max,
        }


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
        if representation in ("wigner", "husimi"):
            grid = PhaseSpaceGrid.centered(n * factor, length, hbar, mass, omega)
        else:
            grid = PhaseSpaceGrid.centered(n, length, hbar, mass, omega)
        if representation == "optical":
            dom = TomogramDomain.optical_default(grid, n_theta * factor)
        elif representation == "symplectic-section":
            dom = TomogramDomain.symplectic_grid(
                grid,
                np.linspace(0.85, 1.15, (n_mu - 1) * factor + 1),
                np.linspace(0.75, 1.05, (n_nu - 1) * factor + 1))
        else:
            dom = None
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
