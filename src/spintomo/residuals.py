"""Residual verification of the representation-specific evolution equations.

For a trajectory rho(t) in the exactly-truncating field class (quadratic
scalar potential, uniform vector potential and magnetic field), the vector
distribution v(t) must satisfy d_t v = M v + S v, with M the representation
drift operator and S the constant spin-coupling matrix.  The residual engine
compares a central time difference of v against the spatially discretized
right-hand side and measures how the mismatch shrinks under refinement.

The right-hand side is one table of rows (evolution_rows): the vector Wigner
equation d_t w = sum over rows of spin (c_q q + c_p p + c_1) d_q^i d_p^j w, a
spin matrix on the portrait's mixing and an affine coefficient and derivative
order on its functions.  The Liouville class is three rows: -(L z)_q d_q and
-(L z)_p d_p with the identity, L = EMFieldConfig.phase_flow() and
z = (q, p, 1), and S with coefficient 1.  Each representation maps the rows
by fixed rules (Mancini, Man'ko and Tombesi, Found. Phys. 27, 801 (1997)):
- Husimi: q. -> q + S_qq d_q and p. -> p + S_pp d_p (Weierstrass), with S the
  covariance of the Gaussian that smooths Wigner into Husimi; Wigner is the
  case S = 0.
- Symplectic M(X, mu, nu): d_q -> mu d_X, d_p -> nu d_X, q. -> -d_X^-1 d_mu
  and p. -> -d_X^-1 d_nu.
- Optical w(X, theta) = M(X, k(theta)) on the ellipse
  k = (cos theta, sin theta / m omega) (grid constants): the symplectic
  image, with a.grad_k split as alpha k + beta dk/dtheta, which gives
  beta d_theta - alpha (1 + X d_X) since M is homogeneous of degree -1.
A row whose image keeps d_X^-1 is refused with ValueError.  Affine rows need
no k-derivative beyond the first, which the optical split covers.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    EMFieldConfig,
    PropagatorConfig,
    Trajectory,
    evolve_oracle,
    spin_coupling_matrix,
)
from .errors import UndersampledDomainError
from .grids import PhaseSpaceGrid, TomogramDomain
from .phase_space import _check_mirror, _flip_x, angle_step, ddx, husimi_variances
from .spin_frames import SpinFrame
from .states import spin_coherent_state
from .vector_portrait import SpinorDensity, VectorDistribution, _checked_domain, to_vector


# spin (c_q q + c_p p + c_1) d_q^i d_p^j, coef (c_q, c_p, c_1) and order (i, j);
# spin "1" is the identity, "S" the spin coupling
Row = namedtuple("Row", "spin coef order", defaults=[(0, 0)])


def evolution_rows(fld: EMFieldConfig) -> list[Row]:
    """The vector Wigner equation of the Liouville class of fld, identity rows first."""
    flow = fld.phase_flow()
    return [Row("1", tuple(-flow[0]), (1, 0)), Row("1", tuple(-flow[1]), (0, 1)),
            Row("S", (0.0, 0.0, 1.0))]


def _mesh_step(samples: np.ndarray, name: str) -> float:
    """Step of the increasing uniform mesh of 3 samples or more that central
    differences in name assume; UndersampledDomainError for any other mesh."""
    steps = np.diff(samples)
    if len(samples) < 3 or not np.all(np.abs(steps - steps[0]) < 1e-9 * steps[0]):
        raise UndersampledDomainError(
            f"expected an increasing uniform {name} mesh of 3 samples or more, "
            f"got {samples.tolist()}")
    return float(steps[0])


class _Image:
    """Rows mapped to one representation: operators on the functions, one per
    spin matrix in the order of its first row, the l2 residual's cell and the
    checked samples.  A subclass sets steps, a derivative per axis, and gives
    a row's terms."""

    refines_grid = False      # refinement halves dq and dp, doubling n
    interior = ()

    def __init__(self, representation: str, rows: list[Row]):
        groups = {}
        for row in rows:
            terms = groups.setdefault(row.spin, {})
            for coef, orders in self.terms(row):
                if np.any(coef):
                    if min(orders) < 0:
                        raise ValueError(f"{row} has no {representation} image: it keeps d_X^-1")
                    terms[orders] = terms.get(orders, 0.0) + coef
        self.operators = {spin: self._operator(terms) for spin, terms in groups.items()}

    def _operator(self, terms: dict):
        steps, orders = self.steps, sorted(terms, key=lambda o: (sum(o), [-k for k in o]))

        def apply(v: np.ndarray) -> np.ndarray:
            # each derivative is taken once, from the one a step below it on its
            # last differentiated axis, and scaled in place once all are taken;
            # the terms are summed lowest order first
            derivs = {(0,) * len(steps): v}
            for o in orders:
                below = (0,) * len(o)
                for a in np.repeat(np.arange(len(o)), o):
                    up = below[:a] + (below[a] + 1,) + below[a + 1:]
                    if up not in derivs:
                        derivs[up] = steps[a](derivs[below])
                    below = up
            out = [np.multiply(derivs[o], terms[o], out=None if derivs[o] is v else derivs[o])
                   for o in orders]
            return sum(out[1:], out[0])

        return apply


class _PhaseSpaceImage(_Image):
    """Wigner and Husimi functions, axes 1 (q) and 2 (p) of (R, n, n)."""

    refines_grid = True

    def __init__(self, representation, grid, dom, rows):
        self.q, self.p, self.cell = grid.q[:, None], grid.p[None, :], grid.cell
        self.smoothing = husimi_variances(grid) if representation == "husimi" else (0.0, 0.0)
        self.steps = (lambda v: ddx(v, grid.dx, axis=1), lambda v: ddx(v, grid.dp, axis=2))
        super().__init__(representation, rows)

    def terms(self, row):
        (c_q, c_p, c_1), (i, j), (s_qq, s_pp) = row.coef, row.order, self.smoothing
        yield c_q * self.q + c_p * self.p + c_1, (i, j)
        yield c_q * s_qq, (i + 1, j)
        yield c_p * s_pp, (i, j + 1)


class _SymplecticImage(_Image):
    """M(X, mu, nu), axes 1 (mu), 2 (nu) and 3 (X) of (R, n_mu, n_nu, n_x);
    mu and nu central differences are read on interior samples only."""

    interior = (slice(None), slice(1, -1), slice(1, -1))

    def __init__(self, representation, grid, dom, rows):
        d_mu, d_nu = _mesh_step(dom.mu, "mu"), _mesh_step(dom.nu, "nu")
        self.k, self.cell = (dom.mu[:, None, None], dom.nu[None, :, None]), dom.dx * d_mu * d_nu
        self.steps = (lambda v: np.gradient(v, d_mu, axis=1),
                      lambda v: np.gradient(v, d_nu, axis=2), lambda v: ddx(v, dom.dx, axis=3))
        super().__init__(representation, rows)

    def terms(self, row):
        # orders (d_mu, d_nu, d_X); q. d_q^i d_p^j -> -d_X^-1 d_mu (mu^i nu^j d_X^(i+j))
        (c_q, c_p, c_1), (i, j), (mu, nu) = row.coef, row.order, self.k
        mono = mu**i * nu**j
        yield c_1 * mono, (0, 0, i + j)
        yield (-c_q * i * mu**max(i - 1, 0) * nu**j
               - c_p * j * mu**i * nu**max(j - 1, 0)), (0, 0, i + j - 1)
        yield -c_q * mono, (1, 0, i + j - 1)
        yield -c_p * mono, (0, 1, i + j - 1)


class _OpticalImage(_Image):
    """w(X, theta) = M(X, k(theta)), axes 1 (theta) and 2 (X) of (R, n_theta, n_x)."""

    def __init__(self, representation, grid, dom, rows):
        d_theta = angle_step(dom.thetas)
        _check_mirror(dom, "the optical residual")
        self.cell, self.x = dom.dx * d_theta, dom.x[None, :]
        self.m_omega = grid.mass * grid.omega
        self.cos, self.sin = np.cos(dom.thetas[:, None]), np.sin(dom.thetas[:, None])
        self.k = (self.cos, self.sin / self.m_omega)

        def theta_step(v):    # central difference over w(X, theta + pi) = w(-X, theta)
            ext = np.concatenate([_flip_x(v[:, -1:], 2), v, _flip_x(v[:, :1], 2)], axis=1)
            return (ext[:, 2:] - ext[:, :-2]) / (2.0 * d_theta)

        self.steps = (theta_step, lambda v: ddx(v, dom.dx, axis=2))
        super().__init__(representation, rows)

    def terms(self, row):
        for a, (d_mu, d_nu, d_x) in _SymplecticImage.terms(self, row):
            if not (d_mu or d_nu):
                yield a, (0, d_x)
                continue
            # a e_mu or a e_nu = alpha k + beta dk/dtheta; d_X^d_x M has degree -1 - d_x
            alpha = a * (self.cos if d_mu else self.m_omega * self.sin)
            yield a * (-self.sin if d_mu else self.m_omega * self.cos), (1, d_x)
            yield -(1 + d_x) * alpha, (0, d_x)
            yield -alpha * self.x, (0, d_x + 1)


_IMAGES = {"wigner": _PhaseSpaceImage, "husimi": _PhaseSpaceImage,
           "optical": _OpticalImage, "symplectic-section": _SymplecticImage}


def generator(representation: str, grid: PhaseSpaceGrid, dom: TomogramDomain | None,
              fld: EMFieldConfig) -> _Image:
    """evolution_rows(fld) mapped to representation; operators["1"] is the drift."""
    if representation not in _IMAGES:
        raise ValueError(f"unknown representation {representation!r}")
    return _IMAGES[representation](representation, grid, dom, evolution_rows(fld))


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

    Each spin group of generator's table acts on a portrait v = A B
    (VectorDistribution.mixing A (c, R) and .functions B) as its matrix on A
    and its operator on B: the right-hand side is [A, S A] [M B; B], and M
    runs on the R functions.  Components are read only for the central
    difference and its maximum.

    The central difference at frame k reads frames k - 1, k and k + 1 only,
    so at most these three portraits are held: frame k + 1 is taken once the
    right-hand side of frame k is formed, and the residual is formed in place
    in the components of frame k - 1, which are not read again.  to_vector
    runs once per frame, in frame order.
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
    dom = _checked_domain(representation, dom)

    image = generator(representation, grid, dom, fld)
    s_mat = spin_coupling_matrix(frame, fld.b_field, fld.kappa, fld.spin, grid.hbar)
    spin = {"1": lambda a: a, "S": lambda a: s_mat @ a}

    def portrait(k: int) -> VectorDistribution:
        return to_vector(traj.states[k], frame, representation, dom)

    per_frame = []
    sq_sum = 0.0
    times = []
    prev, cur = portrait(0), portrait(1)
    for k in range(1, len(traj.states) - 1):
        # the sum over spin groups of (spin A) (operator B), identity first, as one product
        rhs = np.tensordot(np.hstack([spin[s](cur.mixing) for s in image.operators]),
                           np.concatenate([f(cur.functions) for f in image.operators.values()]), 1)
        nxt = portrait(k + 1)
        # frame k - 1 is read for the last time: its components take the residual
        res = np.subtract(nxt.components, prev.components, out=prev.components)
        res /= 2.0 * dt
        res -= rhs
        del rhs
        res = res[image.interior]
        per_frame.append(float(np.max(np.abs(res))))
        sq_sum += float(np.sum(res**2) * image.cell)
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
    if representation not in _IMAGES:
        raise ValueError(f"unknown representation {representation!r}")
    reports = []
    for level in (0, 1):
        factor = 2**level
        n_grid = n * factor if _IMAGES[representation].refines_grid else n
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
