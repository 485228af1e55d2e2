"""Time evolution for quadratic potentials with uniform fields: the exact
spinor propagator (the oracle), the spin coupling matrix S of dw/dt = S w,
and direct integration of the vector Wigner equation.

spin_flow forms the spin part of every evolution, u(t) = exp(-i H_s t / hbar)
or its frame image exp(S t), from one eigh of H_s; evolve_oracle and
evolve_wigner_vector apply it once per saved chunk, next to the chunk's
spatial part.  _sub_maps gives both evolutions that spatial part: the chunk's
Strang steps composed into one affine map and split into sub-maps of three
shears, which move w and multiply psi by chirps and Fresnel factors (see each)."""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import SchemeMismatchError, UnsteppableFieldError
from .grids import PhaseSpaceGrid
from .spin_frames import SpinFrame, projection_values, spin_operators
from .vector_portrait import SpinorDensity, VectorDistribution

ORACLE_SCHEMES = ("split-step-strang", "rk4-ode")
WIGNER_SCHEME = "wigner-spectral"


def _finite(val, shape: tuple, name: str) -> np.ndarray:
    """val as a finite float array of the given shape; ValueError otherwise."""
    try:
        arr = np.asarray(val, dtype=float)
        if arr.shape == shape and np.all(np.isfinite(arr)):
            return arr
    except (TypeError, ValueError):
        pass
    what = f"{shape[0]} finite numbers" if shape else "a finite number"
    raise ValueError(f"{name} must be {what}, got {val!r}")


@dataclass(frozen=True)
class EMFieldConfig:
    """Electromagnetic environment of a charged particle with a magnetic moment.

    The fields are static: phi holds the coefficients (c0, c1, c2) of
    c0 + c1 q + c2 q^2 (default the zero potential), a_long is the uniform
    longitudinal vector potential component and b_field the uniform magnetic
    field 3-vector.  In this class the evolution operators truncate exactly.
    The transverse vector-potential slopes implied by b_field are
    dA_y/dq = B_z and dA_z/dq = -B_y; a longitudinal-only grid carries no
    orbital coupling for them, so b_field enters through the magnetic-moment
    term alone.  B_x has no A(q)-only representation and is treated the same
    way.  Every number must be finite, and mass and c_light positive;
    anything else raises ValueError.
    """

    phi: tuple = (0.0, 0.0, 0.0)
    a_long: float = 0.0
    b_field: np.ndarray = dc_field(default_factory=lambda: np.zeros(3))
    e: float = 1.0
    c_light: float = 1.0
    kappa: float = 1.0
    mass: float = 1.0
    spin: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(_finite(self.phi, (3,), "phi").tolist()))
        object.__setattr__(self, "a_long", float(_finite(self.a_long, (), "a_long")))
        object.__setattr__(self, "b_field", _finite(self.b_field, (3,), "b_field"))
        for name in ("e", "c_light", "kappa", "mass", "spin"):
            _finite(getattr(self, name), (), name)
        for name in ("mass", "c_light"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def phi_at(self, q: np.ndarray) -> np.ndarray:
        c0, c1, c2 = self.phi
        return c0 + c1 * q + c2 * q * q

    def phase_flow(self) -> np.ndarray:
        """Affine generator L of the classical flow, d(q, p, 1)/dt = L (q, p, 1):
        dq/dt = (p - eA/c)/m and dp/dt = -e phi'(q) = -e (c1 + 2 c2 q).

        The Strang step and the Wigner, Husimi, optical and symplectic drifts
        are all images of this flow.  A generator that is not finite raises
        UnsteppableFieldError, naming phi (the force row) or a_long (the
        velocity row).
        """
        _, c1, c2 = self.phi
        m, e, c = self.mass, self.e, self.c_light
        flow = np.array([[0.0, 1.0 / m, -e * self.a_long / (m * c)],
                         [-2.0 * e * c2, 0.0, -e * c1],
                         [0.0, 0.0, 0.0]])
        for name, row in (("phi", flow[1]), ("a_long", flow[0])):
            if not np.all(np.isfinite(row)):
                raise UnsteppableFieldError(
                    f"{name}: the phase-space flow {row.tolist()} overflows")
        return flow

    def zeeman_matrix(self) -> np.ndarray:
        """-(kappa/s) s_hat . B, acting on the spin index."""
        sx, sy, sz = spin_operators(self.spin)
        bx, by, bz = self.b_field
        return -(self.kappa / self.spin) * (bx * sx + by * sy + bz * sz)


def _check_spin_dim(fld: EMFieldConfig, dim: int, what: str) -> None:
    """Raise unless the field's spin s has the spin dimension 2s+1 of what."""
    field_dim = len(projection_values(fld.spin))
    if field_dim != dim:
        raise ValueError(f"field spin s={fld.spin:g} has spin dimension {field_dim}, "
                         f"but the {what} has spin dimension {dim}")


@dataclass(frozen=True)
class PropagatorConfig:
    dt: float
    n_steps: int
    scheme: str = "split-step-strang"
    save_every: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")
        for name in ("n_steps", "save_every"):
            val = getattr(self, name)
            if not isinstance(val, (int, np.integer)) or val < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {val!r}")

    def chunks(self) -> list:
        """Steps between saved frames: save_every each, then what remains."""
        full, rest = divmod(self.n_steps, self.save_every)
        return [self.save_every] * full + ([rest] if rest else [])


def spin_coupling_matrix(frame: SpinFrame, b_field, kappa: float, s: float,
                         hbar: float = 1.0) -> np.ndarray:
    """S_jk = (2/hbar) Im Tr{U_j H_s D_k} with H_s = -(kappa/s) s_hat . B.

    Valid for uniform fields, where the frame weights of any state obey
    dw/dt = S w exactly.
    """
    h_s = EMFieldConfig(b_field=b_field, kappa=kappa, spin=s).zeeman_matrix()
    traces = np.einsum("jab,bc,kca->jk", frame.dequantizer, h_s, frame.quantizer)
    return (2.0 / hbar) * traces.imag


def spin_flow(fld: EMFieldConfig, hbar: float, times, frame: SpinFrame | None = None
              ) -> np.ndarray:
    """u(t) = exp(-i H_s t / hbar) = V exp(-i E t / hbar) V^H at each of times,
    (T, 2s+1, 2s+1), from one eigh H_s = V E V^H; with a frame, its image on
    the weights, exp(S t)_jk = Re Tr(U_j u D_k u^H), (T, c, c), formed as
    delta_jk (Tr(U_j D_k) of an exact dual pair) plus the image of
    u D u^H - D.  In the eigenbasis that difference has entries
    ((1 + z_a)(1 + conj z_b) - 1) (V^H D V)_ab, z = exp(-i E t / hbar) - 1
    at full relative precision, so short-time images stay exact to round-off."""
    evals, evecs = np.linalg.eigh(fld.zeeman_matrix())
    energy_times = np.multiply.outer(np.asarray(times, dtype=float), evals)
    if frame is None:
        return (evecs * np.exp(-1j * energy_times / hbar)[:, None, :]) @ evecs.conj().T
    z = -2.0 * np.sin(0.5 * energy_times / hbar) ** 2 - 1j * np.sin(energy_times / hbar)
    pair = z[:, :, None] + z[:, None, :].conj() + z[:, :, None] * z[:, None, :].conj()
    dequant, quant = (evecs.conj().T @ m @ evecs for m in (frame.dequantizer, frame.quantizer))
    return np.eye(frame.size) + np.einsum("jba,tab,kab->tjk", dequant, pair, quant).real


# ---------------------------------------------------------------------------
# Hamiltonian action and the exact-oracle propagator
# ---------------------------------------------------------------------------

def hamiltonian_apply(psi: np.ndarray, grid: PhaseSpaceGrid, fld: EMFieldConfig) -> np.ndarray:
    """H psi for a spinor field psi of shape (2s+1, n).

    Kinetic term (p - eA/c)^2 / 2m evaluated spectrally, scalar potential
    pointwise, magnetic-moment term as an exact matrix on the spin index.
    """
    psi = np.asarray(psi, dtype=complex)
    hk = grid.hbar * grid.k_fft
    kin_diag = (hk - fld.e * fld.a_long / fld.c_light) ** 2 / (2.0 * fld.mass)
    out = np.fft.ifft(kin_diag[None, :] * np.fft.fft(psi, axis=1), axis=1)
    out += fld.e * fld.phi_at(grid.q)[None, :] * psi
    out += fld.zeeman_matrix() @ psi
    return out


def expectation(psi: np.ndarray, grid: PhaseSpaceGrid, op_psi: np.ndarray) -> float:
    return float(np.sum(psi.conj() * op_psi).real * grid.dx)


@dataclass
class Trajectory:
    """Uniformly sampled spinor-density frames with conserved-quantity logs."""

    times: np.ndarray
    states: list
    energies: np.ndarray
    traces: np.ndarray


def _check_steppable(grid: PhaseSpaceGrid, fld: EMFieldConfig, dt: float) -> None:
    """Refuse a field the grid cannot Strang-step, whose half kick or kinetic
    phase would overflow: UnsteppableFieldError naming phi (e phi(q) or the
    kick's phase) or a_long (the kinetic phase), or dt when the kinetic phase
    overflows with a_long left out as well.  Every evolution calls it before
    its first step."""
    with np.errstate(over="ignore", invalid="ignore"):
        e_phi = fld.e * fld.phi_at(grid.q)
        phi_ok = np.all(np.isfinite(e_phi) & np.isfinite(0.5 * dt * e_phi / grid.hbar))
        kin_ok = np.all(np.isfinite(
            dt * (grid.hbar * grid.k_fft - fld.e * fld.a_long / fld.c_light) ** 2
            / (2.0 * fld.mass * grid.hbar)))
        free_ok = kin_ok or np.all(np.isfinite(
            dt * (grid.hbar * grid.k_fft) ** 2 / (2.0 * fld.mass * grid.hbar)))
    if not phi_ok:
        raise UnsteppableFieldError(
            f"phi: e phi(q) or the Strang half-kick phase dt e phi(q) / (2 hbar) "
            f"overflows on the grid (|q| up to {np.max(np.abs(grid.q)):g})")
    if not free_ok:
        raise UnsteppableFieldError(
            f"dt: the Strang kinetic phase dt (hbar k)^2 / (2 m hbar) overflows on the "
            f"grid (|k| up to {np.max(np.abs(grid.k_fft)):g}) for the time step {dt!r}")
    if not kin_ok:
        raise UnsteppableFieldError(
            f"a_long: the Strang kinetic phase dt (hbar k - e a_long / c)^2 / "
            f"(2 m hbar) overflows on the grid for a_long {fld.a_long!r}")


def _rk4_steps(psis: np.ndarray, grid: PhaseSpaceGrid, fld: EMFieldConfig,
               dt: float, n_sub: int) -> np.ndarray:
    def deriv(p):
        return np.stack([hamiltonian_apply(pk, grid, fld) for pk in p]) / (1j * grid.hbar)

    for _ in range(n_sub):
        k1 = deriv(psis)
        k2 = deriv(psis + 0.5 * dt * k1)
        k3 = deriv(psis + 0.5 * dt * k2)
        k4 = deriv(psis + dt * k3)
        psis = psis + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return psis


def evolve_oracle(rho0: SpinorDensity, fld: EMFieldConfig, prop: PropagatorConfig,
                  t0: float = 0.0) -> Trajectory:
    """Unitary propagation of a spinor density as a pure-state ensemble.

    The factors (p_r, psi_r) of rho0 are propagated (Strang splitting by
    default, RK4 optional) and saved as a factored frame every save_every steps.

    A Strang chunk of m steps factors into a spin part and a spatial part,
    since the uniform Zeeman term H_s acts on the spin index alone and
    commutes with the rest of H: the spin part is spin_flow at m dt.  The
    spatial part is metaplectic (Moshinsky and Quesne 1971): its Wigner image
    is the affine map that evolve_wigner_vector applies, so it runs as the
    same sub-maps (_sub_maps), each shear of w becoming a factor on psi as in
    phase_space._shear_factors: the chirp exp(-i (alpha q^2 / 2 + beta q) / hbar),
    the Fresnel factor exp(i (b (hbar k)^2 / 2 + c hbar k) / hbar) on the FFT
    bins, and the chirp exp(-i gamma q^2 / 2 hbar), tabled once per sub-map
    length.  The scheme is Strang, with its O(dt^2) error; the factors carry
    another global phase than the stepped loop, shared by all of them, so
    every density is the same.
    """
    if prop.scheme not in ORACLE_SCHEMES:
        raise SchemeMismatchError(
            f"oracle propagation supports {ORACLE_SCHEMES}, got {prop.scheme!r}")
    probs, psis = rho0.factors
    _check_spin_dim(fld, psis.shape[1], "state")
    grid = rho0.grid
    dt = prop.dt
    chunks = prop.chunks()
    _check_steppable(grid, fld, dt)
    lengths = sorted(set(chunks))      # at most two
    spins = dict(zip(lengths, spin_flow(fld, grid.hbar, dt * np.array(lengths))))
    if prop.scheme != "rk4-ode":
        splits, shears = _sub_maps(fld, dt, chunks, grid.dx / grid.dp)
        q, hk = grid.q, grid.hbar * grid.k_fft
        tables = {j: (np.exp(-1j * (0.5 * alpha * q + beta) * q / grid.hbar),
                      np.exp(1j * (0.5 * b * hk + c) * hk / grid.hbar),
                      np.exp(-0.5j * gamma * q * q / grid.hbar))
                  for j, (alpha, beta, b, c, gamma) in shears.items()}

    def advance(psis, n_sub):
        if prop.scheme == "rk4-ode":
            return _rk4_steps(psis, grid, fld, dt, n_sub)
        for j in splits[n_sub]:
            chirp, fresnel, chirp_out = tables[j]
            psis = chirp_out * np.fft.ifft(fresnel * np.fft.fft(chirp * psis, axis=-1), axis=-1)
        return np.einsum("ab,kbn->kan", spins[n_sub], psis)

    def energy(p):
        return sum(w * expectation(pk, grid, hamiltonian_apply(pk, grid, fld))
                   for w, pk in zip(probs, p))

    times = [t0]
    states = [SpinorDensity.from_mixture(probs, psis, grid)]
    t = t0
    for chunk in chunks:
        psis = advance(psis, chunk)
        t += chunk * dt
        times.append(t)
        states.append(SpinorDensity.from_mixture(probs, psis, grid))
    energies = [energy(s.factors[1]) for s in states]
    return Trajectory(times=np.asarray(times), states=states,
                      energies=np.asarray(energies),
                      traces=np.asarray([s.trace() for s in states]))


# ---------------------------------------------------------------------------
# Strang sub-maps, shared by both evolutions
# ---------------------------------------------------------------------------

# Largest p-shear slope of a sub-map in grid units (dp per dq): a p-shear
# moves the two ends of the q-box apart by at most a quarter of the p-box.
# Spectral content folded at the p-band edge of a marginally resolved state
# takes the wrong sign of each p-shear's phase, so steeper sub-maps move
# frames further from the step-by-step result: on acceptance criterion 8's
# oscillator run (n=128) slope 0.41, a pi/4 rotation on a balanced grid,
# gives 3.4e-12 and slope 1/4 gives 7e-13.  The q-shear between the p-shears
# is the physical drift and is not capped.  On psi the p-shears are chirps,
# whose momentum kick alpha q the cap bounds across the box alike.
_P_SHEAR_CAP = 0.25


def _compose(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(I + e)(I + f) - I.  Maps are kept as their offset from the identity so
    that a - 1 and d - 1 of short maps keep full relative precision."""
    return e + f + e @ f


def _power(e: np.ndarray, n: int) -> np.ndarray:
    """(I + e)^n - I by binary powering, squaring only while bits remain."""
    out = np.zeros_like(e)
    while n:
        if n & 1:
            out = _compose(out, e)
        n >>= 1
        if n:
            e = _compose(e, e)
    return out


def _strang_step(fld: EMFieldConfig, dt: float) -> np.ndarray:
    """One Strang step kick(dt/2) drift(dt) kick(dt/2) as the backward affine
    map M of (q, p, 1), w(t + dt)(z) = w(t)(M z), returned as M - I.

    With L = fld.phase_flow(), the kick moves p back along the p-row of L for
    dt/2, the drift moves q back along its q-row for dt.
    """
    flow = fld.phase_flow()
    kick = np.diag([0.0, -0.5 * dt, 0.0]) @ flow
    drift = np.diag([-dt, 0.0, 0.0]) @ flow
    return _compose(_compose(kick, drift), kick)


def _p_shear(e: np.ndarray, aspect: float) -> float:
    """Steeper of the two p-shears (d-1)/b and (a-1)/b of I + e, in grid
    units by aspect = dq/dp; inf when b = 0."""
    b = e[0, 1]
    return max(abs(e[0, 0]), abs(e[1, 1])) * aspect / abs(b) if b else np.inf


def _max_steps(step: np.ndarray, n: int, aspect: float) -> int:
    """Most steps, at most n, whose composed map and every shorter one keep
    their p-shears within _P_SHEAR_CAP; at least one.

    The p-shear of step^j grows with j (tan, tanh or 0 for elliptic,
    hyperbolic and free steps) until a rotation passes pi, so doubling then
    bisection finds the first j over the cap, and no sub-map can wrap round a
    period to a near-identity map whose shears lose all precision.
    """
    def ok(j):
        return _p_shear(_power(step, j), aspect) <= _P_SHEAR_CAP

    if not ok(1):
        return 1
    lo, hi = 1, 2
    while hi <= n and ok(hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, n + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def _sub_maps(fld: EMFieldConfig, dt: float, chunks: list,
              aspect: float) -> tuple[dict, dict]:
    """splits[m], the near-equal sub-map lengths of a chunk of m Strang steps
    (as few as keep each p-shear within _P_SHEAR_CAP), and shears[j] =
    (alpha, beta, b, c, gamma), the backward map w(z) -> w(M z) of j steps as
    w(q, p + alpha q + beta), then w(q + b p + c, p), then w(q, p + gamma q).
    A step with omega dt >= 2 in a trap (omega^2 = 2 e c2 / m > 0) is
    unstable, and composing its powers overflows: UnsteppableFieldError
    naming dt.  An inverted trap grows as its flow does and is stepped."""
    flow = fld.phase_flow()
    with np.errstate(over="ignore"):
        omega_dt2 = -flow[1, 0] * dt * flow[0, 1] * dt
    if omega_dt2 >= 4.0:
        raise UnsteppableFieldError(
            f"dt: a Strang step of {dt!r} is unstable in this trap: omega dt = "
            f"{np.sqrt(omega_dt2):.6g} >= 2, with omega^2 = 2 e c2 / m")
    step = _strang_step(fld, dt)
    max_steps = _max_steps(step, chunks[0], aspect)
    splits = {}
    for m in set(chunks):
        k = -(-m // max_steps)
        j, r = divmod(m, k)
        splits[m] = [j + 1] * r + [j] * (k - r)
    shears = {}
    for j in set().union(*splits.values()):
        (a1, b, c), (_, d1, cp) = _power(step, j)[:2]
        alpha = d1 / b
        shears[j] = (alpha, cp - alpha * c, b, c, a1 / b)
    return splits, shears


# ---------------------------------------------------------------------------
# direct integration of the vector phase-space equation
# ---------------------------------------------------------------------------

@dataclass
class VectorTrajectory:
    times: np.ndarray
    frames: list
    norm_sums: np.ndarray


def _shear(w: np.ndarray, axis: int, turn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Band-limited shift of a real stack (c, n, n) along axis 1 or 2 by
    phase / k, one shift per line, given turn = exp(i phase) on the rfftfreq
    bins of that axis.

    Returns the real shifted stack and, per row and line (c, n), the signed
    part that the shift drops: at the Nyquist bin X_N (grid sizes are even)
    it keeps cos(phi_N) X_N, and a complex shift would also leave an imaginary
    part of +-sin(phi_N) X_N / n at every point of the line.  The dropped
    part is linear in w, so a combination of rows drops that combination of
    theirs.
    """
    n = w.shape[axis]
    spec = np.fft.rfft(w, axis=axis)
    nyq = np.take(spec, -1, axis=axis).real * np.take(turn, -1, axis=axis - 1).imag
    return np.fft.irfft(turn * spec, n, axis=axis), nyq / n


def evolve_wigner_vector(v0: VectorDistribution, fld: EMFieldConfig,
                         prop: PropagatorConfig) -> VectorTrajectory:
    """Evolve a vector Wigner distribution under a quadratic potential and
    uniform fields.

    The drift is -(L z).grad w with z = (q, p, 1) and L = fld.phase_flow()
    (the operator series truncates at first derivatives for this field
    class, the only one EMFieldConfig holds).  prop.dt is the Strang step
    kick(dt/2) drift(dt) kick(dt/2); each step is an affine symplectic map of
    (q, p), so the steps between two saved frames compose in closed form to
    one map w(z) -> w(M z).  M is applied as three spectral shears (Paeth
    1986): a p-shear, a q-shear, a p-shear, with the translation folded into
    their offsets, in as many sub-maps as keep the p-shears within
    _P_SHEAR_CAP; _sub_maps gives them, as it does to evolve_oracle.  A
    sub-map and its three phase tables exp(i phase) depend only on its number
    of steps, so they are built once per distinct length.

    The drift acts on phase space alone and the spin coupling dw/dt = S w on
    the component index alone, and the two commute.  So the evolution reads
    v0's factors w = A B (VectorDistribution.mixing and .functions, kept by
    to_vector): B holds the R phase-space functions the components are
    formed from (1 for a product state, R for a mixture of R < c product
    states, the c components themselves otherwise) and is what the shears
    move, while the spin coupling mixes the (c, R) matrix A by exp(S tau), the
    frame image of spin_flow, once per chunk length.  A saved frame keeps its
    factors (exp(S tau) A, B(tau)) and forms its components as their product.
    The cost therefore grows with saved frames times R, not n_steps or c.

    The components stay real: each shear runs on rfft bins and keeps the real
    part of what a complex shift would give.  The part it drops lives at the
    Nyquist bin, and a frame's imag_residues carry it: they start from
    v0.imag_residues, add each shear's largest dropped part per component
    (A combines the rows' dropped parts line by line, as the shear is
    linear), and pass through each spin mixing M = exp(S tau) as |M| r.  To
    first order in the band-edge content this bounds the imaginary part that
    complex shears would carry.  The residues stay at round-off for states
    the grid supports and flag band-edge content otherwise.
    """
    if prop.scheme != WIGNER_SCHEME:
        raise SchemeMismatchError(
            f"vector Wigner evolution uses scheme {WIGNER_SCHEME!r}, got {prop.scheme!r}")
    if v0.representation != "wigner":
        raise ValueError("initial distribution must be in the wigner representation")
    _check_spin_dim(fld, v0.frame.dim, "frame")

    grid, dt = v0.grid, prop.dt
    _check_steppable(grid, fld, dt)
    q, p = grid.q, grid.p
    kq = 2.0 * np.pi * np.fft.rfftfreq(grid.n, grid.dx)
    kp = 2.0 * np.pi * np.fft.rfftfreq(grid.n, grid.dp)
    chunks = prop.chunks()
    splits, shear_params = _sub_maps(fld, dt, chunks, grid.dx / grid.dp)
    lengths = sorted(set(chunks))     # exp(S tau) for each chunk length tau
    mixes = dict(zip(lengths, spin_flow(fld, grid.hbar, dt * np.array(lengths), v0.frame)))

    res = (np.zeros(len(v0.components)) if v0.imag_residues is None
           else np.array(v0.imag_residues, dtype=float))
    mixing, rows = v0.mixing, v0.functions     # the shears move only rows

    # sub-map length -> its three shears (axis, exp(i phase))
    shears = {j: [(axis, np.exp(1j * phase)) for axis, phase in (
                  (2, np.outer(alpha * q + beta, kp)),
                  (1, np.outer(kq, b * p + c)),
                  (2, np.outer(gamma * q, kp)))]
              for j, (alpha, beta, b, c, gamma) in shear_params.items()}

    def run_chunk(mixing, rows, res, n_sub):
        for j in splits[n_sub]:
            for axis, turn in shears[j]:
                rows, dropped = _shear(rows, axis, turn)
                res = res + np.max(np.abs(mixing @ dropped), axis=1)
        return mixes[n_sub] @ mixing, rows, np.abs(mixes[n_sub]) @ res

    def frame_of(w, mixing, rows, res, t):
        return VectorDistribution(
            representation="wigner", components=w, frame=v0.frame,
            grid=grid, time=t, imag_residues=res, factors=(mixing, rows))

    times = [v0.time]
    frames = [frame_of(np.array(v0.components, dtype=float), mixing, rows, res, v0.time)]
    t = v0.time
    for chunk in chunks:
        mixing, rows, res = run_chunk(mixing, rows, res, chunk)
        t += chunk * dt
        frames.append(frame_of(np.tensordot(mixing, rows, 1), mixing, rows, res, t))
        times.append(t)
    norm_sums = np.asarray([f.normalization_sum() for f in frames])
    return VectorTrajectory(times=np.asarray(times), frames=frames, norm_sums=norm_sums)


# ---------------------------------------------------------------------------
# frequency extraction
# ---------------------------------------------------------------------------

def fit_precession_frequency(times: np.ndarray, series: np.ndarray,
                             n_harmonics: int = 2) -> float:
    """Angular frequency of a (multi-)harmonic signal by variable projection.

    Linear least squares in the harmonic amplitudes at fixed omega, outer
    bounded minimization over omega.  Avoids FFT leakage bias at short
    durations.  The FFT peak may sit on any harmonic h of omega (a spin-1
    weight series of an m = 0 state oscillates mostly at 2 omega), so the
    search is seeded at peak / h for each h = 1..n_harmonics and keeps the
    omega of least residual.  A signal at omega alone is fit as well by
    omega / 2 with its second harmonic, so a lower seed wins only by more
    than round-off in the residual.  No caller in the package (`precess` reads
    the spectrum of S); the benchmark's span table traces it by name.
    """
    from scipy.optimize import minimize_scalar   # costs every import 0.2 s at module level

    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    dt = times[1] - times[0]
    spec = np.abs(np.fft.rfft(series - series.mean(), n=8 * len(series)))
    freqs = 2.0 * np.pi * np.fft.rfftfreq(8 * len(series), dt)
    guess = freqs[int(np.argmax(spec))]
    if guess == 0.0:
        guess = freqs[1]

    def ssr(omega):
        cols = [np.ones_like(times)]
        for h in range(1, n_harmonics + 1):
            cols.append(np.cos(h * omega * times))
            cols.append(np.sin(h * omega * times))
        a = np.stack(cols, axis=1)
        resid = series - a @ np.linalg.lstsq(a, series, rcond=None)[0]
        return float(resid @ resid)

    round_off = 1e-12 * float(np.sum((series - series.mean()) ** 2))
    best = None
    for h in range(1, n_harmonics + 1):
        res = minimize_scalar(ssr, bounds=(0.5 * guess / h, 1.5 * guess / h), method="bounded",
                              options={"xatol": 1e-14})
        if best is None or res.fun < best.fun - round_off:
            best = res
    return float(best.x)
