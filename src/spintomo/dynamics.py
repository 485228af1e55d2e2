"""Time evolution: exact spinor propagation, the 9x9 spin coupling matrix,
and direct integration of the vector phase-space equation for quadratic
potentials with uniform fields.

In that field class a Strang step of the vector Wigner equation is an affine
symplectic map of (q, p), so evolve_wigner_vector composes the steps between
two saved frames in closed form and applies the result as three spectral
shears: dt keeps its meaning as the Strang step.  The shears move only the
R independent phase-space functions of the component stack (one for a
product state, at most (2s+1)^2), and the spin coupling mixes their
coefficients, so the cost follows saved frames times R rather than n_steps.
The components stay real: the shears run on rfft bins, and each frame's
imag_residues carry the imaginary part that complex shears would have left
at the Nyquist bin, per component.

The oracle's Strang scheme applies the uniform Zeeman term once per saved
chunk of m steps and advances a chunk by the m-th power of the one-step n x n
Strang matrix when that costs no more than stepping (see evolve_oracle);
otherwise it steps with the tomogram rotation's chirp-Fresnel-chirp sandwich."""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import SchemeMismatchError
from .grids import PhaseSpaceGrid
from .phase_space import _shear as _sandwich    # chirp . F^-1 fresnel F . chirp steps
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
        are all images of this flow.
        """
        _, c1, c2 = self.phi
        m, e, c = self.mass, self.e, self.c_light
        return np.array([[0.0, 1.0 / m, -e * self.a_long / (m * c)],
                         [-2.0 * e * c2, 0.0, -e * c1],
                         [0.0, 0.0, 0.0]])

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


def spin_coupling_matrix(frame: SpinFrame, b_field, kappa: float, s: float,
                         hbar: float = 1.0) -> np.ndarray:
    """S_jk = (2/hbar) Im Tr{U_j H_s D_k} with H_s = -(kappa/s) s_hat . B.

    Valid for uniform fields, where the frame weights of any state obey
    dw/dt = S w exactly.
    """
    h_s = EMFieldConfig(b_field=b_field, kappa=kappa, spin=s).zeeman_matrix()
    traces = np.einsum("jab,bc,kca->jk", frame.dequantizer, h_s, frame.quantizer)
    return (2.0 / hbar) * traces.imag


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


def _strang_factors(grid: PhaseSpaceGrid, fld: EMFieldConfig,
                    dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Half potential kick and kinetic phase of a Strang step of size dt."""
    half_v = np.exp(-0.5j * dt * fld.e * fld.phi_at(grid.q) / grid.hbar)
    kin = np.exp(-1j * dt * (grid.hbar * grid.k_fft - fld.e * fld.a_long / fld.c_light) ** 2
                 / (2.0 * fld.mass * grid.hbar))
    return half_v, kin


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
    commutes with the rest of H: the spin part is the one matrix
    expm(-i m dt H_s / hbar), formed from the eigenpairs of the Hermitian H_s.
    Each Strang step of the spatial part is the sandwich S = diag(h) F^-1
    diag(kin) F diag(h) of the half potential kick h, kinetic phase kin and
    FFT F: phase_space._shear with h as chirp and kin as Fresnel factor.  A
    chunk is stepped, or is S^m (S the sandwich of the identity), formed by
    binary powering once per distinct chunk length and applied as one
    product.  Powering is used when those 2 ceil(log2 m) n x n products
    cost no more than n_steps dense steps, 2 ceil(log2 m) n <= n_steps, and
    one n x n product per chunk no more than m FFT steps,
    n <= m ceil(log2 n).  The scheme is Strang either way, with its O(dt^2)
    error.
    """
    if prop.scheme not in ORACLE_SCHEMES:
        raise SchemeMismatchError(
            f"oracle propagation supports {ORACLE_SCHEMES}, got {prop.scheme!r}")
    probs, psis = rho0.factors
    _check_spin_dim(fld, psis.shape[1], "state")
    grid = rho0.grid
    dt = prop.dt
    m = min(prop.save_every, prop.n_steps)
    # the size rule of the docstring; (k - 1).bit_length() is ceil(log2 k)
    powered = (2 * (m - 1).bit_length() * grid.n <= prop.n_steps
               and grid.n <= m * (grid.n - 1).bit_length())
    half_v, kin = _strang_factors(grid, fld, dt)
    powers = {}    # chunk length -> S^chunk, at most two lengths
    zeeman, zeeman_basis = np.linalg.eigh(fld.zeeman_matrix())

    def advance(psis, n_sub):
        if prop.scheme == "rk4-ode":
            return _rk4_steps(psis, grid, fld, dt, n_sub)
        if powered:
            if n_sub not in powers:
                # the sandwich maps each row of the identity to a column of S
                step = _sandwich(np.eye(grid.n), (1, half_v, kin)).T
                powers[n_sub] = np.linalg.matrix_power(step, n_sub)
            psis = psis @ powers[n_sub].T
        else:
            psis = _sandwich(psis, (n_sub, half_v, kin))
        spin = (zeeman_basis * np.exp(-1j * n_sub * dt * zeeman / grid.hbar)) \
            @ zeeman_basis.conj().T
        return np.einsum("ab,kbn->kan", spin, psis)

    def energy(p):
        return sum(w * expectation(pk, grid, hamiltonian_apply(pk, grid, fld))
                   for w, pk in zip(probs, p))

    times = [t0]
    states = [SpinorDensity.from_mixture(probs, psis, grid)]
    t = t0
    done = 0
    while done < prop.n_steps:
        chunk = min(prop.save_every, prop.n_steps - done)
        psis = advance(psis, chunk)
        t += chunk * dt
        done += chunk
        times.append(t)
        states.append(SpinorDensity.from_mixture(probs, psis, grid))
    energies = [energy(s.factors[1]) for s in states]
    return Trajectory(times=np.asarray(times), states=states,
                      energies=np.asarray(energies),
                      traces=np.asarray([s.trace() for s in states]))


# ---------------------------------------------------------------------------
# direct integration of the vector phase-space equation
# ---------------------------------------------------------------------------

@dataclass
class VectorTrajectory:
    times: np.ndarray
    frames: list
    norm_sums: np.ndarray


# Largest p-shear slope of a sub-map in grid units (dp per dq): a p-shear
# moves the two ends of the q-box apart by at most a quarter of the p-box.
# Spectral content folded at the p-band edge of a marginally resolved state
# takes the wrong sign of each p-shear's phase, so steeper sub-maps move
# frames further from the step-by-step result: on acceptance criterion 8's
# oscillator run (n=128) slope 0.41, a pi/4 rotation on a balanced grid,
# gives 3.4e-12 and slope 1/4 gives 7e-13.  The q-shear between the p-shears
# is the physical drift and is not capped.
_P_SHEAR_CAP = 0.25


def _compose(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(I + e)(I + f) - I.  Maps are kept as their offset from the identity so
    that a - 1 and d - 1 of short maps keep full relative precision."""
    return e + f + e @ f


def _power(e: np.ndarray, n: int) -> np.ndarray:
    """(I + e)^n - I by binary powering."""
    out = np.zeros_like(e)
    while n:
        if n & 1:
            out = _compose(out, e)
        e = _compose(e, e)
        n >>= 1
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


# Singular values of a component stack below this share of the largest are
# dropped when evolve_wigner_vector factors it.  A product state's (9, n^2)
# stack has rank 1, and its other singular values are round-off of the
# Wigner transform: 2e-16 to 5e-16 of the first for packets on balanced(128),
# 1.2e-15 for a packet at the band edge of balanced(64).
_RANK_RTOL = 1e-14


def _factor(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with w = A @ B over its components: A (c, R) has orthonormal
    columns, the left singular vectors of the (c, n^2) stack whose singular
    values exceed _RANK_RTOL of the largest, and B = A^T w (R, n, n).

    The singular vectors come from the SVD of the c x c factor of a QR of the
    (n^2, c) transpose, which resolves singular values down to round-off of
    the largest; the Gram matrix w w^T would lose those below ~1e-8 of it.
    """
    flat = w.reshape(len(w), -1)
    u, sv, _ = np.linalg.svd(np.linalg.qr(flat.T, mode="r").T)
    a = u[:, sv > _RANK_RTOL * sv[0]]
    return a, (a.T @ flat).reshape((a.shape[1],) + w.shape[1:])


def _shear(w: np.ndarray, axis: int, phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Band-limited shift of a real stack (c, n, n) along axis 1 or 2 by
    phase / k, one shift per line, with phase on the rfftfreq bins of that axis.

    Returns the real shifted stack and, per row and line (c, n), the signed
    part that the shift drops: at the Nyquist bin X_N (grid sizes are even)
    it keeps cos(phi_N) X_N, and a complex shift would also leave an imaginary
    part of +-sin(phi_N) X_N / n at every point of the line.  The dropped
    part is linear in w, so a combination of rows drops that combination of
    theirs.
    """
    n = w.shape[axis]
    spec = np.fft.rfft(w, axis=axis)
    nyq = np.take(spec, -1, axis=axis).real * np.sin(np.take(phase, -1, axis=axis - 1))
    return np.fft.irfft(np.exp(1j * phase) * spec, n, axis=axis), nyq / n


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
    _P_SHEAR_CAP.

    The drift acts on phase space alone and the spin coupling dw/dt = S w on
    the component index alone, and the two commute.  So v0's (c, n, n) stack
    is factored once as w = A B (see _factor): B holds the R <= c phase-space
    functions it is built from (1 for a product state, R for a mixture of R
    product states) and is what the shears move, while the spin coupling, an
    exact matrix exponential, mixes the (c, R) matrix A.  A frame is formed as
    (expm(S tau) A) B.  The cost therefore grows with the number of saved
    frames times R, not with n_steps or c.

    The components stay real: each shear runs on rfft bins and keeps the real
    part of what a complex shift would give.  The part it drops lives at the
    Nyquist bin, and a frame's imag_residues carry it: they start from
    v0.imag_residues, add each shear's largest dropped part per component
    (A combines the rows' dropped parts line by line, as the shear is
    linear), and pass through each spin mixing expm(S tau) as
    |expm(S tau)| r.  To first order in the band-edge content this bounds the
    imaginary part that complex shears would carry.  The residues stay at
    round-off for states the grid supports and flag band-edge content
    otherwise.
    """
    if prop.scheme != WIGNER_SCHEME:
        raise SchemeMismatchError(
            f"vector Wigner evolution uses scheme {WIGNER_SCHEME!r}, got {prop.scheme!r}")
    if v0.representation != "wigner":
        raise ValueError("initial distribution must be in the wigner representation")
    _check_spin_dim(fld, v0.frame.dim, "frame")
    from scipy.linalg import expm   # costs every import 0.28 s at module level

    grid = v0.grid
    dt = prop.dt
    q = grid.q
    p = grid.p
    kq = 2.0 * np.pi * np.fft.rfftfreq(grid.n, grid.dx)
    kp = 2.0 * np.pi * np.fft.rfftfreq(grid.n, grid.dp)
    step = _strang_step(fld, dt)
    max_steps = _max_steps(step, min(prop.save_every, prop.n_steps), grid.dx / grid.dp)
    s_mat = spin_coupling_matrix(v0.frame, fld.b_field, fld.kappa, fld.spin, grid.hbar)

    w = np.array(v0.components, dtype=float)
    res = (np.zeros(len(w)) if v0.imag_residues is None
           else np.array(v0.imag_residues, dtype=float))
    mixing, rows = _factor(w)      # w = mixing @ rows; the shears move only rows

    def run_chunk(mixing, rows, res, n_sub):
        k = -(-n_sub // max_steps)
        m, r = divmod(n_sub, k)
        for steps in [m + 1] * r + [m] * (k - r):
            # w(M z) for M = p-shear . q-shear . p-shear, translation in the offsets
            (a1, b, cq), (_, d1, cp) = _power(step, steps)[:2]
            alpha, gamma = d1 / b, a1 / b
            for axis, phase in ((2, np.outer(alpha * q + (cp - alpha * cq), kp)),
                                (1, np.outer(kq, b * p + cq)),
                                (2, np.outer(gamma * q, kp))):
                rows, dropped = _shear(rows, axis, phase)
                res = res + np.max(np.abs(mixing @ dropped), axis=1)
        mix = expm(s_mat * (n_sub * dt))
        return mix @ mixing, rows, np.abs(mix) @ res

    def frame_of(w, res, t):
        return VectorDistribution(
            representation="wigner", components=w, frame=v0.frame,
            grid=grid, time=t, imag_residues=res)

    times = [v0.time]
    frames = [frame_of(w, res, v0.time)]
    t = v0.time
    done = 0
    while done < prop.n_steps:
        chunk = min(prop.save_every, prop.n_steps - done)
        mixing, rows, res = run_chunk(mixing, rows, res, chunk)
        t += chunk * dt
        done += chunk
        frames.append(frame_of(np.tensordot(mixing, rows, 1), res, t))
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
    bounded minimization over omega seeded by the FFT peak.  Avoids FFT
    leakage bias at short durations.
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

    res = minimize_scalar(ssr, bounds=(0.5 * guess, 1.5 * guess), method="bounded",
                          options={"xatol": 1e-14})
    return float(res.x)
