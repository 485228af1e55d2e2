"""Spin operators, projector frames, and dual-frame construction.

A frame here is a set of (2s+1)^2 rank-one spin projectors onto eigenstates of
the spin component along chosen directions.  The dual frame (the "quantizer")
is obtained by Gram-matrix inversion, so that the trace pairing
Tr{U_j D_k} = delta_jk holds and any (2s+1)x(2s+1) matrix decomposes as
rho = sum_j Tr{rho U_j} D_j.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFrameError, FrameSearchError

_SQ2 = math.sqrt(2.0)

E_XY = np.array([1.0, 1.0, 0.0]) / _SQ2
E_YZ = np.array([0.0, 1.0, 1.0]) / _SQ2
E_XZ = np.array([1.0, 0.0, 1.0]) / _SQ2

# Directions and eigenvalues of the reference spin-1 frame, in fixed order:
# three z-projectors, two x-projectors, two xy-projectors, one yz, one xz.
SPIN1_FRAME_DIRECTIONS = np.array(
    [
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        E_XY,
        E_XY,
        E_YZ,
        E_XZ,
    ]
)
SPIN1_FRAME_EIGENVALUES = np.array([1.0, 0.0, -1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0])


def _check_half_integer_spin(s: float) -> int:
    """Return the dimension 2s+1, rejecting non half-integer spin."""
    two_s = 2.0 * s
    if s < 0 or abs(two_s - round(two_s)) > 1e-12:
        raise ValueError(f"spin must be a non-negative half-integer, got {s}")
    return int(round(two_s)) + 1


def spin_operators(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angular-momentum matrices (s_x, s_y, s_z) for spin s.

    Basis ordered by decreasing magnetic quantum number, so s_z is diagonal
    with entries s, s-1, ..., -s.
    """
    dim = _check_half_integer_spin(s)
    m = s - np.arange(dim)
    sz = np.diag(m).astype(complex)
    # ladder element <m+1| s_+ |m> = sqrt(s(s+1) - m(m+1))
    raise_elems = np.sqrt(s * (s + 1.0) - m[1:] * (m[1:] + 1.0))
    sp = np.zeros((dim, dim), dtype=complex)
    sp[np.arange(dim - 1), np.arange(1, dim)] = raise_elems
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    return sx, sy, sz


def projection_values(s: float) -> np.ndarray:
    """Allowed spin projections s, s-1, ..., -s."""
    dim = _check_half_integer_spin(s)
    return s - np.arange(dim)


def _unit_direction(n) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"direction must be a 3-vector, got shape {n.shape}")
    norm = float(np.linalg.norm(n))
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"direction must be unit length, |n| = {norm!r}")
    return n / norm


def spin_eigenvector(s: float, n, m: float) -> np.ndarray:
    """Eigenvector of n . s_hat with eigenvalue m, phase-fixed.

    The phase convention makes the first component of modulus > 1e-10 real
    and positive; projectors are insensitive to it, but exports and tests are
    stabilised.
    """
    n = _unit_direction(n)
    allowed = projection_values(s)
    if not np.any(np.abs(allowed - m) < 1e-9):
        raise ValueError(f"projection m={m} not in {{-s..s}} for s={s}")
    sx, sy, sz = spin_operators(s)
    ns = n[0] * sx + n[1] * sy + n[2] * sz
    evals, evecs = np.linalg.eigh(ns)
    idx = int(np.argmin(np.abs(evals - m)))
    if abs(evals[idx] - m) > 1e-9:
        raise ValueError(f"no eigenvalue of n.s within 1e-9 of m={m}")
    v = evecs[:, idx]
    for comp in v:
        if abs(comp) > 1e-10:
            v = v * (abs(comp) / comp)
            break
    return v


def eigenprojector(s: float, n, m: float) -> np.ndarray:
    """Rank-one projector onto the n-direction spin eigenstate with projection m."""
    v = spin_eigenvector(s, n, m)
    return np.outer(v, v.conj())


def gram_matrix(dequantizer: np.ndarray) -> np.ndarray:
    """Overlap matrix G_jk = Tr{U_j U_k} of a Hermitian matrix set."""
    g = np.einsum("jab,kba->jk", dequantizer, dequantizer)
    return g.real


def solve_dual_frame(dequantizer) -> np.ndarray:
    """Dual frame by Gram inversion: D_k = sum_j (G^-1)_kj U_j.

    Raises DegenerateFrameError when the Gram matrix is ill-conditioned
    (condition number above 1e12), naming the near-dependent combination.
    """
    u = np.asarray(dequantizer, dtype=complex)
    n_el, dim, _ = u.shape
    g = gram_matrix(u)
    cond = float(np.linalg.cond(g))
    if not np.isfinite(cond) or cond > 1e12:
        evals, evecs = np.linalg.eigh(g)
        null = evecs[:, 0]
        worst = np.argsort(np.abs(null))[::-1][:3]
        combo = ", ".join(f"U[{int(j)}]*{null[j]:+.3f}" for j in worst)
        raise DegenerateFrameError(
            f"projector set is near-dependent (Gram condition {cond:.3e}); "
            f"dominant null combination: {combo}"
        )
    coeff = np.linalg.solve(g, np.eye(n_el))
    dual = np.einsum("kj,jab->kab", coeff, u)
    # Newton refinement against the measured pairing keeps the duality
    # residual near machine precision even for mildly conditioned frames
    eye = np.eye(n_el)
    for _ in range(4):
        pairing = np.einsum("jab,kba->jk", u, dual)
        if np.max(np.abs(pairing - eye)) < 2e-14:
            break
        dual = np.einsum("lk,lab->kab", 2.0 * eye - pairing, dual)
    return dual


@dataclass(frozen=True)
class SpinFrame:
    """Projector frame and its dual for spin s.

    dequantizer[j] are the rank-one projectors U_j = u_j u_j^H (u_j in vectors);
    quantizer[j] are the dual Hermitian matrices D_j with Tr{U_j D_k} = delta_jk.
    The quantizer stores the matrix-of-vectors layout transposed: component l
    of the vector at matrix slot (j, k) is quantizer[l][j, k].
    """

    s: float
    directions: np.ndarray
    eigenvalues: np.ndarray
    dequantizer: np.ndarray
    quantizer: np.ndarray
    gram: np.ndarray
    # Tr D_j: weights that turn component integrals into the total trace
    quantizer_traces: np.ndarray = field(init=False, repr=False)
    # u_j: column a of U_j over sqrt(U_j[a, a]), a its largest diagonal entry
    vectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = self.dequantizer
        rows = np.arange(len(u))
        a = np.argmax(np.einsum("jaa->ja", u).real, axis=1)
        vectors = u[rows, :, a] / np.sqrt(u[rows, a, a].real)[:, None]
        if not np.max(np.abs(np.einsum("ja,jb->jab", vectors, vectors.conj()) - u)) <= 1e-12:
            raise ValueError("dequantizer elements must be rank-one projectors")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "quantizer_traces",
                           np.einsum("jaa->j", self.quantizer).real.copy())
        for arr in (self.directions, self.eigenvalues, self.dequantizer, self.quantizer,
                    self.gram, self.quantizer_traces, self.vectors):
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.dequantizer.shape[1]

    @property
    def size(self) -> int:
        return self.dequantizer.shape[0]

    def duality_residual(self) -> float:
        pairing = np.einsum("jab,kba->jk", self.dequantizer, self.quantizer)
        return float(np.max(np.abs(pairing - np.eye(self.size))))

    def completeness_residual(self) -> float:
        # sum_j U_j (x) D_j must be the swap tensor: sum_j U_j[kl] D_j[ab] = d_la d_kb
        tensor = np.einsum("jkl,jab->klab", self.dequantizer, self.quantizer)
        dim = self.dim
        eye = np.eye(dim)
        swap = np.einsum("la,kb->klab", eye, eye)
        return float(np.max(np.abs(tensor - swap)))

    def projector_residuals(self) -> dict[str, float]:
        u = self.dequantizer
        herm = float(np.max(np.abs(u - np.conj(np.transpose(u, (0, 2, 1))))))
        idem = float(np.max(np.abs(np.einsum("jab,jbc->jac", u, u) - u)))
        traces = np.einsum("jaa->j", u)
        tr = float(np.max(np.abs(traces - 1.0)))
        return {"hermiticity": herm, "idempotency": idem, "unit_trace": tr}

    def weights(self, rho: np.ndarray) -> np.ndarray:
        """Frame weights w_j = Tr{rho U_j} of a spin density matrix."""
        w = np.einsum("ab,jba->j", np.asarray(rho, dtype=complex), self.dequantizer)
        return w.real if np.max(np.abs(w.imag)) < 1e-10 else w

    def reconstruct(self, weights: np.ndarray) -> np.ndarray:
        """Density matrix from frame weights: rho = sum_j w_j D_j."""
        return np.einsum("j,jab->ab", np.asarray(weights), self.quantizer)

    def quantizer_vector(self, j: int, k: int) -> np.ndarray:
        """Vector of quantizer components at matrix slot (j, k)."""
        return np.ascontiguousarray(self.quantizer[:, j, k])

    def to_json(self) -> str:
        def c2pair(arr):
            a = np.asarray(arr, dtype=complex)
            return np.stack([a.real, a.imag], axis=-1).tolist()

        payload = {
            "spin": self.s,
            "directions": self.directions.tolist(),
            "eigenvalues": self.eigenvalues.tolist(),
            "dequantizer": c2pair(self.dequantizer),
            "quantizer": c2pair(self.quantizer),
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "SpinFrame":
        payload = json.loads(text)

        def pair2c(obj):
            a = np.asarray(obj, dtype=float)
            return a[..., 0] + 1j * a[..., 1]

        dequantizer = pair2c(payload["dequantizer"])
        quantizer = pair2c(payload["quantizer"])
        return SpinFrame(
            s=float(payload["spin"]),
            directions=np.asarray(payload["directions"], dtype=float),
            eigenvalues=np.asarray(payload["eigenvalues"], dtype=float),
            dequantizer=dequantizer,
            quantizer=quantizer,
            gram=gram_matrix(dequantizer),
        )


def build_frame(s: float, directions, eigenvalues) -> SpinFrame:
    """Frame from explicit direction/projection pairs; dual solved by Gram inversion."""
    dim = _check_half_integer_spin(s)
    directions = np.asarray(directions, dtype=float)
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if directions.shape != (dim * dim, 3) or eigenvalues.shape != (dim * dim,):
        raise ValueError(
            f"need {dim * dim} direction/eigenvalue pairs for spin {s}, "
            f"got {directions.shape} / {eigenvalues.shape}"
        )
    dequantizer = np.stack(
        [eigenprojector(s, n, m) for n, m in zip(directions, eigenvalues)]
    )
    quantizer = solve_dual_frame(dequantizer)
    return SpinFrame(
        s=s,
        directions=directions,
        eigenvalues=eigenvalues,
        dequantizer=dequantizer,
        quantizer=quantizer,
        gram=gram_matrix(dequantizer),
    )


def build_spin1_frame() -> SpinFrame:
    """The reference nine-projector spin-1 frame (z, x, xy, yz, xz directions)."""
    return build_frame(1.0, SPIN1_FRAME_DIRECTIONS, SPIN1_FRAME_EIGENVALUES)


def random_frame(s: float, seed: int, max_attempts: int = 1000,
                 max_condition: float = 2e3) -> SpinFrame:
    """Random well-conditioned frame: seeded directions, resampled until the
    Gram condition number drops below max_condition.

    The default 2e3 keeps the duality residual of the double-precision dual
    solve below 1e-12.
    """
    dim = _check_half_integer_spin(s)
    rng = np.random.default_rng(seed)
    allowed = projection_values(s)
    for _ in range(max_attempts):
        vecs = rng.normal(size=(dim * dim, 3))
        norms = np.linalg.norm(vecs, axis=1)
        if np.any(norms < 1e-12):
            continue
        directions = vecs / norms[:, None]
        eigenvalues = rng.choice(allowed, size=dim * dim)
        dequantizer = np.stack(
            [eigenprojector(s, n, m) for n, m in zip(directions, eigenvalues)]
        )
        if np.linalg.cond(gram_matrix(dequantizer)) < max_condition:
            return build_frame(s, directions, eigenvalues)
    raise FrameSearchError(
        f"no frame with Gram condition < {max_condition:g} found in "
        f"{max_attempts} attempts (s={s}, seed={seed})"
    )


# Published quantizer vectors for the reference spin-1 frame, kept as check
# data only: the Gram-inversion dual is the source of truth and the audit
# reports elementwise differences without asserting these entries.
_I = 1j
PAPER_SPIN1_QUANTIZER_VECTORS: dict[tuple[int, int], np.ndarray] = {
    (0, 0): np.array([1, 0, 0, 0, 0, 0, 0, 0, 0], dtype=complex),
    (0, 1): np.array(
        [
            -1 / (2 * _SQ2) + _I * (1 - _SQ2) / 2,
            _I * (1 - _SQ2) / 2,
            -1 / (2 * _SQ2) + _I * (1 - _SQ2) / 2,
            (1 + _I) / _SQ2,
            (1 + _I) / _SQ2,
            -_I,
            -_I / 2,
            _I / _SQ2,
            -1 / _SQ2,
        ]
    ),
    (0, 2): np.array([(1 - _I) / 2, 0, (1 - _I) / 2, 0, -1, 0, _I, 0, 0]),
    (1, 1): np.array([0, 1, 0, 0, 0, 0, 0, 0, 0], dtype=complex),
    (1, 2): np.array(
        [
            -1 / (2 * _SQ2) + _I / 2,
            -1 / _SQ2 + _I / 2,
            -1 / (2 * _SQ2) + _I / 2,
            (1 + _I) / _SQ2,
            0,
            -_I,
            -_I / 2,
            -_I / _SQ2,
            1 / _SQ2,
        ]
    ),
    (2, 2): np.array([0, 0, 1, 0, 0, 0, 0, 0, 0], dtype=complex),
}


def paper_quantizer_comparison(frame: SpinFrame) -> list[dict]:
    """Elementwise diff of the recomputed quantizer vectors against the
    published ones (upper triangle; lower follows by conjugation)."""
    if frame.size != 9:
        raise ValueError("comparison data exists only for the spin-1 frame")
    rows = []
    for (j, k), printed in sorted(PAPER_SPIN1_QUANTIZER_VECTORS.items()):
        recomputed = frame.quantizer_vector(j, k)
        rows.append(
            {
                "slot": f"({j + 1}{k + 1})",
                "recomputed": recomputed,
                "printed": printed,
                "max_abs_diff": float(np.max(np.abs(recomputed - printed))),
            }
        )
    return rows
