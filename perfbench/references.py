"""Closed-form references the benchmark checks the program against.

Nothing here calls into spintomo: the Gaussian-mixture distributions and the
exact coherent orbit are written from their textbook formulas, so agreement
with the program is evidence, not a tautology.

Conventions match spintomo's grids: a packet exp(-(q-q0)^2/(4 sigma^2) +
i p0 q / hbar) has position variance sigma^2 and momentum variance
hbar^2 / (4 sigma^2); the optical quadrature is X = q cos(theta) +
p sin(theta) / (m omega); the symplectic one is X = mu q + nu p; the Husimi
function is the Wigner function smoothed by variances hbar / (2 m omega) in q
and hbar m omega / 2 in p.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm


@dataclass(frozen=True)
class Packet:
    """One product state chi (x) Gaussian packet, with its mixture weight."""

    prob: float
    chi: np.ndarray  # spin vector, any norm
    q0: float
    p0: float
    sigma: float


def _normal(x: np.ndarray, mean: float, var: float) -> np.ndarray:
    return np.exp(-((x - mean) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def spin_weights(packet: Packet, dequantizer: np.ndarray) -> np.ndarray:
    """|u_j^dagger chi|^2 = chi^dagger U_j chi for normalised chi, one per frame element."""
    chi = np.asarray(packet.chi, dtype=complex)
    chi = chi / np.linalg.norm(chi)
    return np.einsum("a,jab,b->j", chi.conj(), dequantizer, chi).real


def _mixture(packets, dequantizer, scalar) -> np.ndarray:
    """sum_r p_r |u_j^dagger chi_r|^2 * scalar(packet_r), stacked over j."""
    return sum(pk.prob * np.multiply.outer(spin_weights(pk, dequantizer), scalar(pk))
               for pk in packets)


def wigner(packets, dequantizer, q, p, hbar=1.0) -> np.ndarray:
    """Vector Wigner components on the (q, p) mesh, shape (d^2, n_q, n_p)."""
    qq, pp = np.meshgrid(q, p, indexing="ij")

    def scalar(pk):
        return np.exp(-((qq - pk.q0) ** 2) / (2.0 * pk.sigma**2)
                      - 2.0 * pk.sigma**2 * (pp - pk.p0) ** 2 / hbar**2) / (np.pi * hbar)

    return _mixture(packets, dequantizer, scalar)


def optical(packets, dequantizer, thetas, x, hbar=1.0, m_omega=1.0) -> np.ndarray:
    """Vector optical tomogram, shape (d^2, n_theta, n_x)."""
    c = np.cos(thetas)[:, None]
    s = np.sin(thetas)[:, None] / m_omega

    def scalar(pk):
        var = pk.sigma**2 * c**2 + (hbar / (2.0 * pk.sigma)) ** 2 * s**2
        return _normal(x[None, :], pk.q0 * c + pk.p0 * s, var)

    return _mixture(packets, dequantizer, scalar)


def symplectic(packets, dequantizer, mu, nu, x, hbar=1.0) -> np.ndarray:
    """Vector symplectic tomogram on the meshed (mu, nu) samples, shape (d^2, n_mu, n_nu, n_x)."""
    mm = np.asarray(mu)[:, None, None]
    nn = np.asarray(nu)[None, :, None]

    def scalar(pk):
        var = mm**2 * pk.sigma**2 + nn**2 * (hbar / (2.0 * pk.sigma)) ** 2
        return _normal(x[None, None, :], mm * pk.q0 + nn * pk.p0, var)

    return _mixture(packets, dequantizer, scalar)


def husimi(packets, dequantizer, q, p, hbar=1.0, m_omega=1.0) -> np.ndarray:
    """Vector Husimi components on the (q, p) mesh, shape (d^2, n_q, n_p)."""
    qq, pp = np.meshgrid(q, p, indexing="ij")

    def scalar(pk):
        var_q = pk.sigma**2 + hbar / (2.0 * m_omega)
        var_p = (hbar / (2.0 * pk.sigma)) ** 2 + hbar * m_omega / 2.0
        return _normal(qq, pk.q0, var_q) * _normal(pp, pk.p0, var_p)

    return _mixture(packets, dequantizer, scalar)


def spin_matrices(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S_x, S_y, S_z) in the basis m = s, s-1, ..., -s (hbar = 1)."""
    m = s - np.arange(int(round(2 * s)) + 1)
    s_plus = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    return ((s_plus + s_plus.T) / 2, (s_plus - s_plus.T) / 2j, np.diag(m).astype(complex))


def coherent_spin_vector(s: float, direction) -> np.ndarray:
    """Eigenvector of n . S with eigenvalue +s (global phase arbitrary)."""
    n = np.asarray(direction, dtype=float) / np.linalg.norm(direction)
    evals, evecs = np.linalg.eigh(sum(c * op for c, op in zip(n, spin_matrices(s))))
    return evecs[:, -1]


def zeeman_hamiltonian(s: float, b_field, kappa: float) -> np.ndarray:
    """H_s = -(kappa / s) S . B."""
    return -(kappa / s) * sum(b * op for b, op in zip(b_field, spin_matrices(s)))


@dataclass(frozen=True)
class Orbit:
    """Coherent spinor packet under H = p^2/2m + e(c0 + c1 q + c2 q^2) + H_s.

    H_s is the constant spin Hamiltonian.  With c2 > 0 and the packet width
    sigma0^2 = hbar / (2 m w), w = sqrt(2 e c2 / m), the packet stays Gaussian
    with fixed width while its centre follows the classical orbit, and the
    spin part rotates by expm(-i H_s t / hbar).  Both hold exactly, so the
    reference carries no time-stepping error.
    """

    chi: np.ndarray
    q0: float
    p0: float
    c1: float
    c2: float
    h_spin: np.ndarray
    e: float = 1.0
    mass: float = 1.0
    hbar: float = 1.0

    @property
    def frequency(self) -> float:
        return float(np.sqrt(2.0 * self.e * self.c2 / self.mass))

    @property
    def sigma(self) -> float:
        return float(np.sqrt(self.hbar / (2.0 * self.mass * self.frequency)))

    def centre(self, t: float) -> tuple[float, float]:
        w = self.frequency
        q_eq = -self.c1 / (2.0 * self.c2)
        dq = self.q0 - q_eq
        q = q_eq + dq * np.cos(w * t) + self.p0 / (self.mass * w) * np.sin(w * t)
        p = self.p0 * np.cos(w * t) - self.mass * w * dq * np.sin(w * t)
        return float(q), float(p)

    def spin_vector(self, t: float) -> np.ndarray:
        chi = np.asarray(self.chi, dtype=complex)
        return expm(-1j * self.h_spin * t / self.hbar) @ (chi / np.linalg.norm(chi))

    def packets(self, t: float) -> list[Packet]:
        """The state at time t as a one-element mixture, for the Wigner reference."""
        q, p = self.centre(t)
        return [Packet(1.0, self.spin_vector(t), q, p, self.sigma)]

    def blocks(self, t: float, q: np.ndarray) -> np.ndarray:
        """Spinor density kernel rho_ab(x, x') at time t, shape (d, d, n, n)."""
        qc, pc = self.centre(t)
        s2 = self.sigma**2
        phi = ((2.0 * np.pi * s2) ** -0.25
               * np.exp(-((q - qc) ** 2) / (4.0 * s2) + 1j * pc * q / self.hbar))
        kernel = np.outer(phi, phi.conj())
        chi = self.spin_vector(t)
        return np.multiply.outer(np.outer(chi, chi.conj()), kernel)
