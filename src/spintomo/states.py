"""Reference states: wavepackets, oscillator eigenstates, spinor densities."""
from __future__ import annotations

import math

import numpy as np

from .grids import PhaseSpaceGrid
from .spin_frames import spin_eigenvector


def normalize_field(psi: np.ndarray, dx: float) -> np.ndarray:
    """Unit discrete L2 norm: dx * sum |psi|^2 = 1 over all components."""
    norm = math.sqrt(float(np.sum(np.abs(psi) ** 2) * dx))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero field")
    return psi / norm


def _unit(vec, dtype, what: str) -> np.ndarray:
    """vec / |vec|; a zero or non-finite vec raises ValueError before the division."""
    vec = np.asarray(vec, dtype=dtype)
    norm = np.linalg.norm(vec)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"{what} must be nonzero and finite, got {vec!r}")
    return vec / norm


def gaussian_packet(grid: PhaseSpaceGrid, q0: float = 0.0, p0: float = 0.0,
                    sigma: float = 1.0) -> np.ndarray:
    """Normalized Gaussian wavepacket exp(-(q-q0)^2/(4 sigma^2) + i p0 q / hbar).

    q0 and p0 must be finite and sigma finite and positive; anything else
    raises ValueError."""
    if not (math.isfinite(q0) and math.isfinite(p0) and 0.0 < sigma < math.inf):
        raise ValueError("a packet needs finite q0 and p0 and a finite positive sigma, "
                         f"got q0={q0!r}, p0={p0!r}, sigma={sigma!r}")
    q = grid.q
    psi = np.exp(-((q - q0) ** 2) / (4.0 * sigma**2) + 1j * p0 * q / grid.hbar)
    return normalize_field(psi, grid.dx)


def oscillator_basis(grid: PhaseSpaceGrid, n_levels: int, x=None) -> np.ndarray:
    """The first n_levels eigenstates psi_k of the harmonic oscillator with the
    grid's m, omega, hbar at the points x (default grid.q), shape (n_levels, n_x).

    Real and normalised over the line, from the three-term recurrence of the
    Hermite functions, psi_{k+1} = sqrt(2/(k+1)) xi psi_k - sqrt(k/(k+1)) psi_{k-1}
    with xi = sqrt(m omega / hbar) x, which stays finite at any order where
    H_k(xi) alone overflows.
    """
    x = grid.q if x is None else np.asarray(x, dtype=float)
    scale = math.sqrt(grid.mass * grid.omega / grid.hbar)
    xi = scale * x
    psi = np.empty((n_levels, len(x)))
    psi[0] = math.sqrt(scale / math.sqrt(math.pi)) * np.exp(-0.5 * xi**2)
    if n_levels > 1:
        psi[1] = math.sqrt(2.0) * xi * psi[0]
    for k in range(1, n_levels - 1):
        psi[k + 1] = math.sqrt(2.0 / (k + 1)) * xi * psi[k] - math.sqrt(k / (k + 1)) * psi[k - 1]
    return psi


def oscillator_eigenstate(grid: PhaseSpaceGrid, k: int) -> np.ndarray:
    """k-th eigenstate of the harmonic oscillator with the grid's m, omega, hbar."""
    if k < 0:
        raise ValueError("eigenstate index must be non-negative")
    return normalize_field(oscillator_basis(grid, k + 1)[k].astype(complex), grid.dx)


def random_band_limited_state(grid: PhaseSpaceGrid, rng: np.random.Generator,
                              n_modes: int = 6) -> np.ndarray:
    """Random smooth wavepacket: low-order oscillator modes with random weights."""
    coeffs = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    psi = sum(c * oscillator_eigenstate(grid, k) for k, c in enumerate(coeffs))
    return normalize_field(psi, grid.dx)


def spinor_product_state(grid: PhaseSpaceGrid, spin_vector: np.ndarray,
                         spatial: np.ndarray) -> np.ndarray:
    """Pure spinor field chi (x) psi, shape (2s+1, n), chi the normalized
    spin_vector (nonzero and finite, else ValueError)."""
    chi = _unit(spin_vector, complex, "spin vector")
    return np.outer(chi, spatial).astype(complex)


def spin_coherent_state(grid: PhaseSpaceGrid, direction, s: float = 1.0,
                        m: float | None = None, q0: float = 0.0, p0: float = 0.0,
                        sigma: float = 1.0) -> np.ndarray:
    """Spin eigenstate along a direction (nonzero and finite, else
    ValueError), tensored with a Gaussian packet."""
    if m is None:
        m = s
    chi = spin_eigenvector(s, _unit(direction, float, "spin direction"), m)
    return spinor_product_state(grid, chi, gaussian_packet(grid, q0, p0, sigma))
