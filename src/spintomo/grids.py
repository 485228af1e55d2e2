"""Phase-space grids, tomogram domains, the per-component field container
of the single-field maps, and the package's one CSV writer with its one
tidy-table builder."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

FIELD_KINDS = ("wigner", "husimi", "optical", "symplectic-section")


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _check_positive(**scales) -> None:
    for name, val in scales.items():
        if not (np.isfinite(val) and val > 0):
            raise ValueError(f"{name} must be finite and positive, got {val!r}")


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform 1-D position grid with its FFT-conjugate momentum grid.

    The momentum grid is tied to the position grid so that dq * dp * n = 2*pi*hbar
    exactly.  mass and omega are the scale constants entering the quadrature
    X = q cos(theta) + p sin(theta)/(m*omega) and the Husimi widths; they need
    not equal the dynamical mass of a Hamiltonian.

    Exact round trips between density kernels and Wigner fields assume the
    state is grid-supported: mass inside the box in q, and momentum content
    within half the p-range (the transforms Fourier-interpolate at half-grid
    points).

    x0 must be finite, and dx, hbar, mass and omega finite and positive;
    anything else raises ValueError.
    """

    n: int
    dx: float
    x0: float
    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        if not _is_power_of_two(self.n) or self.n < 32:
            raise ValueError(f"grid size must be a power of two >= 32, got {self.n}")
        _check_positive(dx=self.dx, hbar=self.hbar, mass=self.mass, omega=self.omega)
        if not np.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0!r}")

    @classmethod
    def centered(cls, n: int, length: float, hbar: float = 1.0,
                 mass: float = 1.0, omega: float = 1.0) -> "PhaseSpaceGrid":
        dx = length / n
        return cls(n=n, dx=dx, x0=-length / 2.0, hbar=hbar, mass=mass, omega=omega)

    @classmethod
    def balanced(cls, n: int, hbar: float = 1.0, mass: float = 1.0,
                 omega: float = 1.0) -> "PhaseSpaceGrid":
        """Centered grid with dp = m*omega*dq, so quadrature rays at any angle
        stay inside the supported frequency band."""
        _check_positive(hbar=hbar, mass=mass, omega=omega)
        length = float(np.sqrt(2.0 * np.pi * hbar * n / (mass * omega)))
        return cls.centered(n, length, hbar, mass, omega)

    @property
    def length(self) -> float:
        return self.n * self.dx

    @property
    def q(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    @property
    def dp(self) -> float:
        return 2.0 * np.pi * self.hbar / (self.n * self.dx)

    @property
    def p(self) -> np.ndarray:
        """Momentum samples, ascending."""
        return 2.0 * np.pi * self.hbar * np.fft.fftshift(np.fft.fftfreq(self.n, self.dx))

    @property
    def k_fft(self) -> np.ndarray:
        """Angular wave numbers conjugate to q, FFT layout."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, self.dx)

    @property
    def cell(self) -> float:
        return self.dx * self.dp


@dataclass(frozen=True)
class TomogramDomain:
    """Sampling domain of a tomogram.

    The quadrature grid x is uniform and strictly increasing.  kind
    "optical": x plus angles thetas in [0, pi), strictly increasing.  kind
    "symplectic": x plus 1-D mu and nu arrays whose mesh gives the (mu, nu)
    samples; (0, 0) is excluded.  Every sample array is stored as a float
    ndarray (a float ndarray argument itself, not a copy), 1-D and finite;
    anything else raises ValueError.
    """

    kind: str
    x: np.ndarray
    thetas: np.ndarray | None = None
    mu: np.ndarray | None = None
    nu: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("optical", "symplectic"):
            raise ValueError(f"unknown tomogram domain kind {self.kind!r}")
        for name in ("x", "thetas", "mu", "nu"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        x = self.x
        if x.ndim != 1 or len(x) < 2 or not x[1] > x[0]:
            raise ValueError("quadrature grid x must be 1-D and increasing, with 2 points or more")
        if not np.max(np.abs(np.diff(x) - self.dx)) <= 1e-9 * self.dx:
            raise ValueError("quadrature grid x must be uniform")
        if self.kind == "optical":
            th = self.thetas
            if th is None or th.ndim != 1 or len(th) < 1:
                raise ValueError("optical domain needs a 1-D theta grid")
            if not np.all(np.diff(th) > 0):
                raise ValueError("theta grid must be strictly increasing")
            if not (th[0] >= 0 and th[-1] < np.pi):
                raise ValueError("theta grid must lie in [0, pi)")
        else:
            if self.mu is None or self.nu is None:
                raise ValueError("symplectic domain needs mu and nu arrays")
            for name, vals in (("mu", self.mu), ("nu", self.nu)):
                if vals.ndim != 1 or not np.all(np.isfinite(vals)):
                    raise ValueError(f"symplectic {name} samples must be 1-D and finite")
            mm, nn = np.meshgrid(self.mu, self.nu, indexing="ij")
            if np.any((mm == 0) & (nn == 0)):
                raise ValueError("symplectic samples must avoid (mu, nu) = (0, 0)")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @classmethod
    def optical_default(cls, grid: PhaseSpaceGrid, n_theta: int | None = None) -> "TomogramDomain":
        if n_theta is None:
            n_theta = max(64, grid.n // 2)
        thetas = np.pi * np.arange(n_theta) / n_theta
        return cls(kind="optical", x=grid.q.copy(), thetas=thetas)

    @classmethod
    def symplectic_grid(cls, grid: PhaseSpaceGrid, mu, nu) -> "TomogramDomain":
        return cls(kind="symplectic", x=grid.q.copy(), mu=mu, nu=nu)


@dataclass(frozen=True)
class ScalarField:
    """Array of field values tagged with its grid, kind, and optional domain:
    the argument and result of the single-field maps wigner_from_optical and
    husimi_from_wigner.  Shapes by kind: wigner/husimi are (n, n); optical is
    (n_theta, n_x); symplectic-section is (n_mu, n_nu, n_x).
    """

    grid: PhaseSpaceGrid
    values: np.ndarray
    kind: str
    domain: TomogramDomain | None = None

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")


def write_csv(path: str | Path, columns: dict) -> None:
    """Write a CSV table: the header, then one row per index of the columns.

    columns maps each header name, in order, to a 1-D column; all columns have
    the same length.  Float columns are written as repr(float(x)), the
    shortest text that reads back to the same float64; integer and string
    columns as str(x).
    """
    cells = []
    for col in columns.values():
        col = np.asarray(col)
        cells.append(map(repr if col.dtype.kind == "f" else str, col.tolist()))
    lines = [",".join(columns)] + [",".join(row) for row in zip(*cells, strict=True)]
    Path(path).write_text("\n".join(lines) + "\n")


def tidy_columns(times, series: dict) -> dict:
    """Long-format t, series, value columns for write_csv, one row per time
    and series: time-major, the series in the order of series, which maps
    each name to its 1-D column over times."""
    return {"t": np.repeat(times, len(series)),
            "series": np.tile(list(series), len(times)),
            "value": np.column_stack(list(series.values())).ravel()}
