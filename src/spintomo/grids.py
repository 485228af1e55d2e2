"""Phase-space grids, tomogram domains, the per-component field container
with its file I/O, and the package's one CSV writer."""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FIELD_KINDS = ("wigner", "husimi", "optical", "symplectic-section")


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


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
        if self.dx <= 0 or self.hbar <= 0 or self.mass <= 0 or self.omega <= 0:
            raise ValueError("dx, hbar, mass, omega must all be positive")

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

    def describe(self) -> dict:
        return {
            "n": self.n, "dx": self.dx, "x0": self.x0,
            "hbar": self.hbar, "mass": self.mass, "omega": self.omega,
        }

    @staticmethod
    def from_description(d: dict) -> "PhaseSpaceGrid":
        return PhaseSpaceGrid(n=int(d["n"]), dx=float(d["dx"]), x0=float(d["x0"]),
                              hbar=float(d["hbar"]), mass=float(d["mass"]),
                              omega=float(d["omega"]))


@dataclass(frozen=True)
class TomogramDomain:
    """Sampling domain of a tomogram.

    The quadrature grid x is uniform and strictly increasing.  kind
    "optical": x plus angles thetas in [0, pi), strictly increasing.  kind
    "symplectic": x plus 1-D mu and nu arrays whose mesh gives the (mu, nu)
    samples; (0, 0) is excluded.
    """

    kind: str
    x: np.ndarray
    thetas: np.ndarray | None = None
    mu: np.ndarray | None = None
    nu: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("optical", "symplectic"):
            raise ValueError(f"unknown tomogram domain kind {self.kind!r}")
        x = np.asarray(self.x, dtype=float)
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
        return cls(kind="symplectic", x=grid.q.copy(),
                   mu=np.asarray(mu, dtype=float), nu=np.asarray(nu, dtype=float))

    def describe(self) -> dict:
        d = {"kind": self.kind, "x": self.x.tolist()}
        if self.thetas is not None:
            d["thetas"] = self.thetas.tolist()
        if self.mu is not None:
            d["mu"] = self.mu.tolist()
            d["nu"] = self.nu.tolist()
        return d


@dataclass(frozen=True)
class ScalarField:
    """Array of field values tagged with its grid, kind, and optional domain.

    Kept as the container of one vector component for save_field, load_field
    and field_to_csv, and as the argument of the single-field maps.  Shapes by
    kind: wigner/husimi are (n, n); optical is (n_theta, n_x);
    symplectic-section is (n_mu, n_nu, n_x).
    """

    grid: PhaseSpaceGrid
    values: np.ndarray
    kind: str
    domain: TomogramDomain | None = None
    imag_residue: float = 0.0

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")


def save_field(fld: ScalarField, basename: str | Path) -> None:
    """Write values as little-endian float64 (row-major) plus a JSON sidecar."""
    base = Path(basename)
    data = np.ascontiguousarray(fld.values.real, dtype="<f8")
    data.tofile(base.with_suffix(".bin"))
    meta = {
        "kind": fld.kind,
        "shape": list(fld.values.shape),
        "dtype": "<f8",
        "order": "C",
        "grid": fld.grid.describe(),
        "imag_residue": fld.imag_residue,
    }
    if fld.domain is not None:
        meta["domain"] = fld.domain.describe()
    base.with_suffix(".json").write_text(json.dumps(meta, sort_keys=True, indent=1))


def load_field(basename: str | Path) -> ScalarField:
    base = Path(basename)
    meta = json.loads(base.with_suffix(".json").read_text())
    shape = tuple(meta["shape"])
    values = np.fromfile(base.with_suffix(".bin"), dtype="<f8").reshape(shape)
    grid = PhaseSpaceGrid.from_description(meta["grid"])
    domain = None
    if "domain" in meta:
        d = meta["domain"]
        domain = TomogramDomain(
            kind=d["kind"],
            x=np.asarray(d["x"], dtype=float),
            thetas=np.asarray(d["thetas"], dtype=float) if "thetas" in d else None,
            mu=np.asarray(d["mu"], dtype=float) if "mu" in d else None,
            nu=np.asarray(d["nu"], dtype=float) if "nu" in d else None,
        )
    return ScalarField(grid=grid, values=values, kind=meta["kind"], domain=domain,
                       imag_residue=float(meta.get("imag_residue", 0.0)))


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


def _coordinate_columns(kind: str, grid: PhaseSpaceGrid,
                        domain: TomogramDomain | None) -> dict:
    """Coordinate columns of a field kind, raveled in the C order of its values."""
    if kind in ("wigner", "husimi"):
        axes = {"q": grid.q, "p": grid.p}
    elif kind == "optical":
        axes = {"theta": domain.thetas, "X": domain.x}
    else:
        axes = {"mu": domain.mu, "nu": domain.nu, "X": domain.x}
    mesh = np.meshgrid(*axes.values(), indexing="ij")
    return {name: m.ravel() for name, m in zip(axes, mesh)}


def field_to_csv(fld: ScalarField, path: str | Path) -> None:
    """Plot-ready CSV: coordinate columns followed by the value column."""
    write_csv(path, {**_coordinate_columns(fld.kind, fld.grid, fld.domain),
                     "value": fld.values.real.ravel()})
