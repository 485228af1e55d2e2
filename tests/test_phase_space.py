import numpy as np
import pytest

from spintomo import (
    InvalidStateError,
    PhaseSpaceGrid,
    ScalarField,
    TomogramDomain,
    UndersampledDomainError,
    density_from_wigner,
    field_to_csv,
    gaussian_packet,
    husimi_from_wigner,
    load_field,
    optical_tomogram,
    oscillator_eigenstate,
    random_band_limited_state,
    save_field,
    symplectic_section,
    wigner_from_density,
    wigner_from_optical,
)
from spintomo.phase_space import ddx, fourier_upsample2, radon_slices


def ground_state_field(grid):
    psi = oscillator_eigenstate(grid, 0)
    return ScalarField(grid, np.outer(psi, psi.conj()), "density-matrix")


class TestGrid:
    def test_fft_consistency(self, grid128):
        assert abs(grid128.dx * grid128.dp * grid128.n - 2 * np.pi * grid128.hbar) < 1e-10

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            PhaseSpaceGrid.centered(100, 16.0)
        with pytest.raises(ValueError):
            PhaseSpaceGrid.centered(16, 16.0)

    def test_balanced_spacing(self):
        g = PhaseSpaceGrid.balanced(64, mass=2.0, omega=1.5)
        assert g.dp == pytest.approx(2.0 * 1.5 * g.dx, rel=1e-12)

    def test_momentum_grid_ascending_and_centered(self, grid64):
        p = grid64.p
        assert np.all(np.diff(p) > 0)
        assert p[grid64.n // 2] == 0.0


class TestTomogramDomain:
    def test_theta_must_increase(self, grid64):
        with pytest.raises(ValueError):
            TomogramDomain(kind="optical", x=grid64.q, thetas=np.array([0.5, 0.2]))

    def test_theta_range(self, grid64):
        with pytest.raises(ValueError):
            TomogramDomain(kind="optical", x=grid64.q, thetas=np.array([0.0, np.pi]))

    def test_symplectic_origin_rejected(self, grid64):
        with pytest.raises(ValueError):
            TomogramDomain.symplectic_grid(grid64, [0.0, 1.0], [0.0, 1.0])


class TestFourierHelpers:
    def test_upsample_exact_for_band_limited(self, rng):
        n = 64
        x = np.arange(n) / n
        modes = rng.normal(size=11) + 1j * rng.normal(size=11)
        f = sum(c * np.exp(2j * np.pi * k * x) for k, c in enumerate(modes, -5))
        fine = fourier_upsample2(f)
        x2 = np.arange(2 * n) / (2 * n)
        exact = sum(c * np.exp(2j * np.pi * k * x2) for k, c in enumerate(modes, -5))
        assert np.max(np.abs(fine - exact)) < 1e-13

    def test_ddx_spectral(self, grid64):
        f = np.exp(-grid64.q**2)
        df = ddx(f, grid64.dx)
        assert np.max(np.abs(df + 2 * grid64.q * f)) < 1e-10


class TestWigner:
    def test_ground_state_gaussian(self, grid128):
        w = wigner_from_density(ground_state_field(grid128))
        q, p = np.meshgrid(grid128.q, grid128.p, indexing="ij")
        exact = np.exp(-q**2 - p**2) / np.pi
        assert np.max(np.abs(w.values - exact)) < 1e-8
        assert w.imag_residue < 1e-12
        assert abs(w.values.sum() * grid128.cell - 1.0) < 1e-8

    def test_purity_identity(self, grid128, rng):
        psi = random_band_limited_state(grid128, rng)
        w = wigner_from_density(ScalarField(grid128, np.outer(psi, psi.conj()),
                                            "density-matrix"))
        purity = 2 * np.pi * grid128.hbar * np.sum(w.values**2) * grid128.cell
        assert abs(purity - 1.0) < 1e-6

    def test_first_excited_origin_value(self, grid128):
        psi = oscillator_eigenstate(grid128, 1)
        w = wigner_from_density(ScalarField(grid128, np.outer(psi, psi.conj()),
                                            "density-matrix"))
        i0 = grid128.n // 2
        assert abs(w.values[i0, i0] + 1.0 / np.pi) < 1e-6

    def test_round_trip_ground(self, grid128):
        fld = ground_state_field(grid128)
        back = density_from_wigner(wigner_from_density(fld))
        x, xp = np.meshgrid(grid128.q, grid128.q, indexing="ij")
        exact = np.exp(-(x**2 + xp**2) / 2) / np.sqrt(np.pi)
        assert np.max(np.abs(back.values - exact)) < 1e-8

    def test_round_trip_random_mixture(self, grid128, rng):
        rho = sum(p * np.outer(v, v.conj()) for p, v in
                  [(0.5, random_band_limited_state(grid128, rng)),
                   (0.3, random_band_limited_state(grid128, rng)),
                   (0.2, random_band_limited_state(grid128, rng))])
        fld = ScalarField(grid128, rho, "density-matrix")
        back = density_from_wigner(wigner_from_density(fld))
        assert np.max(np.abs(back.values - rho)) < 1e-10

    def test_zero_field_maps_to_zero(self, grid64):
        w = ScalarField(grid64, np.zeros((64, 64)), "wigner")
        assert np.max(np.abs(density_from_wigner(w).values)) == 0.0

    def test_linearity(self, grid64, rng):
        psi1 = random_band_limited_state(grid64, rng)
        psi2 = random_band_limited_state(grid64, rng)
        k1, k2 = np.outer(psi1, psi1.conj()), np.outer(psi2, psi2.conj())
        a, b = rng.normal(), rng.normal()
        from spintomo.phase_space import _wigner_of_kernel
        combo = _wigner_of_kernel(a * k1 + b * k2, grid64)
        parts = a * _wigner_of_kernel(k1, grid64) + b * _wigner_of_kernel(k2, grid64)
        assert np.max(np.abs(combo - parts)) < 1e-10

    def test_non_hermitian_rejected(self, grid64, rng):
        bad = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        with pytest.raises(InvalidStateError):
            wigner_from_density(ScalarField(grid64, bad, "density-matrix"))

    def test_unnormalized_rejected(self, grid64):
        psi = oscillator_eigenstate(grid64, 0)
        with pytest.raises(InvalidStateError):
            wigner_from_density(ScalarField(grid64, 2.0 * np.outer(psi, psi.conj()),
                                            "density-matrix"))


class TestOpticalTomogram:
    def test_theta_zero_is_position_density(self, grid128):
        psi = gaussian_packet(grid128, 0.8, 0.5, 0.9)
        w = wigner_from_density(ScalarField(grid128, np.outer(psi, psi.conj()),
                                            "density-matrix"))
        dom = TomogramDomain.optical_default(grid128, 64)
        tom = optical_tomogram(w, dom)
        assert np.max(np.abs(tom.values[0] - np.abs(psi)**2)) < 1e-10

    def test_ground_state_theta_independent(self, grid128):
        w = wigner_from_density(ground_state_field(grid128))
        dom = TomogramDomain.optical_default(grid128, 64)
        tom = optical_tomogram(w, dom)
        exact = np.exp(-dom.x**2) / np.sqrt(np.pi)
        assert np.max(np.abs(tom.values - exact[None, :])) < 1e-8

    def test_theta_half_pi_is_momentum_density(self, grid128):
        psi = gaussian_packet(grid128, 0.8, 0.5, 0.9)
        w = wigner_from_density(ScalarField(grid128, np.outer(psi, psi.conj()),
                                            "density-matrix"))
        dom = TomogramDomain.optical_default(grid128, 64)
        tom = optical_tomogram(w, dom)
        phi = np.fft.fftshift(np.fft.fft(psi)) * grid128.dx / np.sqrt(2 * np.pi)
        assert np.max(np.abs(tom.values[32] - np.abs(phi)**2)) < 1e-10

    def test_slices_normalized_and_nonnegative(self, grid128, rng):
        psi = random_band_limited_state(grid128, rng)
        w = wigner_from_density(ScalarField(grid128, np.outer(psi, psi.conj()),
                                            "density-matrix"))
        tom = optical_tomogram(w, TomogramDomain.optical_default(grid128, 64))
        assert np.max(np.abs(tom.slice_integrals() - 1.0)) < 1e-8
        assert tom.values.min() > -1e-9

    def test_mirror_relation_at_pi(self, grid128, rng):
        psi = random_band_limited_state(grid128, rng)
        w = wigner_from_density(ScalarField(grid128, np.outer(psi, psi.conj()),
                                            "density-matrix")).values[None]
        x = grid128.q
        s0 = radon_slices(w, grid128, np.array([0.0]), x)[0, 0]
        near_pi = radon_slices(w, grid128, np.array([np.pi * (1 - 1e-12)]), x)[0, 0]
        mirrored = np.roll(s0[::-1], 1)
        assert np.max(np.abs(near_pi - mirrored)) < 1e-6

    def test_brute_force_quadrature_cross_check(self, grid128):
        # independent oracle: rotate-and-sum quadrature of the Wigner function
        from scipy.interpolate import RegularGridInterpolator
        psi = gaussian_packet(grid128, 0.6, -0.4, 1.1)
        w = wigner_from_density(ScalarField(grid128, np.outer(psi, psi.conj()),
                                            "density-matrix"))
        theta = 0.7
        tom = optical_tomogram(w, TomogramDomain(
            kind="optical", x=grid128.q, thetas=np.array([theta])))
        interp = RegularGridInterpolator((grid128.q, grid128.p), w.values,
                                         bounds_error=False, fill_value=0.0,
                                         method="cubic")
        svals = np.linspace(-10, 10, 4001)
        for idx in (grid128.n // 2, grid128.n // 2 + 5):
            big_x = grid128.q[idx]
            pts = np.stack([big_x * np.cos(theta) - svals * np.sin(theta),
                            big_x * np.sin(theta) + svals * np.cos(theta)], axis=1)
            oracle = np.trapezoid(interp(pts), svals)
            assert tom.values[0, idx] == pytest.approx(oracle, abs=2e-4)


class TestFilteredBackProjection:
    def test_round_trip_ground(self):
        grid = PhaseSpaceGrid.balanced(256)
        w = wigner_from_density(ground_state_field(grid))
        tom = optical_tomogram(w, TomogramDomain.optical_default(grid, 128))
        back = wigner_from_optical(tom)
        assert np.max(np.abs(back.values - w.values)) < 1e-3

    def test_zero_tomogram(self, grid64):
        dom = TomogramDomain.optical_default(grid64, 32)
        tom = ScalarField(grid64, np.zeros((32, 64)), "optical", domain=dom)
        assert np.max(np.abs(wigner_from_optical(tom).values)) == 0.0

    def test_displaced_peak_location(self):
        grid = PhaseSpaceGrid.balanced(256)
        psi = gaussian_packet(grid, 2.0, 0.0, np.sqrt(0.5))
        w = wigner_from_density(ScalarField(grid, np.outer(psi, psi.conj()),
                                            "density-matrix"))
        back = wigner_from_optical(optical_tomogram(
            w, TomogramDomain.optical_default(grid, 128)))
        i, j = np.unravel_index(np.argmax(back.values), back.values.shape)
        assert abs(grid.q[i] - 2.0) <= grid.dx
        assert abs(grid.p[j]) <= grid.dp

    def test_undersampled_domain_rejected(self, grid64):
        thetas = np.pi * np.arange(8) / 8
        dom = TomogramDomain(kind="optical", x=grid64.q, thetas=thetas)
        tom = ScalarField(grid64, np.zeros((8, 64)), "optical", domain=dom)
        with pytest.raises(UndersampledDomainError):
            wigner_from_optical(tom)

    @pytest.mark.parametrize("thetas", [
        np.pi * np.arange(32) / 64,                                   # half range
        np.sort(np.random.default_rng(0).uniform(0.0, np.pi, 32)),    # irregular
    ], ids=["half-range", "irregular"])
    def test_non_uniform_angles_rejected(self, grid64, thetas):
        # forward tomograms take any angles; the inverse and the sections
        # need theta_k = pi k / n_theta
        w = wigner_from_density(ground_state_field(grid64))
        tom = optical_tomogram(w, TomogramDomain(kind="optical", x=grid64.q, thetas=thetas))
        assert np.all(np.isfinite(tom.values))
        with pytest.raises(UndersampledDomainError):
            wigner_from_optical(tom)
        with pytest.raises(UndersampledDomainError):
            symplectic_section(tom, 1.0, 0.5)


@pytest.fixture(scope="module")
def ground_tomogram(grid128):
    w = wigner_from_density(ground_state_field(grid128))
    return optical_tomogram(w, TomogramDomain.optical_default(grid128, 64))


class TestSymplecticSection:
    def test_unit_mu_is_theta_zero(self, ground_tomogram):
        x, prof = symplectic_section(ground_tomogram, 1.0, 0.0)
        assert np.max(np.abs(prof - ground_tomogram.values[0])) < 1e-12

    def test_scaled_mu_ground_state(self, ground_tomogram):
        x, prof = symplectic_section(ground_tomogram, 2.0, 0.0)
        exact = 0.5 * np.exp(-x**2 / 4.0) / np.sqrt(np.pi)
        assert np.max(np.abs(prof - exact)) < 1e-8

    def test_pure_momentum_quadrature(self, ground_tomogram, grid128):
        x, prof = symplectic_section(ground_tomogram, 0.0, 1.0)
        assert np.max(np.abs(prof - ground_tomogram.values[32])) < 1e-10

    def test_contracting_mu_no_edge_wrap(self, ground_tomogram):
        # r < 1 stretches the section; outside-box samples must read as zero,
        # not as periodic images of the peak
        x, prof = symplectic_section(ground_tomogram, 0.5, 0.0)
        exact = 2.0 * np.exp(-4.0 * x**2) / np.sqrt(np.pi)
        assert np.max(np.abs(prof - exact)) < 1e-8
        assert abs(prof[0]) < 1e-12 and abs(prof[-1]) < 1e-12

    def test_normalized(self, ground_tomogram, grid128):
        x, prof = symplectic_section(ground_tomogram, 1.3, 0.4)
        assert abs(np.sum(prof) * grid128.dx - 1.0) < 1e-8

    def test_origin_rejected(self, ground_tomogram):
        with pytest.raises(ValueError):
            symplectic_section(ground_tomogram, 0.0, 0.0)


class TestHusimi:
    def test_ground_state(self, grid128):
        q_fld = husimi_from_wigner(wigner_from_density(ground_state_field(grid128)))
        q, p = np.meshgrid(grid128.q, grid128.p, indexing="ij")
        exact = np.exp(-(q**2 + p**2) / 2) / (2 * np.pi)
        assert np.max(np.abs(q_fld.values - exact)) < 1e-8
        assert abs(q_fld.values.sum() * grid128.cell - 1.0) < 1e-8

    def test_positivity_for_excited_state(self, grid128):
        psi = oscillator_eigenstate(grid128, 1)
        w = wigner_from_density(ScalarField(grid128, np.outer(psi, psi.conj()),
                                            "density-matrix"))
        assert w.values.min() < -0.1            # Wigner genuinely negative
        q_fld = husimi_from_wigner(w)
        assert q_fld.values.min() >= -1e-10

    def test_vacuum_overlap_of_excited_vanishes(self, grid128):
        psi = oscillator_eigenstate(grid128, 1)
        w = wigner_from_density(ScalarField(grid128, np.outer(psi, psi.conj()),
                                            "density-matrix"))
        q_fld = husimi_from_wigner(w)
        i0 = grid128.n // 2
        assert abs(q_fld.values[i0, i0]) < 1e-8

    def test_upper_bound(self, grid128, rng):
        psi = random_band_limited_state(grid128, rng)
        w = wigner_from_density(ScalarField(grid128, np.outer(psi, psi.conj()),
                                            "density-matrix"))
        bound = (1.0 + 1e-6) / (2 * np.pi * grid128.hbar)
        assert husimi_from_wigner(w).values.max() <= bound


class TestFieldIO:
    def test_binary_round_trip(self, grid64, tmp_path, rng):
        psi = random_band_limited_state(grid64, rng)
        w = wigner_from_density(ScalarField(grid64, np.outer(psi, psi.conj()),
                                            "density-matrix"))
        save_field(w, tmp_path / "field")
        restored = load_field(tmp_path / "field")
        assert np.max(np.abs(restored.values - w.values)) == 0.0
        assert restored.grid == w.grid
        assert restored.kind == "wigner"

    def test_optical_round_trip_with_domain(self, grid64, tmp_path):
        dom = TomogramDomain.optical_default(grid64, 32)
        w = wigner_from_density(ground_state_field(grid64))
        tom = optical_tomogram(w, dom)
        save_field(tom, tmp_path / "tom")
        restored = load_field(tmp_path / "tom")
        assert np.max(np.abs(restored.values - tom.values)) == 0.0
        assert np.max(np.abs(restored.domain.thetas - dom.thetas)) == 0.0

    def test_csv_export(self, grid64, tmp_path):
        w = wigner_from_density(ground_state_field(grid64))
        field_to_csv(w, tmp_path / "w.csv")
        lines = (tmp_path / "w.csv").read_text().splitlines()
        assert lines[0] == "q,p,value"
        assert len(lines) == 1 + 64 * 64
        assert [float(c) for c in lines[1].split(",")] == [grid64.q[0], grid64.p[0],
                                                           w.values[0, 0]]

    def test_csv_export_optical(self, grid64, tmp_path):
        dom = TomogramDomain.optical_default(grid64, 32)
        tom = optical_tomogram(wigner_from_density(ground_state_field(grid64)), dom)
        assert abs(tom.integral() - 1.0) < 1e-8
        field_to_csv(tom, tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "theta,X,value"
        assert len(lines) == 1 + 32 * 64
