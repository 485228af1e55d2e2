import numpy as np
import pytest

from spintomo import (
    PhaseSpaceGrid,
    ScalarField,
    SpinorDensity,
    TomogramDomain,
    UndersampledDomainError,
    VectorDistribution,
    audit,
    build_frame,
    field_to_csv,
    from_vector,
    gaussian_packet,
    husimi_from_wigner,
    load_field,
    oscillator_eigenstate,
    random_band_limited_state,
    save_field,
    symplectic_section,
    to_vector,
    wigner_from_optical,
)
from spintomo.phase_space import _wigner_of_factors, ddx, fourier_upsample2, radon_slices


@pytest.fixture(scope="module")
def frame0():
    """The spin-0 frame: one component with U = D = 1, so the vector API
    maps a spinless state to its scalar portraits."""
    return build_frame(0.0, [[0, 0, 1]], [0.0])


def portrait(psi, grid, frame0, rep="wigner", dom=None):
    """Spin-0 portrait of the pure spinless state psi, shape (1, ...)."""
    return to_vector(SpinorDensity.from_pure(psi[None], grid), frame0, rep, dom).components


def optical_field(psi, grid, frame0, dom):
    """Optical tomogram of psi as a ScalarField, for the single-field maps."""
    return ScalarField(grid, portrait(psi, grid, frame0, "optical", dom)[0], "optical",
                       domain=dom)


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
    def test_ground_state_gaussian(self, grid128, frame0):
        v = to_vector(SpinorDensity.from_pure(oscillator_eigenstate(grid128, 0)[None], grid128),
                      frame0, "wigner")
        w = v.components[0]
        q, p = np.meshgrid(grid128.q, grid128.p, indexing="ij")
        exact = np.exp(-q**2 - p**2) / np.pi
        assert np.max(np.abs(w - exact)) < 1e-8
        assert v.imag_residues[0] < 1e-12
        assert abs(w.sum() * grid128.cell - 1.0) < 1e-8

    def test_purity_identity(self, grid128, rng, frame0):
        w = portrait(random_band_limited_state(grid128, rng), grid128, frame0)[0]
        purity = 2 * np.pi * grid128.hbar * np.sum(w**2) * grid128.cell
        assert abs(purity - 1.0) < 1e-6

    def test_first_excited_origin_value(self, grid128, frame0):
        w = portrait(oscillator_eigenstate(grid128, 1), grid128, frame0)[0]
        i0 = grid128.n // 2
        assert abs(w[i0, i0] + 1.0 / np.pi) < 1e-6

    def test_round_trip_ground(self, grid128, frame0):
        rho = SpinorDensity.from_pure(oscillator_eigenstate(grid128, 0)[None], grid128)
        back = from_vector(to_vector(rho, frame0, "wigner"), frame0).blocks[0, 0]
        x, xp = np.meshgrid(grid128.q, grid128.q, indexing="ij")
        exact = np.exp(-(x**2 + xp**2) / 2) / np.sqrt(np.pi)
        assert np.max(np.abs(back - exact)) < 1e-8

    def test_round_trip_random_mixture(self, grid128, rng, frame0):
        rho = SpinorDensity.from_mixture(
            [0.5, 0.3, 0.2], [random_band_limited_state(grid128, rng)[None] for _ in range(3)],
            grid128)
        back = from_vector(to_vector(rho, frame0, "wigner"), frame0).blocks[0, 0]
        assert np.max(np.abs(back - rho.blocks[0, 0])) < 1e-10

    def test_zero_field_maps_to_zero(self, grid64, frame0):
        v = VectorDistribution("wigner", np.zeros((1, 64, 64)), frame0, grid64)
        assert np.max(np.abs(from_vector(v, frame0).blocks)) == 0.0

    def test_linearity(self, grid64, rng):
        psi1 = random_band_limited_state(grid64, rng)
        psi2 = random_band_limited_state(grid64, rng)
        a, b = rng.normal(), rng.normal()
        one = np.ones((1, 1))
        combo = _wigner_of_factors(np.array([[a, b]]), np.stack([psi1, psi2]), grid64)
        parts = (a * _wigner_of_factors(one, psi1[None], grid64)
                 + b * _wigner_of_factors(one, psi2[None], grid64))
        assert np.max(np.abs(combo - parts)) < 1e-10

    def test_non_hermitian_rejected(self, grid64, rng, frame0):
        bad = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        with pytest.raises(ValueError, match="not Hermitian"):
            to_vector(SpinorDensity(grid64, bad[None, None]), frame0, "wigner")

    def test_unnormalized_rejected(self, grid64, frame0):
        psi = np.sqrt(2.0) * oscillator_eigenstate(grid64, 0)
        report = audit(to_vector(SpinorDensity.from_pure(psi[None], grid64), frame0, "wigner"))
        assert report.normalization_sum == pytest.approx(2.0, abs=1e-8)
        assert not report.normalization_ok


class TestOpticalTomogram:
    def test_theta_zero_is_position_density(self, grid128, frame0):
        psi = gaussian_packet(grid128, 0.8, 0.5, 0.9)
        dom = TomogramDomain.optical_default(grid128, 64)
        tom = portrait(psi, grid128, frame0, "optical", dom)[0]
        assert np.max(np.abs(tom[0] - np.abs(psi)**2)) < 1e-10

    def test_ground_state_theta_independent(self, grid128, frame0):
        dom = TomogramDomain.optical_default(grid128, 64)
        tom = portrait(oscillator_eigenstate(grid128, 0), grid128, frame0, "optical", dom)[0]
        exact = np.exp(-dom.x**2) / np.sqrt(np.pi)
        assert np.max(np.abs(tom - exact[None, :])) < 1e-8

    def test_theta_half_pi_is_momentum_density(self, grid128, frame0):
        psi = gaussian_packet(grid128, 0.8, 0.5, 0.9)
        dom = TomogramDomain.optical_default(grid128, 64)
        tom = portrait(psi, grid128, frame0, "optical", dom)[0]
        phi = np.fft.fftshift(np.fft.fft(psi)) * grid128.dx / np.sqrt(2 * np.pi)
        assert np.max(np.abs(tom[32] - np.abs(phi)**2)) < 1e-10

    def test_slices_normalized_and_nonnegative(self, grid128, rng, frame0):
        dom = TomogramDomain.optical_default(grid128, 64)
        tom = portrait(random_band_limited_state(grid128, rng), grid128, frame0, "optical", dom)[0]
        assert np.max(np.abs(np.sum(tom, axis=-1) * dom.dx - 1.0)) < 1e-8
        assert tom.min() > -1e-9

    def test_mirror_relation_at_pi(self, grid128, rng, frame0):
        w = portrait(random_band_limited_state(grid128, rng), grid128, frame0)
        x = grid128.q
        s0 = radon_slices(w, grid128, np.array([0.0]), x)[0, 0]
        near_pi = radon_slices(w, grid128, np.array([np.pi * (1 - 1e-12)]), x)[0, 0]
        mirrored = np.roll(s0[::-1], 1)
        assert np.max(np.abs(near_pi - mirrored)) < 1e-6

    def test_brute_force_quadrature_cross_check(self, grid128, frame0):
        # independent oracle: rotate-and-sum quadrature of the Wigner function
        from scipy.interpolate import RegularGridInterpolator
        psi = gaussian_packet(grid128, 0.6, -0.4, 1.1)
        theta = 0.7
        tom = portrait(psi, grid128, frame0, "optical", TomogramDomain(
            kind="optical", x=grid128.q, thetas=np.array([theta])))[0]
        interp = RegularGridInterpolator((grid128.q, grid128.p),
                                         portrait(psi, grid128, frame0)[0],
                                         bounds_error=False, fill_value=0.0,
                                         method="cubic")
        svals = np.linspace(-10, 10, 4001)
        for idx in (grid128.n // 2, grid128.n // 2 + 5):
            big_x = grid128.q[idx]
            pts = np.stack([big_x * np.cos(theta) - svals * np.sin(theta),
                            big_x * np.sin(theta) + svals * np.cos(theta)], axis=1)
            oracle = np.trapezoid(interp(pts), svals)
            assert tom[0, idx] == pytest.approx(oracle, abs=2e-4)


class TestFilteredBackProjection:
    def test_round_trip_ground(self, frame0):
        grid = PhaseSpaceGrid.balanced(256)
        psi = oscillator_eigenstate(grid, 0)
        tom = optical_field(psi, grid, frame0, TomogramDomain.optical_default(grid, 128))
        back = wigner_from_optical(tom)
        assert np.max(np.abs(back.values - portrait(psi, grid, frame0)[0])) < 1e-3

    def test_zero_tomogram(self, grid64):
        dom = TomogramDomain.optical_default(grid64, 32)
        tom = ScalarField(grid64, np.zeros((32, 64)), "optical", domain=dom)
        assert np.max(np.abs(wigner_from_optical(tom).values)) == 0.0

    def test_displaced_peak_location(self, frame0):
        grid = PhaseSpaceGrid.balanced(256)
        psi = gaussian_packet(grid, 2.0, 0.0, np.sqrt(0.5))
        back = wigner_from_optical(optical_field(
            psi, grid, frame0, TomogramDomain.optical_default(grid, 128)))
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
    def test_non_uniform_angles_rejected(self, grid64, frame0, thetas):
        # forward tomograms take any angles; the inverse and the sections
        # need theta_k = pi k / n_theta
        tom = optical_field(oscillator_eigenstate(grid64, 0), grid64, frame0,
                            TomogramDomain(kind="optical", x=grid64.q, thetas=thetas))
        assert np.all(np.isfinite(tom.values))
        with pytest.raises(UndersampledDomainError):
            wigner_from_optical(tom)
        with pytest.raises(UndersampledDomainError):
            symplectic_section(tom, 1.0, 0.5)


@pytest.fixture(scope="module")
def ground_tomogram(grid128, frame0):
    return optical_field(oscillator_eigenstate(grid128, 0), grid128, frame0,
                         TomogramDomain.optical_default(grid128, 64))


# off-centre packet: q0, p0, sigma; its sections are not mirror-symmetric
PACKET = (1.2, 0.7, 0.8)


@pytest.fixture(scope="module")
def packet_tomogram(grid128, frame0):
    return optical_field(gaussian_packet(grid128, *PACKET), grid128, frame0,
                         TomogramDomain.optical_default(grid128, 64))


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

    @pytest.mark.parametrize("mu, nu", [(-1.0, 0.0), (-1.0, -0.3), (0.5, -0.4), (0.0, -1.0),
                                        (1.0, -1e-300)])
    def test_lower_half_plane_off_centre(self, packet_tomogram, grid128, mu, nu):
        # angles in [pi, 2 pi) read the mirrored half of the extended series;
        # the closed form is the Gaussian of mu q + nu p for the packet
        q0, p0, sigma = PACKET
        mean = mu * q0 + nu * p0
        var = (mu * sigma)**2 + (nu * grid128.hbar / (2.0 * sigma))**2
        x, prof = symplectic_section(packet_tomogram, mu, nu)
        exact = np.exp(-(x - mean)**2 / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
        assert np.max(np.abs(prof - exact)) < 1e-12


class TestHusimi:
    def test_ground_state(self, grid128, frame0):
        h = portrait(oscillator_eigenstate(grid128, 0), grid128, frame0, "husimi")[0]
        q, p = np.meshgrid(grid128.q, grid128.p, indexing="ij")
        exact = np.exp(-(q**2 + p**2) / 2) / (2 * np.pi)
        assert np.max(np.abs(h - exact)) < 1e-8
        assert abs(h.sum() * grid128.cell - 1.0) < 1e-8

    def test_positivity_for_excited_state(self, grid128, frame0):
        psi = oscillator_eigenstate(grid128, 1)
        w = portrait(psi, grid128, frame0)[0]
        assert w.min() < -0.1            # Wigner genuinely negative
        q_fld = husimi_from_wigner(ScalarField(grid128, w, "wigner"))
        assert q_fld.values.min() >= -1e-10

    def test_vacuum_overlap_of_excited_vanishes(self, grid128, frame0):
        h = portrait(oscillator_eigenstate(grid128, 1), grid128, frame0, "husimi")[0]
        i0 = grid128.n // 2
        assert abs(h[i0, i0]) < 1e-8

    def test_upper_bound(self, grid128, rng, frame0):
        h = portrait(random_band_limited_state(grid128, rng), grid128, frame0, "husimi")[0]
        bound = (1.0 + 1e-6) / (2 * np.pi * grid128.hbar)
        assert h.max() <= bound


class TestFieldIO:
    def test_binary_round_trip(self, grid64, tmp_path, rng, frame0):
        w = ScalarField(grid64, portrait(random_band_limited_state(grid64, rng), grid64,
                                         frame0)[0], "wigner")
        save_field(w, tmp_path / "field")
        restored = load_field(tmp_path / "field")
        assert np.max(np.abs(restored.values - w.values)) == 0.0
        assert restored.grid == w.grid
        assert restored.kind == "wigner"

    def test_optical_round_trip_with_domain(self, grid64, tmp_path, frame0):
        dom = TomogramDomain.optical_default(grid64, 32)
        tom = optical_field(oscillator_eigenstate(grid64, 0), grid64, frame0, dom)
        save_field(tom, tmp_path / "tom")
        restored = load_field(tmp_path / "tom")
        assert np.max(np.abs(restored.values - tom.values)) == 0.0
        assert np.max(np.abs(restored.domain.thetas - dom.thetas)) == 0.0

    def test_csv_export(self, grid64, tmp_path, frame0):
        w = ScalarField(grid64, portrait(oscillator_eigenstate(grid64, 0), grid64, frame0)[0],
                        "wigner")
        field_to_csv(w, tmp_path / "w.csv")
        lines = (tmp_path / "w.csv").read_text().splitlines()
        assert lines[0] == "q,p,value"
        assert len(lines) == 1 + 64 * 64
        assert [float(c) for c in lines[1].split(",")] == [grid64.q[0], grid64.p[0],
                                                           w.values[0, 0]]

    def test_csv_export_optical(self, grid64, tmp_path, frame0):
        dom = TomogramDomain.optical_default(grid64, 32)
        v = to_vector(SpinorDensity.from_pure(oscillator_eigenstate(grid64, 0)[None], grid64),
                      frame0, "optical", dom)
        assert abs(v.component_integrals()[0] - 1.0) < 1e-8
        field_to_csv(ScalarField(grid64, v.components[0], "optical", domain=dom),
                     tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "theta,X,value"
        assert len(lines) == 1 + 32 * 64
