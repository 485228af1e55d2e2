import numpy as np
import pytest
import scipy.linalg

from spintomo import (
    PhaseSpaceGrid,
    ScalarField,
    SpinorDensity,
    TomogramDomain,
    UndersampledDomainError,
    VectorDistribution,
    audit,
    build_frame,
    build_spin1_frame,
    fidelity_with_pure,
    from_vector,
    gaussian_packet,
    husimi_from_wigner,
    oscillator_eigenstate,
    random_band_limited_state,
    random_frame,
    spin_coherent_state,
    spinor_product_state,
    to_vector,
    wigner_from_optical,
)
from spintomo import phase_space
from spintomo.phase_space import (
    _band_limited_matrix,
    _flip_x,
    _kernel_of_wigner,
    _level_factors,
    _wigner_of_factors,
    angle_step,
    ddx,
    fourier_upsample2,
    husimi_variances,
    invert_optical,
    oscillator_levels,
    radon_slices,
)
from spintomo.states import oscillator_basis


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

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: PhaseSpaceGrid.balanced(128, hbar=np.nan), id="balanced-hbar-nan"),
        pytest.param(lambda: PhaseSpaceGrid.balanced(128, mass=0.0), id="balanced-mass-0"),
        pytest.param(lambda: PhaseSpaceGrid.balanced(128, omega=-1.0), id="balanced-omega-neg"),
        pytest.param(lambda: PhaseSpaceGrid.centered(128, np.inf), id="centered-length-inf"),
        pytest.param(lambda: PhaseSpaceGrid.centered(128, np.nan), id="centered-length-nan"),
        pytest.param(lambda: PhaseSpaceGrid(128, 0.1, np.inf), id="x0-inf"),
        pytest.param(lambda: PhaseSpaceGrid(128, 0.1, -6.4, mass=np.inf), id="mass-inf"),
        pytest.param(lambda: PhaseSpaceGrid(128, 0.1, -6.4, omega=np.nan), id="omega-nan"),
        pytest.param(lambda: PhaseSpaceGrid(128, 0.1, -6.4, hbar=-np.inf), id="hbar-neg-inf"),
    ])
    def test_non_finite_or_non_positive_refused(self, make):
        with pytest.raises(ValueError, match="must be finite"):
            make()

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

    def test_non_uniform_x_rejected(self):
        grid = PhaseSpaceGrid.balanced(32)
        x = grid.q.copy()
        x[5:] += 0.3 * grid.dx
        thetas = TomogramDomain.optical_default(grid, 16).thetas
        with pytest.raises(ValueError, match="uniform"):
            TomogramDomain(kind="optical", x=x, thetas=thetas)
        with pytest.raises(ValueError, match="uniform"):
            TomogramDomain(kind="symplectic", x=x, mu=np.ones(2), nu=np.ones(2))
        with pytest.raises(ValueError, match="increasing"):
            TomogramDomain(kind="optical", x=grid.q[::-1].copy(), thetas=thetas)
        # a NaN spacing compares false both ways; the check must not let it through
        x = grid.q.copy()
        x[5] = np.nan
        with pytest.raises(ValueError, match="uniform"):
            TomogramDomain(kind="optical", x=x, thetas=thetas)
        bad = thetas.copy()
        bad[3] = np.nan
        with pytest.raises(ValueError, match="theta"):
            TomogramDomain(kind="optical", x=grid.q, thetas=bad)

    @pytest.mark.parametrize("kind, samples, error", [
        ("optical", {"thetas": [0.0, 0.5]}, None),
        ("optical", {"x": PhaseSpaceGrid.balanced(64).q.tolist()}, None),
        ("symplectic", {"mu": [[0.9, 1.1]]}, "1-D"),
        ("symplectic", {"mu": [np.nan]}, "finite"),
        ("symplectic", {"mu": [np.inf]}, "finite"),
    ], ids=["list-thetas", "list-x", "2d-mu", "nan-mu", "inf-mu"])
    def test_sample_arrays_stored_as_checked_floats(self, grid64, frame0, kind, samples, error):
        # sample arrays are 1-D finite float ndarrays once the domain exists:
        # a float ndarray is kept as given and a list converted, so one plan
        # serves every call on the domain; anything else is refused before a
        # transform reads it
        axes = {"optical": {"thetas": np.pi * np.arange(32) / 32},
                "symplectic": {"mu": [0.9, 1.1], "nu": [0.8, 1.0]}}[kind]
        samples = {"x": grid64.q, **axes, **samples}
        if error is not None:
            with pytest.raises(ValueError, match=error):
                TomogramDomain(kind=kind, **samples)
            return
        dom = TomogramDomain(kind=kind, **samples)
        for name, given in samples.items():
            stored = getattr(dom, name)
            assert isinstance(stored, np.ndarray) and stored.dtype == float
            assert stored is given or not isinstance(given, np.ndarray)
        tom = portrait(oscillator_eigenstate(grid64, 0), grid64, frame0, "optical", dom)[0]
        plan = phase_space._plan(grid64, dom.x, dom.thetas)
        assert "march" in vars(plan)          # built by the portrait
        assert np.array_equal(
            portrait(oscillator_eigenstate(grid64, 0), grid64, frame0, "optical", dom)[0], tom)
        assert phase_space._plan(grid64, dom.x, dom.thetas) is plan


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

    @pytest.mark.parametrize("n", [64, 63])
    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_ddx_gaussian_along_axis(self, rng, n, axis):
        # even lengths have a Nyquist bin, odd ones do not
        x = np.linspace(-8.0, 8.0, n, endpoint=False)
        shape = [2, 3, 4, 5]
        shape[axis] = n
        along = [1] * 4
        along[axis] = n
        x = x.reshape(along)
        values = rng.normal(size=[1 if i == axis else m for i, m in enumerate(shape)]) \
            * np.exp(-x**2)
        df = ddx(values, 16.0 / n, axis=axis)
        assert df.shape == values.shape and df.dtype == np.float64
        assert np.max(np.abs(df + 2 * x * values)) < 1e-12

    def test_ddx_complex_rejected(self, grid64):
        with pytest.raises(TypeError, match="real"):
            ddx(np.exp(-grid64.q**2) * (1 + 1j), grid64.dx)


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


def complex_wigner_reference(weights, amps, grid):
    """The factor -> Wigner map as a complex FFT over all n skew offsets, with
    the fftshift and the scale applied last: the map that _wigner_of_factors
    computes on the Hermitian half spectrum.  Returns complex (c, n, n); its
    imaginary part is what _imag_residues reads in closed form."""
    n = grid.n
    i = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    s = (k + n // 2) % n - n // 2
    a_idx = (2 * i + s) % (2 * n)
    b_idx = (2 * i - s) % (2 * n)
    out = np.zeros((len(weights), n, n), dtype=complex)
    for col, fine in zip(np.transpose(weights), fourier_upsample2(amps)):
        w = np.fft.fft(fine[a_idx] * fine[b_idx].conj(), axis=1)
        for c in np.flatnonzero(col):
            out[c] += col[c] * w
    return np.fft.fftshift(out, axes=-1) * (grid.dx / (2.0 * np.pi * grid.hbar))


def complex_kernel_reference(w, grid):
    """One component's Wigner -> kernel map as a complex inverse FFT over all
    n offsets, every column upsampled in the centre: the per-component map
    that _kernel_of_wigner computes as one batched half-spectrum map."""
    n = grid.n
    skew = np.fft.ifft(np.fft.ifftshift(np.asarray(w, dtype=complex), axes=1), axis=1)
    skew *= 2.0 * np.pi * grid.hbar / grid.dx
    centers_fine = fourier_upsample2(skew, axis=0)
    a = np.arange(n)[:, None]
    b = np.arange(n)[None, :]
    d = a - b
    s = (d + n // 2) % n - n // 2
    return centers_fine[(2 * a - s) % (2 * n), d % n]


def spin_case(s):
    """A frame of spin s: the spin-0 frame, the paper frame at s = 1, seeded
    random frames otherwise."""
    if s == 0:
        return build_frame(0.0, [[0, 0, 1]], [0.0])
    if s == 1:
        return build_spin1_frame()
    return random_frame(s, seed=7)


def portrait_factors(rho, frame):
    """(weights, amps) of the spin-contracted kernels, as to_vector forms them."""
    probs, fields = rho.factors
    amps = np.einsum("ja,rax->jrx", frame.vectors.conj(), fields).reshape(-1, rho.grid.n)
    return np.kron(np.eye(frame.size), probs), amps


def packet_mixture(grid, dim, rng):
    """Mixture of two random spinors times Gaussian packets narrow enough
    (sigma 0.5-0.6) that the coherence at half-box separation is below
    round-off on balanced(64) and up."""
    psis = [spinor_product_state(grid, rng.normal(size=dim) + 1j * rng.normal(size=dim),
                                 gaussian_packet(grid, *rng.uniform(-1, 1, 2),
                                                 sigma=rng.uniform(0.5, 0.6)))
            for _ in range(2)]
    return SpinorDensity.from_mixture(rng.dirichlet(np.ones(2)), psis, grid)


def six_level_mixture(grid, dim, rng):
    """Mixture of two random spinors times superpositions of the first six
    oscillator levels; at dim 3 the rank2_density of test_vector_portrait.
    On balanced(64) these levels reach the band edge, and the imaginary
    residues are near 1e-8."""
    probs = rng.dirichlet(np.ones(2))
    psis = [spinor_product_state(grid, rng.normal(size=dim) + 1j * rng.normal(size=dim),
                                 random_band_limited_state(grid, rng))
            for _ in range(2)]
    return SpinorDensity.from_mixture(probs, psis, grid)


SPINS = [0, 0.5, 1, 1.5]


class TestRealWignerMaps:
    """The real factor -> Wigner and Wigner -> kernel maps against the complex
    maps they replace, for frames of spin 0 to 3/2."""

    @pytest.mark.parametrize("n", [64, 128, 256])
    @pytest.mark.parametrize("s", SPINS)
    def test_stack_matches_complex_reference(self, s, n):
        grid = PhaseSpaceGrid.balanced(n)
        frame = spin_case(s)
        rho = packet_mixture(grid, frame.dim, np.random.default_rng(n))
        factors = portrait_factors(rho, frame)
        w = _wigner_of_factors(*factors, grid)
        ref = complex_wigner_reference(*factors, grid)
        assert w.dtype == np.float64 and w.shape == (frame.size, n, n)
        assert np.max(np.abs(w - ref.real)) <= 1e-15
        assert np.array_equal(w.real, w)
        v = to_vector(rho, frame, "wigner")
        assert np.array_equal(v.components, w)
        assert np.max(v.imag_residues) <= 1e-15
        assert np.max(np.abs(ref.imag)) <= 1e-15

    @pytest.mark.parametrize("s", SPINS)
    def test_residues_match_reference_on_six_levels(self, s):
        grid = PhaseSpaceGrid.balanced(64)
        frame = spin_case(s)
        rho = six_level_mixture(grid, frame.dim, np.random.default_rng(0))
        v = to_vector(rho, frame, "wigner")
        ref = complex_wigner_reference(*portrait_factors(rho, frame), grid)
        expected = np.max(np.abs(ref.imag), axis=(1, 2))
        assert np.max(expected) > 1e-9
        # atol: the reference's FFT leaves about 1e-17 of round-off in Im W
        assert np.allclose(v.imag_residues, expected, rtol=1e-9, atol=1e-16)
        assert np.max(np.abs(v.components - ref.real)) <= 1e-15

    @pytest.mark.parametrize("n", [64, 128, 256])
    @pytest.mark.parametrize("s", SPINS)
    def test_batched_kernels_match_reference(self, s, n):
        grid = PhaseSpaceGrid.balanced(n)
        frame = spin_case(s)
        rho = packet_mixture(grid, frame.dim, np.random.default_rng(n + 1))
        w = to_vector(rho, frame, "wigner").components
        kernels = _kernel_of_wigner(w, grid)
        ref = np.stack([complex_kernel_reference(c, grid) for c in w])
        assert kernels.shape == (frame.size, n, n)
        assert np.max(np.abs(kernels - ref)) <= 1e-15
        assert np.all(kernels == kernels.conj().swapaxes(-1, -2))
        assert np.array_equal(_kernel_of_wigner(w[0], grid), kernels[0])

    def test_kernels_of_complex_input_rejected(self, grid64):
        w = np.zeros((2, 64, 64))
        with pytest.raises(TypeError, match="real"):
            _kernel_of_wigner(w + 0j, grid64)


class TestOpticalTomogram:
    def test_theta_zero_is_position_density(self, grid128, frame0):
        psi = gaussian_packet(grid128, 0.8, 0.5, 0.9)
        dom = TomogramDomain.optical_default(grid128, 64)
        tom = portrait(psi, grid128, frame0, "optical", dom)[0]
        assert np.max(np.abs(tom[0] - np.abs(psi)**2)) < 1e-10

    def test_ground_state_theta_independent(self, grid64, grid128, frame0):
        for grid, n_theta in ((grid128, 64), (grid64, 32)):
            dom = TomogramDomain.optical_default(grid, n_theta)
            v = to_vector(SpinorDensity.from_pure(oscillator_eigenstate(grid, 0)[None], grid),
                          frame0, "optical", dom)
            exact = np.exp(-dom.x**2) / np.sqrt(np.pi)
            assert np.max(np.abs(v.components[0] - exact[None, :])) < 1e-8
            assert abs(v.component_integrals()[0] - 1.0) < 1e-8

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
    """The optical -> Wigner inverse (invert_optical through
    wigner_from_optical) on single spinless tomograms."""

    def test_round_trip_ground(self, frame0):
        grid = PhaseSpaceGrid.balanced(256)
        psi = oscillator_eigenstate(grid, 0)
        tom = optical_field(psi, grid, frame0, TomogramDomain.optical_default(grid, 128))
        back = wigner_from_optical(tom)
        assert np.max(np.abs(back.values - portrait(psi, grid, frame0)[0])) < 1e-13

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

    def test_non_finite_tomogram_rejected(self, grid64):
        dom = TomogramDomain.optical_default(grid64, 32)
        values = np.zeros((32, 64))
        values[3, 40] = np.nan
        with pytest.raises(UndersampledDomainError, match="unexplained"):
            wigner_from_optical(ScalarField(grid64, values, "optical", domain=dom))

    def test_undersampled_domain_rejected(self, grid64, frame0):
        # 8 angles resolve levels 0..7; a packet displaced by |alpha|^2 = 5
        # holds a third of its weight above them
        dom = TomogramDomain.optical_default(grid64, 8)
        tom = optical_field(gaussian_packet(grid64, 2.0, 2.0, np.sqrt(0.5)), grid64, frame0, dom)
        with pytest.raises(UndersampledDomainError, match="unexplained"):
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


def coherent_spinor(grid, frame, q0, p0):
    """Spin-coherent state of the frame's spin times the grid oscillator's
    coherent state at (q0, p0): it lies within the first levels, so every
    inversion case below is exact to round-off."""
    sigma = np.sqrt(grid.hbar / (2.0 * grid.mass * grid.omega))
    if frame.dim == 1:
        return gaussian_packet(grid, q0, p0, sigma)[None]
    return spin_coherent_state(grid, [1.0, 0.5, 0.3], frame.s, q0=q0, p0=p0, sigma=sigma)


def _inversion_case(name):
    """(grid, domain, frame) of one optical inversion case."""
    spin1 = build_spin1_frame()
    if name == "balanced-64-16":
        grid, n_theta, frame = PhaseSpaceGrid.balanced(64), 16, spin1
    elif name == "balanced-128-64":
        grid, n_theta, frame = PhaseSpaceGrid.balanced(128), 64, spin1
    elif name == "non-unit":
        grid = PhaseSpaceGrid.balanced(64, hbar=0.8, mass=1.5, omega=1.3)
        n_theta, frame = 20, build_frame(0.0, [[0, 0, 1]], [0.0])
    else:   # "centered": unbalanced, dp / dx = pi m omega / 2
        grid, n_theta, frame = PhaseSpaceGrid.centered(64, 16.0), 32, random_frame(1.5, 3)
    return grid, TomogramDomain.optical_default(grid, n_theta), frame


class TestOpticalInversion:
    """from_vector on the optical route against the closed-form states, on
    tomograms with 1, 9 and 16 components; the states sit off centre so that
    no symmetry hides an error."""

    # On the balanced n = 64 grids a coherent state's tomogram is band-limited
    # only to ~1e-11 (its spectrum exp(-k^2 l^2 / 4) at the Nyquist wavenumber
    # sqrt(pi n / 2) / l), and the inversion resamples it at half the spacing,
    # so those cases hold to 1e-11; the others to round-off.
    @pytest.mark.parametrize("name, n_comp, rtol", [
        ("balanced-64-16", 9, 1e-11), ("balanced-128-64", 9, 1e-12), ("non-unit", 1, 1e-11),
        ("centered", 16, 1e-12)],
        ids=["balanced-64-16-9", "balanced-128-64-9", "non-unit-1", "centered-16"])
    def test_matches_closed_form(self, name, n_comp, rtol):
        grid, dom, frame = _inversion_case(name)
        psi = coherent_spinor(grid, frame, 0.4, -0.3)
        rho = SpinorDensity.from_pure(psi, grid)
        v = to_vector(rho, frame, "optical", dom)
        assert v.components.shape == (n_comp, len(dom.thetas), len(dom.x))
        back = from_vector(v, frame)
        assert np.max(np.abs(back.blocks - rho.blocks)) <= rtol * np.max(np.abs(rho.blocks))
        assert abs(1.0 - fidelity_with_pure(back, psi)) <= 10 * rtol

    def test_levels_beyond_a_quarter_of_n(self, frame0):
        # |alpha|^2 = 14.5: 2e-5 of the weight lies above level n / 4 = 32,
        # none above n / 2 - 1 = 63, which 64 angles resolve
        grid = PhaseSpaceGrid.balanced(128)
        psi = coherent_spinor(grid, frame0, 5.0, 2.0)
        weights = np.abs(oscillator_basis(grid, 64) @ psi[0] * grid.dx)**2
        assert np.sum(weights[33:]) > 1e-5
        rho = SpinorDensity.from_pure(psi, grid)
        back = from_vector(to_vector(rho, frame0, "optical",
                                     TomogramDomain.optical_default(grid, 64)), frame0)
        assert np.max(np.abs(back.blocks - rho.blocks)) <= 1e-10 * np.max(np.abs(rho.blocks))
        assert abs(1.0 - fidelity_with_pure(back, psi)) <= 1e-13

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 1.5])
    def test_round_trip_any_spin(self, grid128, rng, s):
        frame = build_frame(0.0, [[0, 0, 1]], [0.0]) if s == 0.0 else random_frame(s, 11)
        d = frame.dim
        psis = [spinor_product_state(grid128, rng.normal(size=d) + 1j * rng.normal(size=d),
                                     random_band_limited_state(grid128, rng)) for _ in range(2)]
        rho = SpinorDensity.from_mixture([0.7, 0.3], psis, grid128)
        dom = TomogramDomain.optical_default(grid128, 64)
        back = from_vector(to_vector(rho, frame, "optical", dom), frame)
        assert np.max(np.abs(back.blocks - rho.blocks)) <= 1e-12 * np.max(np.abs(rho.blocks))
        assert back.trace() == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("n, n_theta, levels", [
        (64, 16, 15), (64, 64, 32), (128, 64, 63), (128, 128, 64), (256, 128, 127),
        (256, 16, 15)])
    def test_level_count_rule(self, n, n_theta, levels):
        # n / 2 keeps the product basis well conditioned at half the grid
        # spacing; below n_theta no harmonic of the extended angle series
        # aliases onto another
        grid = PhaseSpaceGrid.balanced(n)
        assert oscillator_levels(grid, n_theta) == levels
        dom = TomogramDomain.optical_default(grid, n_theta)
        stack = np.zeros((2, n_theta, n))
        assert invert_optical(stack, grid, dom).shape == (2, levels + 1, levels + 1)

    def test_narrow_domain_rejected(self, frame):
        # 16 quadrature points cannot determine the 32 levels of n = 64 and 32 angles
        grid = PhaseSpaceGrid.balanced(64)
        dom = TomogramDomain(kind="optical", x=grid.q[24:40].copy(),
                             thetas=TomogramDomain.optical_default(grid, 32).thetas)
        v = to_vector(SpinorDensity.from_pure(coherent_spinor(grid, frame, 0.4, -0.3), grid),
                      frame, "optical", dom)
        for _ in range(2):      # refused when the domain's plan is built, and on reuse
            with pytest.raises(UndersampledDomainError, match="quadrature points"):
                from_vector(v, frame)

    def test_asymmetric_domain_rejected(self, frame):
        # the angles extend to [0, 2 pi) by w(X, theta + pi) = w(-X, theta)
        grid = PhaseSpaceGrid.balanced(64)
        dom = TomogramDomain(kind="optical", x=grid.q + 0.5 * grid.dx,
                             thetas=TomogramDomain.optical_default(grid, 32).thetas)
        v = to_vector(SpinorDensity.from_pure(coherent_spinor(grid, frame, 0.4, -0.3), grid),
                      frame, "optical", dom)
        with pytest.raises(UndersampledDomainError, match="X -> -X"):
            from_vector(v, frame)

    def test_unsupported_state_rejected(self, frame):
        # m = 4 squeezes the grid oscillator 2.8x against this packet, whose
        # weight above level 127 is 3e-7
        grid = PhaseSpaceGrid.balanced(256, mass=4.0)
        psi = spin_coherent_state(grid, [1, 1, 1], q0=3.0, p0=2.0, sigma=1.0)
        dom = TomogramDomain.optical_default(grid, 128)
        v = to_vector(SpinorDensity.from_pure(psi, grid), frame, "optical", dom)
        for _ in range(2):      # refused when the domain's plan is built, and on reuse
            with pytest.raises(UndersampledDomainError, match="unexplained"):
                from_vector(v, frame)
        # the refusal is the state's, not the domain's: a supported state passes
        supported = coherent_spinor(grid, frame, 0.4, -0.3)
        back = from_vector(to_vector(SpinorDensity.from_pure(supported, grid), frame,
                                     "optical", dom), frame)
        assert abs(1.0 - fidelity_with_pure(back, supported)) <= 1e-12


def level_matrix(dim, n_levels, probs, rng):
    """Hermitian matrix over |a> (x) psi_m with the eigenvalues probs and zero
    elsewhere.  The eigenvectors are random, with level weights falling as
    exp(-m / 4) like those of a reconstructed packet, and orthonormalised."""
    shape = (len(probs), dim, n_levels)
    raw = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * np.exp(-np.arange(n_levels) / 8)
    vecs, _ = np.linalg.qr(raw.reshape(len(probs), -1).T)
    return (vecs * probs) @ vecs.conj().T


def factor_blocks(probs, fields):
    """Dense blocks (dim, dim, n, n) of the factors (probs, fields)."""
    return np.einsum("r,rai,rbj->abij", probs, fields, fields.conj())


class TestLevelFactors:
    """_level_factors solves only for the eigenpairs it keeps; its factors give
    the blocks of the full numpy.linalg.eigh decomposition it replaced."""

    N_LEVELS = 64

    def check(self, matrix, dim, grid, monkeypatch, solves):
        evals, evecs = np.linalg.eigh(matrix)
        keep = np.abs(evals) > 1e-12
        basis = oscillator_basis(grid, self.N_LEVELS)
        ref = factor_blocks(evals[keep],
                            evecs[:, keep].T.reshape(-1, dim, self.N_LEVELS) @ basis)

        def refuse(*args, **kwargs):
            raise AssertionError("full eigendecomposition")

        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["subset_by_value"])
            return eigh(*args, **kwargs)

        eigh = scipy.linalg.eigh        # _level_factors imports it when called
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(scipy.linalg, "eigh", counted)
        probs, fields = _level_factors(matrix, dim, grid)
        assert len(calls) == solves
        assert np.all(np.diff(probs) >= 0)
        np.testing.assert_allclose(probs, evals[keep], rtol=0, atol=1e-15)
        assert fields.shape == (int(np.sum(keep)), dim, grid.n)
        # two LAPACK solvers agree to a few round-offs: up to 3e-15 of the
        # largest block entry over 20 seeds of these cases
        assert np.max(np.abs(factor_blocks(probs, fields) - ref)) <= 5e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5], ids=["D128", "D192", "D256"])
    def test_positive_semidefinite(self, grid128, rng, monkeypatch, s, rank):
        # no eigenvalue is below -1e-12, so the negative side is never solved
        dim = int(2 * s + 1)
        matrix = level_matrix(dim, self.N_LEVELS, rng.dirichlet(np.ones(rank)), rng)
        self.check(matrix, dim, grid128, monkeypatch, solves=1)

    def test_degenerate_pair(self, grid128, rng, monkeypatch):
        matrix = level_matrix(3, self.N_LEVELS, np.array([0.4, 0.4, 0.2]), rng)
        self.check(matrix, 3, grid128, monkeypatch, solves=1)

    def test_indefinite(self, grid128, rng, monkeypatch):
        # +-1e-10 are kept, +-1e-13 dropped; the Cholesky factorisation of
        # matrix + 1e-12 I fails, so the negative side is solved too
        probs = np.array([0.7, 0.3, 1e-10, -1e-10, 1e-13, -1e-13])
        matrix = level_matrix(2, self.N_LEVELS, probs, rng)
        self.check(matrix, 2, grid128, monkeypatch, solves=2)


def symplectic_section(tom: ScalarField, mu: float, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Distribution of mu*q + nu*p from an optical tomogram: the paper's
    optical -> symplectic relation, applied to one component, as the
    closed-form cross-check of symplectic_profiles.

    Uses the homogeneity relation M(X, mu, nu) = w(X/r, theta)/r with
    r = sqrt(mu^2 + nu^2 m^2 w^2) and theta = atan2(nu m w, mu) in [0, 2 pi),
    read between the tomogram's angles by band-limited interpolation of the
    2 pi-extended series on the uniform grid of angle_step.  Returns
    (x, profile) on the tomogram's quadrature grid.
    """
    if mu == 0.0 and nu == 0.0:
        raise ValueError("(mu, nu) = (0, 0) does not define a quadrature")
    g = tom.grid
    m_omega = g.mass * g.omega
    r = float(np.hypot(mu, nu * m_omega))
    # the second fold maps a tiny negative angle, which rounds up to 2 pi, to 0
    theta = float(np.arctan2(nu * m_omega, mu)) % (2.0 * np.pi) % (2.0 * np.pi)
    x = tom.domain.x
    thetas = tom.domain.thetas
    angle_step(thetas)
    extended = np.concatenate([tom.values, _flip_x(tom.values, axis=1)], axis=0)
    sl = _band_limited_matrix(np.concatenate([thetas, thetas + np.pi]), np.array([theta]))
    # targets beyond the quadrature box would wrap periodically; the slice
    # decays there, so the true value is zero
    profile = (sl @ extended @ _band_limited_matrix(x, x / r).T)[0] / r
    return x.copy(), profile


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

    def test_stack_matches_complex_reference(self, grid128, frame):
        # the rfft2 half-plane against the full complex fft2 smoothing, on the
        # 9 components of a spin-1 packet
        psi = spin_coherent_state(grid128, [0.3, -0.5, 0.8], q0=0.7, p0=-0.4)
        rho = SpinorDensity.from_pure(psi, grid128)
        w = to_vector(rho, frame, "wigner").components
        var_q, var_p = husimi_variances(grid128)
        kq = 2.0 * np.pi * np.fft.fftfreq(grid128.n, grid128.dx)
        kp = 2.0 * np.pi * np.fft.fftfreq(grid128.n, grid128.dp)
        mult = np.exp(-0.5 * var_q * kq[:, None] ** 2 - 0.5 * var_p * kp[None, :] ** 2)
        ref = np.fft.ifft2(mult * np.fft.fft2(w)).real
        got = np.stack([husimi_from_wigner(ScalarField(grid128, c, "wigner")).values
                        for c in w])
        assert np.max(np.abs(got - ref)) < 1e-15
        assert np.array_equal(to_vector(rho, frame, "husimi").components, got)
        with pytest.raises(TypeError, match="real"):
            husimi_from_wigner(ScalarField(grid128, w[0] + 0j, "wigner"))

    def test_vacuum_overlap_of_excited_vanishes(self, grid128, frame0):
        h = portrait(oscillator_eigenstate(grid128, 1), grid128, frame0, "husimi")[0]
        i0 = grid128.n // 2
        assert abs(h[i0, i0]) < 1e-8

    def test_upper_bound(self, grid128, rng, frame0):
        h = portrait(random_band_limited_state(grid128, rng), grid128, frame0, "husimi")[0]
        bound = (1.0 + 1e-6) / (2 * np.pi * grid128.hbar)
        assert h.max() <= bound
