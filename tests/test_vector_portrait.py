import numpy as np
import pytest
import scipy.linalg

from spintomo import (
    EMFieldConfig,
    PhaseSpaceGrid,
    PropagatorConfig,
    SpinorDensity,
    TomogramDomain,
    UnsupportedInverseError,
    audit,
    build_spin1_frame,
    evolve_oracle,
    evolve_wigner_vector,
    fidelity_with_pure,
    from_vector,
    gaussian_packet,
    oscillator_eigenstate,
    random_band_limited_state,
    random_frame,
    spin_coherent_state,
    spinor_product_state,
    to_vector,
)
from spintomo import vector_portrait
from spintomo.phase_space import _wigner_of_factors, radon_slices, symplectic_profiles
from spintomo.residuals import default_domain

REPRESENTATIONS = ("wigner", "husimi", "optical", "symplectic-section")


def rank2_density(grid, rng):
    """Mixture of two spin-1 product states whose spatial parts are random
    superpositions of the first six oscillator levels."""
    probs = rng.dirichlet(np.ones(2))
    psis = [spinor_product_state(grid, rng.normal(size=3) + 1j * rng.normal(size=3),
                                 random_band_limited_state(grid, rng))
            for _ in range(2)]
    return SpinorDensity.from_mixture(probs, psis, grid)


def random_rank2_density(grid, rng):
    """rank2_density, checked to be grid-supported: its Wigner portrait passes
    the audit.  It does on balanced(128), with imaginary residues near 1e-17;
    on balanced(64) six levels reach the band edge (test_six_levels_flagged_on_n64)."""
    rho = rank2_density(grid, rng)
    assert audit(to_vector(rho, build_spin1_frame(), "wigner")).passed
    return rho


class TestSpinorDensity:
    def test_pure_state_trace_and_hermiticity(self, grid64):
        rho = SpinorDensity.from_pure(spin_coherent_state(grid64, [0, 1, 0]), grid64)
        assert abs(rho.trace() - 1.0) < 1e-10
        assert rho.hermiticity_residual() < 1e-12

    def test_positive_semidefinite(self, grid128, rng):
        rho = random_rank2_density(grid128, rng)
        assert np.linalg.eigvalsh(rho.to_matrix()).min() * grid128.dx >= -1e-10

    def test_factors_reconstruct(self, grid128, rng):
        rho = random_rank2_density(grid128, rng)
        probs, fields = SpinorDensity(grid128, rho.blocks).factors
        assert len(probs) == 2
        rebuilt = SpinorDensity.from_mixture(probs, fields, grid128)
        assert np.max(np.abs(rebuilt.blocks - rho.blocks)) < 1e-12

    @pytest.mark.parametrize("rank", [1, 3])
    def test_factors_match_full_solve(self, grid64, rng, rank):
        # a density built from blocks keeps exactly the eigenpairs a full eigh keeps
        psis = [spinor_product_state(grid64, rng.normal(size=3) + 1j * rng.normal(size=3),
                                     random_band_limited_state(grid64, rng))
                for _ in range(rank)]
        rho = SpinorDensity.from_mixture(rng.dirichlet(np.ones(rank)), psis, grid64)
        evals, evecs = np.linalg.eigh(rho.to_matrix())
        keep = evals * grid64.dx > 1e-12
        full_probs = evals[keep] * grid64.dx
        full_fields = evecs[:, keep].T.reshape(-1, 3, grid64.n) / np.sqrt(grid64.dx)
        dense = SpinorDensity(grid64, rho.blocks)
        probs, fields = dense.factors
        assert len(probs) == rank
        assert np.max(np.abs(probs - full_probs)) < 1e-14
        assemble = "k,kai,kbj->abij"
        expected = np.einsum(assemble, full_probs, full_fields, full_fields.conj())
        got = np.einsum(assemble, probs, fields, fields.conj())
        assert np.max(np.abs(got - expected)) < 1e-13
        oracle = evolve_oracle(dense, EMFieldConfig(phi=(0.0, 0.0, 0.5)),
                               PropagatorConfig(dt=0.01, n_steps=1))
        assert np.max(np.abs(oracle.states[0].blocks - expected)) < 1e-13

    def test_mixture_keeps_its_factors(self, grid64, rng):
        probs = rng.dirichlet(np.ones(3))
        psis = [spin_coherent_state(grid64, rng.normal(size=3), q0=q0) for q0 in (-1, 0, 1)]
        rho = SpinorDensity.from_mixture(probs, psis, grid64)
        assert np.array_equal(rho.factors[0], probs)
        assert np.array_equal(rho.factors[1], np.stack(psis))
        assert abs(rho.trace() - SpinorDensity(grid64, rho.blocks).trace()) < 1e-14

    def test_non_hermitian_density_rejected(self, rng):
        # an eigensolver reads one triangle only, so it would factor another state
        grid = PhaseSpaceGrid.balanced(32)
        psi = spinor_product_state(grid, [1.0, 1j], gaussian_packet(grid))
        blocks = SpinorDensity.from_pure(psi, grid).blocks
        blocks[0, 1] += 4e-3 * rng.normal(size=(32, 32))
        bad = SpinorDensity(grid, blocks)
        assert bad.hermiticity_residual() > 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            to_vector(bad, random_frame(0.5, seed=3), "wigner")
        with pytest.raises(ValueError, match="not Hermitian"):
            evolve_oracle(bad, EMFieldConfig(spin=0.5), PropagatorConfig(dt=0.01, n_steps=1))

    def test_matrix_round_trip(self, grid128, rng):
        # to_matrix rows and columns are indexed (a, i): spin first, then x
        rho = random_rank2_density(grid128, rng)
        back = np.transpose(rho.to_matrix().reshape(3, 128, 3, 128), (0, 2, 1, 3))
        assert np.max(np.abs(back - rho.blocks)) == 0.0


class TestStateInputs:
    """Degenerate inputs raise ValueError before any arithmetic can warn."""

    @pytest.mark.parametrize("kwargs", [
        {"sigma": 0.0}, {"sigma": np.nan}, {"sigma": -1.0}, {"sigma": np.inf},
        {"q0": np.nan}, {"p0": np.inf}])
    def test_gaussian_packet(self, grid64, kwargs):
        with pytest.raises(ValueError, match="finite"):
            gaussian_packet(grid64, **kwargs)

    @pytest.mark.parametrize("chi", [[0, 0, 0], [1, np.nan, 0], [np.inf, 0, 0]])
    def test_spinor_product_state(self, grid64, chi):
        with pytest.raises(ValueError, match="spin vector"):
            spinor_product_state(grid64, chi, gaussian_packet(grid64))

    @pytest.mark.parametrize("direction", [[0, 0, 0], [0, np.nan, 1], [0, 0, -np.inf]])
    def test_spin_coherent_state(self, grid64, direction):
        with pytest.raises(ValueError, match="spin direction"):
            spin_coherent_state(grid64, direction)


class TestToVector:
    def test_pure_z_state_optical_integrals(self, frame, grid128):
        psi = spinor_product_state(grid128, [1, 0, 0], oscillator_eigenstate(grid128, 0))
        rho = SpinorDensity.from_pure(psi, grid128)
        dom = TomogramDomain.optical_default(grid128, 64)
        v = to_vector(rho, frame, "optical", dom)
        ints = v.component_integrals()
        assert abs(ints[0] - 1.0) < 1e-10
        assert abs(ints[1]) < 1e-10 and abs(ints[2]) < 1e-10
        # overlap weight of the x-projector on the z-polarized state
        assert abs(ints[3] - 0.25) < 1e-8

    def test_maximally_mixed_spin(self, frame, grid128):
        psis = [spinor_product_state(grid128, e, gaussian_packet(grid128))
                for e in np.eye(3)]
        rho = SpinorDensity.from_mixture([1 / 3] * 3, psis, grid128)
        v = to_vector(rho, frame, "optical", TomogramDomain.optical_default(grid128, 64))
        assert np.max(np.abs(v.component_integrals()[:3] - 1 / 3)) < 1e-10

    def test_wigner_components_real(self, frame, grid128, rng):
        v = to_vector(random_rank2_density(grid128, rng), frame, "wigner")
        assert np.max(v.imag_residues) < 1e-12

    def test_linearity(self, frame, grid128, rng):
        rho1 = random_rank2_density(grid128, rng)
        rho2 = random_rank2_density(grid128, rng)
        lam = rng.uniform(0.2, 0.8)
        mix = SpinorDensity(grid128, lam * rho1.blocks + (1 - lam) * rho2.blocks)
        v_mix = to_vector(mix, frame, "wigner")
        v_parts = (lam * to_vector(rho1, frame, "wigner").components
                   + (1 - lam) * to_vector(rho2, frame, "wigner").components)
        assert np.max(np.abs(v_mix.components - v_parts)) < 1e-10

    def test_spin_marginal_consistency(self, frame, grid128, rng):
        rho = random_rank2_density(grid128, rng)
        dom = TomogramDomain.optical_default(grid128, 32)
        v = to_vector(rho, frame, "optical", dom)
        # the spin-traced kernel sum_a rho_aa in factor form: weight p_r on psi_ra
        probs, fields = rho.factors
        w_scalar = _wigner_of_factors(np.repeat(probs, 3)[None],
                                      fields.reshape(-1, grid128.n), grid128).real[0]
        scalar_tom = radon_slices(w_scalar[None], grid128, dom.thetas, dom.x)[0]
        assert np.max(np.abs(v.components[:3].sum(axis=0) - scalar_tom)) < 1e-10

    def test_product_state_factorizes(self, frame, grid64):
        chi = np.array([0.6, 0.8j, 0.2 + 0.1j])
        chi /= np.linalg.norm(chi)
        psi_space = gaussian_packet(grid64, 0.4, -0.3, 1.1)
        rho = SpinorDensity.from_pure(spinor_product_state(grid64, chi, psi_space), grid64)
        v = to_vector(rho, frame, "wigner")
        spin_weights = frame.weights(np.outer(chi, chi.conj())).real
        w_scalar = _wigner_of_factors(np.ones((1, 1)), psi_space[None], grid64).real[0]
        for j in range(9):
            assert np.max(np.abs(v.components[j] - spin_weights[j] * w_scalar)) < 1e-10

    def test_dimension_mismatch(self, grid64):
        fr_half = random_frame(0.5, seed=0)
        rho = SpinorDensity.from_pure(spin_coherent_state(grid64, [0, 0, 1]), grid64)
        with pytest.raises(ValueError, match="dimension"):
            to_vector(rho, fr_half, "wigner")

    def test_optical_requires_domain(self, frame, grid64):
        rho = SpinorDensity.from_pure(spin_coherent_state(grid64, [0, 0, 1]), grid64)
        with pytest.raises(ValueError, match="domain"):
            to_vector(rho, frame, "optical")

    def test_symplectic_components(self, frame, grid64):
        rho = SpinorDensity.from_pure(spin_coherent_state(grid64, [0, 0, 1]), grid64)
        dom = TomogramDomain.symplectic_grid(grid64, [0.8, 1.0, 1.2], [0.7, 0.9])
        v = to_vector(rho, frame, "symplectic-section", dom)
        assert v.components.shape == (9, 3, 2, 64)
        # every (mu, nu) slice of the first three components sums to unity
        sums = v.components[:3].sum(axis=-1) * dom.dx
        assert np.max(np.abs(sums.sum(axis=0) - 1.0)) < 1e-8


class TestTomogramsFromFactors:
    """Optical and symplectic portraits rotate the state's factors and build
    no Wigner stack; they match the Wigner-input tomogram maps."""

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_match_wigner_input_maps(self, grid128, rng, monkeypatch, s):
        fr = build_spin1_frame() if s == 1.0 else random_frame(s, seed=9)
        d = fr.dim
        psis = [spinor_product_state(grid128, rng.normal(size=d) + 1j * rng.normal(size=d),
                                     gaussian_packet(grid128, *rng.uniform(-1, 1, 2), 0.8))
                for _ in range(2)]
        rho = SpinorDensity.from_mixture(rng.dirichlet(np.ones(2)), psis, grid128)
        wigner = to_vector(rho, fr, "wigner")
        opt = TomogramDomain.optical_default(grid128, 32)
        sym = default_domain("symplectic-section", grid128)
        expected = {
            "optical": (opt, radon_slices(wigner.components, grid128, opt.thetas, opt.x)),
            "symplectic-section": (sym, symplectic_profiles(wigner.components, grid128,
                                                            sym.mu, sym.nu, sym.x)),
        }

        def refuse(*args, **kwargs):
            raise AssertionError("Wigner stack built for a tomogram")

        monkeypatch.setattr(vector_portrait, "_wigner_of_factors", refuse)
        for rep, (dom, tomograms) in expected.items():
            v = to_vector(rho, fr, rep, dom)
            assert np.max(np.abs(v.components - tomograms)) <= 1e-12
            assert np.array_equal(v.imag_residues, wigner.imag_residues)


class TestDensePath:
    """A density built from blocks factors itself by one eigensolve; a
    factored one (from_pure, from_mixture, oracle frames) needs none."""

    @pytest.fixture(scope="class")
    def case(self):
        grid = PhaseSpaceGrid.centered(128, 16.0)
        fr = random_frame(1.5, seed=4)
        rng = np.random.default_rng(17)
        psis = [spinor_product_state(grid, rng.normal(size=4) + 1j * rng.normal(size=4),
                                     gaussian_packet(grid, q0, p0, 0.9))
                for q0, p0 in ((-1.0, 0.5), (0.3, -0.8), (1.2, 0.2))]
        rho = SpinorDensity.from_mixture(rng.dirichlet(np.ones(3)), psis, grid)
        return grid, fr, rho

    @pytest.mark.parametrize("rep", REPRESENTATIONS)
    def test_to_vector_factored_equals_dense(self, case, rep):
        grid, fr, rho = case
        dom = None if rep in ("wigner", "husimi") else default_domain(rep, grid)
        factored = to_vector(rho, fr, rep, dom)
        dense = to_vector(SpinorDensity(grid, rho.blocks), fr, rep, dom)
        assert np.max(np.abs(factored.components - dense.components)) <= 1e-13

    def test_oracle_factored_equals_dense(self, case):
        grid, _, rho = case
        fld = EMFieldConfig(phi=(0.0, 0.1, 0.5), b_field=[0.3, 0.0, 1.0], spin=1.5)
        prop = PropagatorConfig(dt=0.01, n_steps=4, save_every=2)
        factored = evolve_oracle(rho, fld, prop)
        dense = evolve_oracle(SpinorDensity(grid, rho.blocks), fld, prop)
        for a, b in zip(factored.states, dense.states):
            assert np.max(np.abs(a.blocks - b.blocks)) <= 1e-13

    def test_factored_states_need_no_eigensolve(self, grid128, rng, monkeypatch):
        fr = random_frame(1.0, seed=7)
        doms = {rep: None if rep in ("wigner", "husimi") else default_domain(rep, grid128)
                for rep in REPRESENTATIONS}
        rho = random_rank2_density(grid128, rng)

        eigh = np.linalg.eigh

        def refuse(a, *args, **kwargs):
            # the oracle's spin factor diagonalises the 3 x 3 Zeeman matrix;
            # anything larger would be the state
            if np.shape(a)[-1] > 3:
                raise AssertionError("eigensolve on a factored state")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(scipy.linalg, "eigh", refuse)
        traj = evolve_oracle(rho, EMFieldConfig(phi=(0.0, 0.0, 0.5), b_field=[0, 0, 1.0]),
                             PropagatorConfig(dt=0.01, n_steps=2))
        for state in (rho, traj.states[-1]):
            for rep, dom in doms.items():
                assert to_vector(state, fr, rep, dom).components.shape[0] == 9


class TestFromVector:
    def test_wigner_round_trip(self, frame, grid128, rng):
        rho = random_rank2_density(grid128, rng)
        back = from_vector(to_vector(rho, frame, "wigner"), frame)
        assert np.max(np.abs(back.blocks - rho.blocks)) < 1e-10

    def test_round_trip_with_random_frame(self, grid128, rng):
        fr = random_frame(1.0, seed=5)
        rho = random_rank2_density(grid128, rng)
        back = from_vector(to_vector(rho, fr, "wigner"), fr)
        assert np.max(np.abs(back.blocks - rho.blocks)) < 1e-10

    def test_optical_route_fidelity(self, frame, grid128):
        psi = spin_coherent_state(grid128, [1, 1, 1], q0=0.5, p0=0.3)
        rho = SpinorDensity.from_pure(psi, grid128)
        v = to_vector(rho, frame, "optical", TomogramDomain.optical_default(grid128, 64))
        back = from_vector(v, frame)
        assert abs(1.0 - fidelity_with_pure(back, psi)) <= 1e-13

    def test_fidelity_from_factors(self, grid128, rng):
        # a rank-3 mixture read from its factors and from its dense blocks;
        # the factor form builds no blocks
        probs = rng.dirichlet(np.ones(3))
        psis = [spinor_product_state(grid128, rng.normal(size=3) + 1j * rng.normal(size=3),
                                     random_band_limited_state(grid128, rng))
                for _ in range(3)]
        psi = psis[0]
        factored = SpinorDensity.from_mixture(probs, psis, grid128)
        dense = SpinorDensity(grid128, SpinorDensity.from_mixture(probs, psis, grid128).blocks)
        fid = fidelity_with_pure(factored, psi)
        assert "blocks" not in vars(factored)
        assert abs(fid - fidelity_with_pure(dense, psi)) <= 1e-15
        assert probs[0] <= fid <= 1.0

    def test_zero_distribution(self, frame, grid64):
        rho = SpinorDensity.from_pure(spin_coherent_state(grid64, [0, 0, 1]), grid64)
        v = to_vector(rho, frame, "wigner")
        zeroed = type(v)(representation="wigner", components=np.zeros_like(v.components),
                         frame=frame, grid=grid64)
        back = from_vector(zeroed, frame)
        assert np.max(np.abs(back.blocks)) == 0.0

    def test_husimi_inverse_rejected(self, frame, grid64):
        rho = SpinorDensity.from_pure(spin_coherent_state(grid64, [0, 0, 1]), grid64)
        v = to_vector(rho, frame, "husimi")
        with pytest.raises(UnsupportedInverseError):
            from_vector(v, frame)


class TestAudit:
    def test_valid_state_passes(self, frame, grid128, rng):
        rep = audit(to_vector(random_rank2_density(grid128, rng), frame, "wigner"))
        assert rep.passed
        assert abs(rep.normalization_sum - 1.0) < 1e-8
        assert rep.realness_ok

    def test_wigner_negativity_expected_not_failure(self, frame, grid128):
        psi = spinor_product_state(grid128, [1, 0, 0], oscillator_eigenstate(grid128, 1))
        rho = SpinorDensity.from_pure(psi, grid128)
        rep = audit(to_vector(rho, frame, "wigner"))
        assert rep.min_values[0] < -0.25          # genuinely negative component
        assert rep.nonnegativity_ok is None
        assert any("expected" in note for note in rep.notes)
        assert rep.passed

    def test_husimi_nonnegative(self, frame, grid128):
        psi = spinor_product_state(grid128, [1, 0, 0], oscillator_eigenstate(grid128, 1))
        rho = SpinorDensity.from_pure(psi, grid128)
        rep = audit(to_vector(rho, frame, "husimi"))
        assert rep.nonnegativity_ok
        assert np.all(rep.min_values >= -1e-9)
        assert rep.passed

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_normalization_on_random_frames(self, grid128, s, rng):
        # the total trace is sum_j Tr(D_j) * integral(w_j) for every frame,
        # not the sum of the first three integrals (the paper frame's z block)
        fr = random_frame(s, seed=21)
        d = fr.dim
        psis = [spinor_product_state(grid128, rng.normal(size=d) + 1j * rng.normal(size=d),
                                     gaussian_packet(grid128, q0, p0, 0.8))
                for q0, p0 in ((0.5, -0.3), (-1.0, 0.8))]
        rho = SpinorDensity.from_mixture([0.6, 0.4], psis, grid128)
        for rep, dom in (("wigner", None),
                         ("optical", TomogramDomain.optical_default(grid128, 32))):
            rep_ = audit(to_vector(rho, fr, rep, dom))
            assert abs(rep_.normalization_sum - 1.0) < 1e-8
            assert rep_.normalization_ok and rep_.passed

    def test_paper_frame_quantizer_traces(self, frame):
        assert np.max(np.abs(frame.quantizer_traces - [1, 1, 1, 0, 0, 0, 0, 0, 0])) < 1e-12

    def test_optical_audit_fields(self, frame, grid128, rng):
        dom = TomogramDomain.optical_default(grid128, 32)
        rep = audit(to_vector(random_rank2_density(grid128, rng), frame, "optical", dom))
        assert rep.integral_bounds_ok and rep.passed
        assert rep.as_dict()["passed"] == rep.passed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_six_levels_flagged_on_n64(self, frame, grid64, seed):
        # six oscillator levels reach the band edge of balanced(64): the
        # Wigner transform's imaginary residue is ~1e-8, and the audit says so
        rho = rank2_density(grid64, np.random.default_rng(seed))
        rep = audit(to_vector(rho, frame, "wigner"))
        assert np.max(rep.imag_residues) > 1e-9
        assert not rep.realness_ok and not rep.passed

    def test_six_levels_stay_flagged_under_evolution(self, frame, grid64):
        # frame 0 of a vector trajectory carries the state's residue, and the
        # later frames keep the flag
        rho = rank2_density(grid64, np.random.default_rng(0))
        v0 = to_vector(rho, frame, "wigner")
        traj = evolve_wigner_vector(v0, EMFieldConfig(phi=(0.0, 0.0, 0.5), spin=1.0),
                                    PropagatorConfig(dt=0.01, n_steps=20,
                                                     scheme="wigner-spectral", save_every=10))
        assert np.array_equal(traj.frames[0].imag_residues, v0.imag_residues)
        assert not any(audit(f).realness_ok for f in traj.frames)
