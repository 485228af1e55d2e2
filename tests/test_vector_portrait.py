import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg

from spintomo import (
    EMFieldConfig,
    PhaseSpaceGrid,
    PropagatorConfig,
    ScalarField,
    SpinorDensity,
    TomogramDomain,
    UndersampledDomainError,
    UnsupportedInverseError,
    VectorDistribution,
    audit,
    build_spin1_frame,
    evolve_oracle,
    evolve_wigner_vector,
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
)
from spintomo import vector_portrait
from spintomo.phase_space import (
    _kernel_of_wigner,
    _wigner_of_factors,
    radon_slices,
    symplectic_profiles,
)
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

    @pytest.mark.parametrize("rank", [1, 3, pytest.param(None, id="full-indefinite")])
    def test_factors_match_full_solve(self, grid64, rng, rank):
        # a density built from blocks keeps exactly the eigenpairs a full eigh
        # keeps; rank None adds Hermitian noise of 1e-9 to a rank-2 mixture,
        # which leaves every eigenvalue above the cut, of either sign
        psis = [spinor_product_state(grid64, rng.normal(size=3) + 1j * rng.normal(size=3),
                                     random_band_limited_state(grid64, rng))
                for _ in range(rank or 2)]
        blocks = SpinorDensity.from_mixture(rng.dirichlet(np.ones(len(psis))), psis,
                                            grid64).blocks
        if rank is None:
            noise = 1e-9 * (rng.normal(size=(192, 192)) + 1j * rng.normal(size=(192, 192)))
            blocks = blocks + (noise + noise.conj().T).reshape(3, 64, 3, 64).transpose(0, 2, 1, 3)
        dense = SpinorDensity(grid64, blocks)
        evals, evecs = np.linalg.eigh(dense.to_matrix())
        keep = np.abs(evals * grid64.dx) > 1e-12
        full_probs = evals[keep] * grid64.dx
        full_fields = evecs[:, keep].T.reshape(-1, 3, grid64.n) / np.sqrt(grid64.dx)
        probs, fields = dense.factors
        assert len(probs) == (rank or 3 * grid64.n)
        assert rank or np.sum(probs < 0) > 0
        assert np.max(np.abs(probs - full_probs)) < 1e-14
        assemble = "k,kai,kbj->abij"
        expected = np.einsum(assemble, full_probs, full_fields, full_fields.conj())
        got = np.einsum(assemble, probs, fields, fields.conj())
        assert np.max(np.abs(got - expected)) < 1e-13
        oracle = evolve_oracle(dense, EMFieldConfig(phi=(0.0, 0.0, 0.5)),
                               PropagatorConfig(dt=0.01, n_steps=1))
        assert np.max(np.abs(oracle.states[0].blocks - expected)) < 1e-13

    @pytest.mark.parametrize("probs, fields", [
        ([1.0], (1, 3, 128)),            # another grid's packet: a (9, 64, 64) portrait,
                                         # and a broadcast error in evolve_oracle
        ([0.5, 0.5], (1, 3, 64)),        # a weight without its field was dropped
        ([1.0], (3, 64)),                # a spinor without its element axis
        ([[1.0]], (1, 3, 64)),           # weights not 1-D
    ], ids=["grid", "weights", "fields-ndim", "weights-ndim"])
    def test_mixture_shapes_checked(self, grid64, probs, fields):
        with pytest.raises(ValueError, match="are needed"):
            SpinorDensity.from_mixture(probs, np.ones(fields), grid64)

    @pytest.mark.parametrize("shape", [(3, 3, 128, 128), (3, 2, 64, 64), (3, 3, 64, 32),
                                       (3, 64, 64), (192, 192)],
                             ids=["grid", "spin", "square", "ndim", "matrix"])
    def test_blocks_shape_checked(self, grid64, shape):
        with pytest.raises(ValueError, match="is needed"):
            SpinorDensity(grid64, np.zeros(shape))

    def test_negative_weights_kept(self, grid64):
        # an indefinite reconstruction returns negative weights
        psis = [spin_coherent_state(grid64, [0, 0, 1], q0=q0) for q0 in (-1.0, 1.0)]
        rho = SpinorDensity.from_mixture([1.5, -0.5], psis, grid64)
        assert np.array_equal(rho.factors[0], [1.5, -0.5])

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
        w_scalar = _wigner_of_factors(
            np.repeat(probs, 3)[None], fields.reshape(-1, grid128.n), grid128).real[0]
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_rejected(self, frame, grid64, bad):
        psi = spin_coherent_state(grid64, [0, 0, 1])
        psi[1, 7] = bad
        for rho in (SpinorDensity.from_pure(psi, grid64),
                    SpinorDensity.from_mixture([bad], [spin_coherent_state(grid64, [0, 0, 1])],
                                               grid64)):
            with pytest.raises(ValueError, match="non-finite"):
                to_vector(rho, frame, "wigner")

    def test_optical_requires_domain(self, frame, grid64):
        rho = SpinorDensity.from_pure(spin_coherent_state(grid64, [0, 0, 1]), grid64)
        with pytest.raises(ValueError, match="domain"):
            to_vector(rho, frame, "optical")

    @pytest.mark.parametrize("representation", ["wigner", "husimi"])
    def test_grid_portrait_keeps_no_domain(self, frame, grid64, representation):
        # a portrait that samples the grid drops a tomogram domain it is given,
        # whether it comes from to_vector or is built directly
        rho = SpinorDensity.from_pure(spin_coherent_state(grid64, [0, 0, 1]), grid64)
        dom = TomogramDomain.optical_default(grid64, 32)
        v = to_vector(rho, frame, representation, dom)
        assert v.domain is None
        assert VectorDistribution(representation, v.components, frame, grid64,
                                  domain=dom).domain is None
        assert to_vector(rho, frame, "optical", dom).domain is dom

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


def entangled_spinor(grid, dim, rng):
    """Normalized spinor whose 2s+1 rows are independent random_band_limited_state
    fields with random complex amplitudes: Schmidt rank 2s+1."""
    psi = np.stack([random_band_limited_state(grid, rng) for _ in range(dim)])
    psi *= (rng.normal(size=dim) + 1j * rng.normal(size=dim))[:, None]
    return psi / np.sqrt(np.sum(np.abs(psi)**2) * grid.dx)


class TestSchmidtRank:
    """Elements of Schmidt rank above 1, which no product state exercises:
    each portrait against the Wigner-input maps and the dense path."""

    @pytest.fixture(scope="class")
    def grid(self):
        return PhaseSpaceGrid.balanced(128)

    @staticmethod
    def references(rho, fr, grid):
        """Each representation from the kernels K_j = Tr_spin(U_j rho) alone:
        the Wigner stack checked by its inverse map, the tomograms and the
        Husimi function by the Wigner-input maps."""
        wigner = to_vector(rho, fr, "wigner").components
        kernels = np.einsum("ja,abxy,jb->jxy", fr.vectors.conj(), rho.blocks, fr.vectors)
        assert np.max(np.abs(_kernel_of_wigner(wigner, grid) - kernels)) <= 1e-13
        opt = TomogramDomain.optical_default(grid, 32)
        sym = default_domain("symplectic-section", grid)
        return {
            "wigner": (None, wigner),
            "husimi": (None, np.stack([husimi_from_wigner(ScalarField(grid, w, "wigner")).values
                                       for w in wigner])),
            "optical": (opt, radon_slices(wigner, grid, opt.thetas, opt.x)),
            "symplectic-section": (sym, symplectic_profiles(wigner, grid, sym.mu, sym.nu,
                                                            sym.x)),
        }

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_entangled_mixture_matches_references(self, grid, s, rank):
        fr = build_spin1_frame() if s == 1.0 else random_frame(s, seed=11)
        rng = np.random.default_rng([int(2 * s), rank])
        rho = SpinorDensity.from_mixture(
            rng.dirichlet(np.ones(rank)),
            [entangled_spinor(grid, fr.dim, rng) for _ in range(rank)], grid)
        _, amps, mix = vector_portrait._spin_contracted(*rho.factors, fr)
        assert len(amps) == fr.dim * rank and mix is not None
        dense = SpinorDensity(grid, rho.blocks)
        for rep, (dom, ref) in self.references(rho, fr, grid).items():
            for state in (rho, dense):
                got = to_vector(state, fr, rep, dom).components
                assert np.max(np.abs(got - ref)) <= 1e-13, rep

    def test_small_schmidt_value_kept(self, grid, rng):
        # chi1 (x) phi1 + 1e-9 chi2 (x) phi2: the second Schmidt value is 1e-9
        # of the first, far above the rank cut, and its cross terms with the
        # first pair move the portraits by about 1e-10
        fr = build_spin1_frame()
        chis = np.linalg.qr(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))[0]
        phi1 = random_band_limited_state(grid, rng)
        phi2 = random_band_limited_state(grid, rng)
        phi2 -= phi1 * np.sum(phi1.conj() * phi2) * grid.dx
        phi2 /= np.sqrt(np.sum(np.abs(phi2)**2) * grid.dx)
        lead = np.outer(chis[:, 0], phi1)
        psi = lead + 1e-9 * np.outer(chis[:, 1], phi2)
        other = spinor_product_state(grid, rng.normal(size=3) + 1j * rng.normal(size=3),
                                     gaussian_packet(grid, 0.5, -0.3, 0.8))
        probs = [0.6, 0.4]
        rho = SpinorDensity.from_mixture(probs, [psi, other], grid)
        _, amps, _ = vector_portrait._spin_contracted(*rho.factors, fr)
        assert len(amps) == 3            # two Schmidt pairs, then one
        cut = SpinorDensity.from_mixture(probs, [lead, other], grid)
        for rep, (dom, ref) in self.references(rho, fr, grid).items():
            got = to_vector(rho, fr, rep, dom).components
            assert np.max(np.abs(got - ref)) <= 1e-13, rep
            assert np.max(np.abs(to_vector(cut, fr, rep, dom).components - ref)) > 1e-11, rep

    @pytest.mark.parametrize("rep", REPRESENTATIONS)
    def test_zero_elements_add_nothing(self, grid64, rep):
        # a zero element has Schmidt rank 0; a zero density has no elements
        fr = build_spin1_frame()
        dom = None if rep in ("wigner", "husimi") else default_domain(rep, grid64)
        psi = spin_coherent_state(grid64, [0.3, 0.2, 1.0], q0=0.4)
        alone = to_vector(SpinorDensity.from_pure(psi, grid64), fr, rep, dom).components
        padded = SpinorDensity.from_mixture([1.0, 0.5], [psi, np.zeros_like(psi)], grid64)
        assert np.array_equal(to_vector(padded, fr, rep, dom).components, alone)
        zero = SpinorDensity(grid64, np.zeros((3, 3, 64, 64)))
        v = to_vector(zero, fr, rep, dom)
        assert v.components.shape == alone.shape and not np.any(v.components)


class TestFactors:
    """A portrait keeps the factors its components are formed from:
    components = mixing @ functions."""

    @staticmethod
    def state(case, grid, fr, rng):
        """(density, R): one product state, a rank-3 product mixture or one
        entangled element (Schmidt rank 2s+1), and its function count."""
        packets = [gaussian_packet(grid, q0, p0, 0.8)
                   for q0, p0 in ((-0.9, 0.4), (0.7, -0.5), (0.1, 0.9))]
        if case == "product":
            chi = rng.normal(size=fr.dim) + 1j * rng.normal(size=fr.dim)
            psi = spinor_product_state(grid, chi / np.linalg.norm(chi), packets[0])
            return SpinorDensity.from_pure(psi, grid), 1
        if case == "mixture":
            chis = rng.normal(size=(3, fr.dim)) + 1j * rng.normal(size=(3, fr.dim))
            psis = [spinor_product_state(grid, chi / np.linalg.norm(chi), phi)
                    for chi, phi in zip(chis, packets)]
            return SpinorDensity.from_mixture([0.5, 0.3, 0.2], psis, grid), 3
        return SpinorDensity.from_pure(entangled_spinor(grid, fr.dim, rng), grid), fr.size

    @pytest.mark.parametrize("case", ["product", "mixture", "entangled"])
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_factors_form_the_components(self, grid64, s, case):
        fr = build_spin1_frame() if s == 1.0 else random_frame(s, seed=11)
        rng = np.random.default_rng([int(2 * s), len(case)])
        rho, n_functions = self.state(case, grid64, fr, rng)
        dense = SpinorDensity(grid64, rho.blocks)
        for rep in REPRESENTATIONS:
            dom = None if rep in ("wigner", "husimi") else default_domain(rep, grid64)
            v = to_vector(rho, fr, rep, dom)
            assert v.mixing.shape == (fr.size, n_functions)
            assert v.functions.shape == (n_functions,) + v.components.shape[1:]
            if n_functions == fr.size:
                assert np.array_equal(v.mixing, np.eye(fr.size))
            formed = np.tensordot(v.mixing, v.functions, 1)
            scale = np.max(np.abs(v.components))
            assert np.max(np.abs(formed - v.components)) <= 1e-15 * scale, rep
            # the dense path finds other factors for the same components
            ref = to_vector(dense, fr, rep, dom).components
            assert np.max(np.abs(v.components - ref)) <= 1e-13, rep

    def test_replace_drops_the_factors(self, frame, grid64):
        psi = spin_coherent_state(grid64, [0.3, 0.2, 1.0], q0=0.4)
        v = to_vector(SpinorDensity.from_pure(psi, grid64), frame, "wigner")
        assert v.mixing.shape == (9, 1)
        zero = dataclasses.replace(v, components=np.zeros_like(v.components))
        assert np.array_equal(zero.mixing, np.eye(9)) and zero.functions is zero.components
        assert not np.any(np.tensordot(zero.mixing, zero.functions, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("rep", ["wigner", "optical"])
    def test_non_finite_portrait_refused(self, frame, grid64, rep, bad):
        # before the check the Wigner route turned NaN components into NaN
        # blocks without an error
        dom = TomogramDomain.optical_default(grid64, 32) if rep == "optical" else None
        psi = spin_coherent_state(grid64, [0.3, 0.2, 1.0], q0=0.4)
        v = to_vector(SpinorDensity.from_pure(psi, grid64), frame, rep, dom)
        with pytest.raises(ValueError, match="non-finite components or factors"):
            dataclasses.replace(v, components=np.full_like(v.components, bad))
        one_bad = v.components.copy()
        one_bad[4].flat[7] = bad
        with pytest.raises(ValueError, match="non-finite components or factors"):
            dataclasses.replace(v, components=one_bad)
        for mixing, functions in ((np.full_like(v.mixing, bad), v.functions),
                                  (v.mixing, np.full_like(v.functions, bad))):
            with pytest.raises(ValueError, match="non-finite components or factors"):
                VectorDistribution(rep, v.components, frame, grid64, dom,
                                   factors=(mixing, functions))

    def test_component_count_checked(self, frame, grid64):
        with pytest.raises(ValueError, match="components for a frame of 9"):
            VectorDistribution("wigner", np.zeros((4, 64, 64)), frame, grid64)
        with pytest.raises(ValueError, match="components for a frame of 9"):
            VectorDistribution("wigner", np.zeros(()), frame, grid64)

    @pytest.mark.parametrize("rep, shape, domain, message", [
        ("wigner", (9, 64, 32), None, "do not sample"),               # not the grid's
        ("husimi", (9, 128, 128), None, "do not sample"),             # another grid's
        ("wigner", (9,), None, "do not sample"),                      # 1-D: AxisError
        ("optical", (9, 32, 64), None, "needs a domain"),             # audit: AttributeError
        ("optical", (9, 3, 2, 64), "symplectic", "needs a domain"),   # audited as passed
        ("optical", (9, 5, 64), "optical", "do not sample"),          # 5 of 32 angles
        ("symplectic-section", (9, 3, 2, 64), None, "needs a domain"),
        ("symplectic-section", (9, 2, 3, 64), "symplectic", "do not sample"),
    ], ids=["wigner-q", "husimi-grid", "wigner-1d", "optical-none", "optical-symplectic",
            "optical-angles", "symplectic-none", "symplectic-mesh"])
    def test_samples_checked(self, frame, grid64, rep, shape, domain, message):
        # components must sample the portrait's grid (wigner, husimi) or its
        # domain, and a tomographic portrait needs a domain of its kind
        dom = {None: None, "optical": TomogramDomain.optical_default(grid64, 32),
               "symplectic": TomogramDomain.symplectic_grid(grid64, [0.8, 1.0, 1.2],
                                                            [0.7, 0.9])}[domain]
        with pytest.raises(ValueError, match=message):
            VectorDistribution(rep, np.zeros(shape), frame, grid64, dom)

    @pytest.mark.parametrize("mixing, functions", [
        (np.ones((9, 2)), np.zeros((3, 64, 64))),      # R disagrees
        (np.ones((8, 1)), np.zeros((1, 64, 64))),      # c disagrees
        (np.ones((9, 1)), np.zeros((1, 64, 32))),      # function shape disagrees
        (np.ones(9), np.zeros((64, 64))),              # mixing not a matrix
    ], ids=["rank", "components", "function-shape", "mixing-ndim"])
    def test_factor_shapes_checked(self, frame, grid64, mixing, functions):
        with pytest.raises(ValueError, match="do not form components"):
            VectorDistribution("wigner", np.zeros((9, 64, 64)), frame, grid64,
                               factors=(mixing, functions))

    @pytest.mark.parametrize("residues", [np.zeros(3), np.zeros((9, 1)), np.full(9, np.nan),
                                          np.r_[np.zeros(8), np.inf]],
                             ids=["count", "shape", "nan", "inf"])
    def test_imag_residues_checked(self, frame, grid64, residues):
        # before the check, three residues for nine components passed the
        # audit and failed evolve_wigner_vector with a bare broadcast error
        psi = spin_coherent_state(grid64, [0.3, 0.2, 1.0], q0=0.4)
        v = to_vector(SpinorDensity.from_pure(psi, grid64), frame, "wigner")
        with pytest.raises(ValueError, match=rf"imag_residues of shape \({len(residues)},.*"
                                             "for 9 components"):
            dataclasses.replace(v, imag_residues=residues)
        assert dataclasses.replace(v, imag_residues=np.zeros(9)).imag_residues.shape == (9,)
        assert dataclasses.replace(v, imag_residues=None).imag_residues is None


def product_mixture(grid, fr, rank, rng):
    """Mixture of rank spin (x) Gaussian product states, as in a tomography job."""
    psis = [spinor_product_state(grid, rng.normal(size=fr.dim) + 1j * rng.normal(size=fr.dim),
                                 gaussian_packet(grid, *rng.uniform(-1.5, 1.5, size=2),
                                                 rng.uniform(0.65, 0.85)))
            for _ in range(rank)]
    return SpinorDensity.from_mixture(rng.dirichlet(np.ones(rank)), psis, grid)


class TestFromVector:
    def test_wigner_round_trip(self, frame, grid128, rng):
        rho = random_rank2_density(grid128, rng)
        back = from_vector(to_vector(rho, frame, "wigner"), frame)
        assert np.max(np.abs(back.blocks - rho.blocks)) < 1e-10

    def test_wigner_route_factors_in_the_range(self, frame, grid128, rng, monkeypatch):
        # the dense blocks of a Wigner-route reconstruction factor in the range
        # of their rank-2 mixture: one numpy eigh of size 3 x 2, none of 3 n
        rho = random_rank2_density(grid128, rng)
        back = from_vector(to_vector(rho, frame, "wigner"), frame)
        sizes = []
        eigh = np.linalg.eigh

        def recorded(a, *args, **kwargs):
            sizes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        monkeypatch.setattr(scipy.linalg, "eigh", refuse)
        probs, fields = back.factors
        assert sizes == [(6, 6)]
        assert len(probs) == 2
        rebuilt = SpinorDensity.from_mixture(probs, fields, grid128)
        assert np.max(np.abs(rebuilt.blocks - rho.blocks)) < 1e-10

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

    @pytest.mark.parametrize("other", [(1.0, 3), (0.5, 0)], ids=["spin-1", "spin-1/2"])
    def test_other_frame_refused(self, frame, grid128, other):
        # without the check, random_frame(1.0, 3) gave this packet's blocks
        # 0.47 off and a spin-1/2 frame failed inside numpy with a bare
        # shape mismatch
        psi = spin_coherent_state(grid128, [1, 1, 1], q0=0.5, p0=0.3)
        v = to_vector(SpinorDensity.from_pure(psi, grid128), frame, "wigner")
        with pytest.raises(ValueError, match=r"frame \(spin .*portrait.*\(spin 1, 9"):
            from_vector(v, random_frame(*other))
        # a frame equal by value is the portrait's frame
        rebuilt = build_spin1_frame()
        assert rebuilt is not frame
        assert np.array_equal(from_vector(v, rebuilt).blocks, from_vector(v, frame).blocks)

    @pytest.mark.parametrize("rank", [1, 2, 3, "entangled"])
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_factored_equals_unfactored(self, grid128, s, rank):
        # from_vector inverts the R functions and mixes the dual frame; the
        # same portrait without its factors inverts its c components
        fr = build_spin1_frame() if s == 1.0 else random_frame(s, seed=11)
        rng = np.random.default_rng([int(2 * s), len(str(rank))])
        if rank == "entangled":
            rho = SpinorDensity.from_pure(entangled_spinor(grid128, fr.dim, rng), grid128)
        else:
            rho = product_mixture(grid128, fr, rank, rng)
        n_functions = fr.size if rank == "entangled" else rank
        opt = TomogramDomain.optical_default(grid128, 64)
        for rep, dom in (("wigner", None), ("optical", opt)):
            v = to_vector(rho, fr, rep, dom)
            bare = dataclasses.replace(v)
            assert v.mixing.shape == (fr.size, n_functions) and bare.mixing.shape == (fr.size,) * 2
            got, ref = from_vector(v, fr).blocks, from_vector(bare, fr).blocks
            if n_functions == fr.size:      # (I_c, components): the unchanged path
                assert np.array_equal(got, ref), rep
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), rep

    @pytest.mark.parametrize("s, rank", [(1.0, 1), (1.0, 2), (1.0, 3), (0.5, 2), (1.5, 3)])
    def test_tomography_job_inverts_the_functions(self, grid128, monkeypatch, s, rank):
        # a benchmark tomography job: four portraits of a product mixture,
        # their audits, and both routes back; each spatial inverse sees the
        # R functions, not the (2s+1)^2 components.  The optical route's
        # state is factored by one numpy eigensolve of size (2s+1) R, in the
        # range of the R functions' levels; no scipy eigensolver or Cholesky
        # factorisation runs.
        fr = build_spin1_frame() if s == 1.0 else random_frame(s, seed=7)
        rho = product_mixture(grid128, fr, rank, np.random.default_rng([rank, int(2 * s)]))
        seen = {"kernel": [], "optical": [], "eigh": []}

        def recording(name, inverse):
            def wrapped(stack, *args, **kwargs):
                seen[name].append(np.shape(stack))
                return inverse(stack, *args, **kwargs)
            return wrapped

        def refuse(*args, **kwargs):
            raise AssertionError("scipy eigensolver or Cholesky factorisation")

        monkeypatch.setattr(vector_portrait, "_kernel_of_wigner",
                            recording("kernel", vector_portrait._kernel_of_wigner))
        monkeypatch.setattr(vector_portrait, "invert_optical",
                            recording("optical", vector_portrait.invert_optical))
        monkeypatch.setattr(np.linalg, "eigh", recording("eigh", np.linalg.eigh))
        monkeypatch.setattr(scipy.linalg, "eigh", refuse)
        monkeypatch.setattr(scipy.linalg, "cholesky", refuse)
        doms = {"wigner": None, "optical": TomogramDomain.optical_default(grid128, 64),
                "symplectic-section": default_domain("symplectic-section", grid128),
                "husimi": None}
        portraits = {rep: to_vector(rho, fr, rep, dom) for rep, dom in doms.items()}
        assert all(audit(v).passed for v in portraits.values())
        back = {rep: from_vector(portraits[rep], fr) for rep in ("wigner", "optical")}
        eighs = seen.pop("eigh")
        assert eighs == [(fr.dim * rank, fr.dim * rank)]
        assert seen == {"kernel": [(rank, 128, 128)], "optical": [(rank, 64, 128)]}
        assert len(back["optical"].factors[0]) == rank
        for rep, rho_back in back.items():
            assert np.max(np.abs(rho_back.blocks - rho.blocks)) <= 1e-12, rep

    def test_unsupported_state_refused_alike(self, frame):
        # the roundtrip CLI's unsupported optical packet: its components and
        # its one function leave the same share unexplained
        grid = PhaseSpaceGrid.balanced(256, mass=4.0)
        psi = spin_coherent_state(grid, [1, 1, 1], q0=3.0, p0=2.0, sigma=1.0)
        v = to_vector(SpinorDensity.from_pure(psi, grid), frame, "optical",
                      TomogramDomain.optical_default(grid, 128))
        assert v.mixing.shape == (9, 1)
        shares = []
        for portrait in (v, dataclasses.replace(v)):
            with pytest.raises(UndersampledDomainError, match="unexplained") as err:
                from_vector(portrait, frame)
            shares.append(re.search(r"leave (\S+) of the tomogram", str(err.value)).group(1))
        assert shares[0] == shares[1]

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
