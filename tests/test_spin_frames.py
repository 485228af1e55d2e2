import dataclasses

import numpy as np
import pytest

from spintomo import (
    DegenerateFrameError,
    SpinFrame,
    build_frame,
    build_spin1_frame,
    eigenprojector,
    paper_quantizer_comparison,
    random_frame,
    solve_dual_frame,
    spin_eigenvector,
    spin_operators,
)
from spintomo.spin_frames import E_XY, SPIN1_FRAME_EIGENVALUES, gram_matrix

SQ2 = np.sqrt(2.0)

# displayed spin-1 matrices for the z-diagonal representation
S1_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / SQ2
S1_Y = 1j * np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]]) / SQ2
S1_Z = np.diag([1.0, 0.0, -1.0])


def vectors_residual(fr):
    """max |u_j u_j^H - U_j| over the frame's stored projector vectors."""
    outer = np.einsum("ja,jb->jab", fr.vectors, fr.vectors.conj())
    return float(np.max(np.abs(outer - fr.dequantizer)))


class TestSpinOperators:
    def test_spin1_matches_reference_matrices(self):
        sx, sy, sz = spin_operators(1.0)
        assert np.max(np.abs(sx - S1_X)) < 1e-15
        assert np.max(np.abs(sy - S1_Y)) < 1e-15
        assert np.max(np.abs(sz - S1_Z)) < 1e-15

    def test_commutator_algebra(self):
        sx, sy, sz = spin_operators(1.0)
        assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) < 1e-15

    def test_spin_half_is_half_pauli(self):
        sx, _, _ = spin_operators(0.5)
        assert np.allclose(sx, [[0, 0.5], [0.5, 0]], atol=1e-15)

    @pytest.mark.parametrize("s", [0.3, -1.0, 1.2])
    def test_rejects_non_half_integer(self, s):
        with pytest.raises(ValueError):
            spin_operators(s)

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_casimir(self, s):
        sx, sy, sz = spin_operators(s)
        total = sx @ sx + sy @ sy + sz @ sz
        assert np.allclose(total, s * (s + 1) * np.eye(int(2 * s + 1)), atol=1e-13)


class TestEigenprojector:
    def test_z_projector(self):
        p = eigenprojector(1.0, [0, 0, 1], 1.0)
        assert np.max(np.abs(p - np.diag([1.0, 0, 0]))) < 1e-14

    def test_x_projector_matches_reference(self):
        p = eigenprojector(1.0, [1, 0, 0], 1.0)
        ref = np.array([[1, SQ2, 1], [SQ2, 2, SQ2], [1, SQ2, 1]]) / 4.0
        assert np.max(np.abs(p - ref)) < 1e-14

    def test_xy_projector_recomputed_and_compared(self):
        # the published sixth matrix is checked against the recomputation,
        # with the discrepancy reported rather than assumed zero
        p = eigenprojector(1.0, E_XY, 1.0)
        printed = np.array(
            [[1, 1 - 1j, -1j], [1 + 1j, 2, 1 - 1j], [1j, 1 + 1j, 1]]) / 4.0
        diff = float(np.max(np.abs(p - printed)))
        print(f"xy(+1) projector vs printed matrix: max |diff| = {diff:.3e}")
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert abs(np.trace(p) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_projector_properties_random_direction(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        m = rng.choice([-1.0, 0.0, 1.0])
        p = eigenprojector(1.0, n, m)
        sx, sy, sz = spin_operators(1.0)
        ns = n[0] * sx + n[1] * sy + n[2] * sz
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert abs(np.trace(p) - 1.0) < 1e-12
        assert np.max(np.abs(ns @ p - m * p)) < 1e-12

    def test_projection_out_of_range(self):
        with pytest.raises(ValueError):
            eigenprojector(1.0, [0, 0, 1], 2.0)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            eigenprojector(1.0, [0, 0, 2.0], 1.0)
        with pytest.raises(ValueError, match="unit length"):
            spin_eigenvector(1.0, [0, np.nan, 1.0], 1.0)

    def test_phase_convention(self):
        v = spin_eigenvector(1.0, [1, 0, 0], 1.0)
        assert v[0].imag == pytest.approx(0.0, abs=1e-14)
        assert v[0].real > 0


class TestSpin1Frame:
    def test_first_three_entries_diagonal(self, frame):
        for k in range(3):
            expected = np.zeros((3, 3))
            expected[k, k] = 1.0
            assert np.max(np.abs(frame.dequantizer[k] - expected)) < 1e-14

    def test_fifth_entry(self, frame):
        ref = 0.5 * np.array([[1, 0, -1], [0, 0, 0], [-1, 0, 1]])
        assert np.max(np.abs(frame.dequantizer[4] - ref)) < 1e-14

    def test_gram_determinant_nonzero(self, frame):
        det = np.linalg.det(frame.gram)
        print(f"spin-1 frame Gram determinant = {det:.6e}")
        assert abs(det) > 1e-6

    def test_duality(self, frame):
        assert frame.duality_residual() < 1e-12

    def test_completeness(self, frame):
        assert frame.completeness_residual() < 1e-12

    def test_projector_invariants(self, frame):
        res = frame.projector_residuals()
        assert max(res.values()) < 1e-12
        assert vectors_residual(frame) <= 1e-15

    def test_quantizer_hermitian(self, frame):
        q = frame.quantizer
        assert np.max(np.abs(q - np.conj(np.transpose(q, (0, 2, 1))))) < 1e-12

    def test_diagonal_quantizer_vectors_are_basis_vectors(self, frame):
        for pos, (j, k) in enumerate([(0, 0), (1, 1), (2, 2)]):
            vec = frame.quantizer_vector(j, k)
            expected = np.zeros(9)
            expected[pos] = 1.0
            assert np.max(np.abs(vec - expected)) < 1e-12

    def test_off_diagonal_vectors_conjugate_pairs(self, frame):
        for j, k in [(0, 1), (0, 2), (1, 2)]:
            assert np.max(np.abs(frame.quantizer_vector(k, j)
                                 - frame.quantizer_vector(j, k).conj())) < 1e-12

    def test_paper_comparison_reported(self, frame):
        rows = paper_quantizer_comparison(frame)
        assert len(rows) == 6
        for row in rows:
            print(f"quantizer {row['slot']}: max |recomputed - printed| = "
                  f"{row['max_abs_diff']:.3e}")

    def test_spin_round_trip(self, frame, rng):
        for _ in range(50):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = a @ a.conj().T
            rho /= np.trace(rho)
            back = frame.reconstruct(frame.weights(rho))
            assert np.max(np.abs(back - rho)) < 1e-12

    def test_axis_resolution_of_identity(self, frame):
        # the three z-projectors share one direction with m in {-1, 0, 1}
        total = frame.dequantizer[0] + frame.dequantizer[1] + frame.dequantizer[2]
        assert np.max(np.abs(total - np.eye(3))) < 1e-14

    def test_json_round_trip(self, frame):
        restored = SpinFrame.from_json(frame.to_json())
        assert np.max(np.abs(restored.dequantizer - frame.dequantizer)) < 1e-15
        assert np.max(np.abs(restored.quantizer - frame.quantizer)) < 1e-15
        assert restored.duality_residual() < 1e-12
        assert vectors_residual(restored) <= 1e-15


class TestSolveDualFrame:
    def test_degenerate_set_rejected(self, frame):
        bad = np.stack([frame.dequantizer[0]] * 9)
        with pytest.raises(DegenerateFrameError, match="near-dependent"):
            solve_dual_frame(bad)

    def test_published_off_diagonal_vector_checked(self, frame):
        # the linear solve is the oracle; the printed vector is compared only
        printed_13 = np.array([(1 - 1j) / 2, 0, (1 - 1j) / 2, 0, -1, 0, 1j, 0, 0])
        recomputed = frame.quantizer_vector(0, 2)
        diff = np.abs(recomputed - printed_13)
        print("D_(13) elementwise |diff|:", np.array2string(diff, precision=3))
        pairing = np.einsum("jab,kba->jk", frame.dequantizer, frame.quantizer)
        assert np.max(np.abs(pairing - np.eye(9))) < 1e-12


class TestRandomFrame:
    def test_spin_half(self):
        fr = random_frame(0.5, seed=3)
        assert fr.size == 4
        assert fr.duality_residual() < 1e-12

    def test_spin1_deterministic(self):
        f1 = random_frame(1.0, seed=0)
        f2 = random_frame(1.0, seed=0)
        assert f1.size == 9
        assert np.array_equal(f1.directions, f2.directions)
        assert np.max(np.abs(f1.quantizer - f2.quantizer)) == 0.0

    def test_spin_three_halves_completeness(self):
        fr = random_frame(1.5, seed=1)
        assert fr.size == 16
        assert fr.completeness_residual() < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_projector_invariants_random_frames(self, seed):
        for s in (0.0, 0.5, 1.0, 1.5):
            fr = random_frame(s, seed=seed)
            assert fr.duality_residual() < 1e-12
            res = fr.projector_residuals()
            assert max(res.values()) < 1e-12
            assert vectors_residual(fr) <= 1e-15
            assert vectors_residual(SpinFrame.from_json(fr.to_json())) <= 1e-15


@pytest.mark.parametrize("make", [lambda: build_frame(0.0, [[0, 0, 1]], [0.0]),
                                  lambda: random_frame(0.0, seed=5)], ids=["build", "random"])
def test_spin0_frame_invariants(make):
    # a spinless state is the spin-0 case: one component with U = D = 1
    fr = make()
    assert fr.size == 1
    assert fr.duality_residual() <= 1e-12
    assert fr.completeness_residual() <= 1e-12
    assert max(fr.projector_residuals().values()) <= 1e-12
    assert vectors_residual(fr) <= 1e-15


def test_frame_search_failure():
    from spintomo import FrameSearchError
    with pytest.raises(FrameSearchError, match="attempts"):
        random_frame(1.0, seed=0, max_attempts=3, max_condition=1.0 + 1e-9)


def test_build_frame_dimension_mismatch():
    with pytest.raises(ValueError, match="pairs"):
        build_frame(1.0, np.eye(3), np.ones(3))


def test_gram_matrix_symmetric(frame):
    g = gram_matrix(frame.dequantizer)
    assert np.max(np.abs(g - g.T)) < 1e-14
    assert np.all(np.linalg.eigvalsh(g) > 0)


def test_frame_arrays_immutable(frame):
    with pytest.raises(ValueError):
        frame.dequantizer[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        frame.vectors[0, 0] = 5.0


def test_non_rank_one_dequantizer_rejected(frame):
    mixed = frame.dequantizer.copy()
    mixed[4] = np.eye(3) / 3
    with pytest.raises(ValueError, match="rank-one"):
        dataclasses.replace(frame, dequantizer=mixed)
