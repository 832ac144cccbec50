"""Tests for Dirac-matrix construction and verification."""

from __future__ import annotations

import gc
import io
import json

import numpy as np
import pytest

from diracstep import algebra
from diracstep.algebra import (
    _dense_residuals,
    _monomial,
    _report,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DiracRepresentation,
    build_representation,
    minimal_spinor_dimension,
    read_representation_json,
    representation_from_json,
    representation_to_json,
    verify_clifford,
    write_representation_json,
)

EYE2 = np.eye(2, dtype=complex)


class TestMinimalSpinorDimension:
    def test_known_values(self):
        assert minimal_spinor_dimension(1) == 2
        assert minimal_spinor_dimension(2) == 2
        assert minimal_spinor_dimension(3) == 4
        assert minimal_spinor_dimension(5) == 8

    def test_plateau_doubling_pattern(self):
        dims = [minimal_spinor_dimension(n) for n in range(1, 13)]
        assert dims == [2, 2, 4, 4, 8, 8, 16, 16, 32, 32, 64, 64]
        # nondecreasing, doubling exactly on even -> odd steps
        for n in range(1, 12):
            ratio = minimal_spinor_dimension(n + 1) // minimal_spinor_dimension(n)
            assert ratio == (2 if n % 2 == 0 else 1)

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            minimal_spinor_dimension(bad)


class TestBuildRepresentation:
    def test_base_case_n1_is_pauli_pair(self):
        rep = build_representation(1)
        assert rep.dim == 2
        assert np.array_equal(rep.alphas[0], PAULI_X)
        assert np.array_equal(rep.beta, PAULI_Z)

    def test_base_case_n2_uses_sigma_y(self):
        rep = build_representation(2)
        assert rep.dim == 2
        assert np.array_equal(rep.alphas[1], PAULI_Y)

    def test_dims_match_minimal(self):
        for n in range(1, 9):
            rep = build_representation(n)
            assert rep.dim == minimal_spinor_dimension(n)
            assert rep.dim % 2 == 0
            assert len(rep.alphas) == n

    def test_recursion_entries_stay_exact(self):
        """Every entry of every constructed matrix is exactly 0, +-1 or +-i."""
        allowed = {0, 1, -1, 1j, -1j}
        for n in (3, 5, 8):
            for _, m in build_representation(n).matrices():
                values = {complex(z) for z in m.ravel()}
                assert values <= allowed

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_representation(0)

    def test_matrices_are_read_only(self):
        rep = build_representation(3)
        with pytest.raises(ValueError):
            rep.beta[0, 0] = 5.0


def _kron_representation(n: int) -> list[np.ndarray]:
    """alpha_1..alpha_n, beta by the np.kron recursion, written apart from
    the builder: sigma_x (x) each matrix of level n-2, then sigma_y (x) I
    and sigma_z (x) I."""
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    sigma_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sigma_z = np.array([[1, 0], [0, -1]], dtype=complex)
    if n <= 2:
        return [sigma_x, sigma_y][:n] + [sigma_z]
    inner = _kron_representation(n - 2)
    eye = np.eye(len(inner[0]), dtype=complex)
    return ([np.kron(sigma_x, m) for m in inner]
            + [np.kron(sigma_y, eye), np.kron(sigma_z, eye)])


class TestBuilderOracle:
    """The builder against an np.kron recursion of its own, bit for bit."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_bitwise_the_kron_recursion(self, n):
        built = [m for _, m in build_representation(n).matrices()]
        expected = _kron_representation(n)
        assert len(built) == len(expected) == n + 1
        for m, e in zip(built, expected):
            assert m.dtype == e.dtype and m.shape == e.shape
            assert np.array_equal(m.view(np.uint64), e.view(np.uint64))

    def test_emitted_n14_text_keeps_every_negative_zero(self):
        """np.kron's products leave -0.0 parts, and --emit-json writes them."""
        stream = io.StringIO()
        write_representation_json(build_representation(14), stream)
        assert stream.getvalue().count("-0.0") == 32256

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
    def test_matrices_are_views_of_one_read_only_block(self, n):
        rep = build_representation(n)
        block = rep.beta.base
        assert block.shape == (n + 1, rep.dim, rep.dim) and block.flags.owndata
        assert not block.flags.writeable
        for i, (_, m) in enumerate(rep.matrices()):
            assert m.base is block and m.flags.c_contiguous
            assert m.ctypes.data == block.ctypes.data + i * block.strides[0]

    def test_built_block_refuses_writes(self):
        rep = build_representation(5)
        with pytest.raises(ValueError):
            rep.alphas[0].base[...] = 0
        assert verify_clifford(rep).passed

    def test_loaded_buffer_refuses_writes(self):
        stream = io.StringIO()
        write_representation_json(build_representation(5), stream)
        stream.seek(0)
        rep = read_representation_json(stream)
        for _, m in rep.matrices():
            with pytest.raises(ValueError):
                m.base[...] = 0
        assert verify_clifford(rep).passed

    def test_block_is_allocated_before_any_level(self, monkeypatch):
        """So a size past memory fails before a level is built.  Checked at
        a small n, where a builder that allocates levels first stays cheap."""
        shapes = []

        def empty(shape, dtype=float):
            shapes.append(shape)
            raise MemoryError

        monkeypatch.setattr(algebra.np, "empty", empty)
        with pytest.raises(MemoryError):
            build_representation(12)
        assert shapes == [(13, 64, 64)]


class TestVerifyClifford:
    def test_constructed_reps_are_exact(self):
        for n in range(1, 9):
            report = verify_clifford(build_representation(n), 1e-12)
            assert report.passed
            assert report.max_deviation == 0.0
            assert report.failures == []

    def test_detects_broken_anticommutator(self):
        rep = DiracRepresentation(n=1, dim=2,
                                  alphas=(PAULI_X.copy(),), beta=PAULI_X.copy())
        report = verify_clifford(rep, 1e-12)
        assert not report.passed
        assert report.max_deviation == 2.0
        assert report.failures == [("{alpha_1, beta} = 0", 2.0)]

    def test_detects_traceful_beta(self):
        rep = DiracRepresentation(n=1, dim=2,
                                  alphas=(PAULI_X.copy(),), beta=EYE2.copy())
        report = verify_clifford(rep, 1e-12)
        assert not report.passed
        names = [name for name, _ in report.failures]
        assert "trace(beta) = 0" in names
        assert "{alpha_1, beta} = 0" in names
        trace_dev = dict(report.failures)["trace(beta) = 0"]
        assert trace_dev == 2.0

    def test_passed_iff_within_tolerance(self):
        noisy = PAULI_Z + 1e-9 * np.eye(2)
        rep = DiracRepresentation(n=1, dim=2, alphas=(PAULI_X.copy(),), beta=noisy)
        assert not verify_clifford(rep, 1e-12).passed
        assert verify_clifford(rep, 1e-6).passed

    def test_structural_mismatch_is_an_error_not_a_report(self):
        four = np.kron(EYE2, PAULI_X)
        with pytest.raises(ValueError):
            DiracRepresentation(n=1, dim=2, alphas=(four,), beta=PAULI_Z.copy())
        with pytest.raises(ValueError):
            DiracRepresentation(n=2, dim=2, alphas=(PAULI_X.copy(),),
                                beta=PAULI_Z.copy())

    @pytest.mark.parametrize("n,dim,message", [
        (0, 2, "spatial dimension n must be >= 1"),
        (1, 0, "matrix dimension must be >= 1"),
    ])
    def test_nonpositive_sizes_are_an_error(self, n, dim, message):
        with pytest.raises(ValueError, match=message):
            DiracRepresentation(n=n, dim=dim, alphas=(PAULI_X.copy(),) * n,
                                beta=PAULI_Z.copy())

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            verify_clifford(build_representation(1), -1e-3)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_rejects_non_finite_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="finite"):
            verify_clifford(build_representation(1), tolerance)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_fails_every_identity_it_breaks(self, bad):
        beta = PAULI_Z.copy()
        beta[1, 1] = bad
        report = verify_clifford(DiracRepresentation(1, 2, (PAULI_X.copy(),), beta))
        assert not report.passed
        assert np.isnan(report.max_deviation)
        assert [name for name, _ in report.failures] == [
            "hermitian(beta)", "beta^2 = I", "{alpha_1, beta} = 0",
            "trace(beta) = 0",
        ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_or_overflowing_entry_warns_nothing(self, bad):
        beta = PAULI_Z.copy()
        beta[1, 1] = bad
        report = verify_clifford(DiracRepresentation(1, 2, (PAULI_X.copy(),), beta))
        assert not report.passed

    def test_failures_follow_the_pair_order(self):
        """alpha_3 := alpha_2 and beta := alpha_1 break exactly {alpha_1, beta}
        and {alpha_2, alpha_3}; the pairs are listed in the order of
        rep.matrices(), and squares (so the spectrum) hold."""
        a1, a2, _ = build_representation(3).alphas
        report = verify_clifford(DiracRepresentation(3, 4, (a1, a2, a2), a1))
        assert report.failures == [("{alpha_1, beta} = 0", 2.0),
                                   ("{alpha_2, alpha_3} = 0", 2.0)]

    def test_conjugation_invariance(self):
        """Unitary conjugation preserves the algebra to near roundoff."""
        rng = np.random.default_rng(42)
        for n in (3, 6, 8):
            rep = build_representation(n)
            z = rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(
                size=(rep.dim, rep.dim))
            u, _ = np.linalg.qr(z)
            conj = DiracRepresentation(
                n=n,
                dim=rep.dim,
                alphas=tuple(u @ a @ u.conj().T for a in rep.alphas),
                beta=u @ rep.beta @ u.conj().T,
            )
            report = verify_clifford(conj, 1e-10)
            assert report.passed, report.failures
            assert report.max_deviation > 0.0  # genuinely floating now


def _replace(rep: DiracRepresentation, index: int, matrix: np.ndarray) -> DiracRepresentation:
    """rep with matrix number index of rep.matrices() (beta last) replaced."""
    mats = [m for _, m in rep.matrices()]
    mats[index] = matrix
    return DiracRepresentation(rep.n, rep.dim, tuple(mats[:-1]), mats[-1])


def _phase_times_i(m):
    out = m.copy()
    out[1, np.flatnonzero(out[1])] *= 1j
    return out


def _rows_swapped(m):
    return m[[1, 0, *range(2, len(m))]]


def _entry(m, row, col, value):
    out = m.copy()
    out[row, col] = value
    return out


class TestMonomialPath:
    """Built matrices are monomial with phases in {+-1, +-i}; verify_clifford
    then computes its residuals from (column, phase) arrays, and its report
    must be the one the dense products give."""

    @staticmethod
    def _dense_report(rep, tolerance):
        return _report(_dense_residuals(rep.matrices()), tolerance)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_built_representation_matches_dense(self, n, monkeypatch):
        rep = build_representation(n)
        assert all(_monomial(m) is not None for _, m in rep.matrices())
        dense = {tolerance: self._dense_report(rep, tolerance) for tolerance in (0.0, 1e-12)}
        # a built set never reaches the dense products
        monkeypatch.setattr(algebra, "_dense_residuals", None)
        for tolerance, dense_report in dense.items():
            report = verify_clifford(rep, tolerance)
            assert report == dense_report
            assert report.passed and report.max_deviation == 0.0

    @pytest.mark.parametrize("n", [3, 5, 8])
    @pytest.mark.parametrize("corrupt", [
        lambda rep: _replace(rep, 1, _phase_times_i(rep.alphas[1])),
        lambda rep: _replace(rep, 0, _rows_swapped(rep.alphas[0])),
        lambda rep: _replace(rep, rep.n, _entry(rep.beta, 0, 0, -rep.beta[0, 0])),
        lambda rep: _replace(rep, rep.n - 1, rep.beta),
    ], ids=["phase-times-i", "rows-swapped", "beta-diagonal-negated", "alpha-is-beta"])
    def test_corrupted_monomial_set_matches_dense(self, n, corrupt):
        rep = corrupt(build_representation(n))
        assert all(_monomial(m) is not None for _, m in rep.matrices())
        report = verify_clifford(rep, 1e-12)
        assert not report.passed
        assert report == self._dense_report(rep, 1e-12)

    def test_negated_beta_diagonal_entry_breaks_the_trace(self):
        rep = build_representation(4)
        report = verify_clifford(_replace(rep, 4, _entry(rep.beta, 0, 0, -rep.beta[0, 0])))
        assert dict(report.failures)["trace(beta) = 0"] == 2.0

    @pytest.mark.parametrize("corrupt", [
        lambda m: _entry(m, 0, 0, 2.0),
        lambda m: _entry(m, 0, 0, -2.0),
        lambda m: _entry(m, 0, 0, 0.6 + 0.8j),
        lambda m: _entry(m, 0, 1, 1.0),
        lambda m: _entry(_entry(m, 1, 1, 0.0), 0, 1, 1.0),
        lambda m: _entry(_entry(m, 1, 1, 0.0), 1, 0, 1.0),
        lambda m: _entry(m, 0, 0, np.nan),
        lambda m: _entry(m, 0, 0, complex(0.0, np.inf)),
    ], ids=["plus-2", "minus-2", "0.6+0.8i", "two-in-a-row", "two-in-a-row-one-empty",
            "two-in-a-column", "nan", "inf"])
    def test_other_matrices_take_the_dense_path(self, corrupt):
        rep = build_representation(4)  # beta = diag(1, 1, -1, -1)
        beta = corrupt(rep.beta)
        assert _monomial(beta) is None
        assert not verify_clifford(_replace(rep, 4, beta)).passed

    @pytest.mark.parametrize("dtype", [np.complex64, np.float64, np.int64])
    def test_other_dtypes_take_the_dense_path(self, dtype):
        """Sets of another dtype get the report of their own dtype's
        products: alpha_1 with an entry times -1 fails Hermiticity."""
        x, z = (np.real(m).astype(dtype) for m in (PAULI_X, PAULI_Z))
        rep = DiracRepresentation(1, 2, (_entry(x, 0, 1, -1),), z)
        assert _monomial(rep.alphas[0]) is None and _monomial(rep.beta) is None
        report = verify_clifford(rep)
        assert report == self._dense_report(rep, 1e-12)
        assert report.failures == [("hermitian(alpha_1)", 2.0), ("alpha_1^2 = I", 2.0)]

    def test_complex64_residual_rounds_in_complex64(self):
        """A residual of modulus sqrt(2) rounds differently in complex64
        products than the complex128 arrays would give it."""
        rep = build_representation(4)
        rep = DiracRepresentation(4, 4, tuple(a.astype(np.complex64) for a in rep.alphas),
                                  rep.beta.astype(np.complex64))
        rep = _replace(rep, 0, _phase_times_i(rep.alphas[0]))
        report = verify_clifford(rep)
        assert report == self._dense_report(rep, 1e-12)
        assert dict(report.failures)["hermitian(alpha_1)"] == float(np.float32(np.sqrt(2.0)))

    def test_conjugated_set_takes_the_dense_path_and_passes(self):
        rep = build_representation(5)
        rng = np.random.default_rng(7)
        u, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        conj = DiracRepresentation(5, 8, tuple(u @ a @ u.conj().T for a in rep.alphas),
                                   u @ rep.beta @ u.conj().T)
        assert all(_monomial(m) is None for _, m in conj.matrices())
        report = verify_clifford(conj, 1e-10)
        assert report == self._dense_report(conj, 1e-10)
        assert report.passed and 0.0 < report.max_deviation <= 1e-10

    def test_json_round_trip_stays_monomial(self):
        text = json.dumps(representation_to_json(build_representation(14)))
        back = representation_from_json(json.loads(text))
        assert all(_monomial(m) is not None for _, m in back.matrices())
        report = verify_clifford(back, 0.0)
        assert report.passed and report.max_deviation == 0.0


class TestMinimalityOracle:
    """Small-n evidence for dim = 2^ceil(n/2) beyond trusting the formula."""

    def test_dim2_involutions_are_r3_unit_vectors(self):
        """In dim 2: traceless Hermitian involution <-> unit vector in R^3,
        anticommutation <-> orthogonality.  Four mutually anticommuting
        matrices would need four orthonormal vectors in R^3."""
        rng = np.random.default_rng(3)
        paulis = np.stack([PAULI_X, PAULI_Y, PAULI_Z])
        for _ in range(50):
            u, v = rng.normal(size=(2, 3))
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            mu = np.tensordot(u, paulis, axes=1)
            mv = np.tensordot(v, paulis, axes=1)
            assert np.allclose(mu @ mu, EYE2, atol=1e-14)
            anti = mu @ mv + mv @ mu
            assert np.allclose(anti, 2 * np.dot(u, v) * EYE2, atol=1e-13)
        # Gram matrix of any 4 vectors in R^3 is singular; orthonormality
        # would need Gram = I (determinant 1).  So no 4-set exists in dim 2.
        for _ in range(20):
            vecs = rng.normal(size=(4, 3))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            gram = vecs @ vecs.T
            assert abs(np.linalg.det(gram)) < 1e-12

    def test_anticommuting_partner_is_traceless(self):
        # M anticommuting with an involution A satisfies M = -A M A,
        # hence Tr M = -Tr M = 0: every member of a mutual set is traceless.
        for n in (2, 4, 6):
            for _, m in build_representation(n).matrices():
                assert abs(np.trace(m)) == 0.0

    @staticmethod
    def _extension_space_dim(matrices: list[np.ndarray]) -> int:
        """Dimension of {M : {M, A_i} = 0 for all i} via SVD nullspace.

        vec(A M + M A) = (A (x) I + I (x) A^T) vec(M) in row-major vec.
        """
        d = matrices[0].shape[0]
        eye = np.eye(d)
        stacked = np.vstack(
            [np.kron(a, eye) + np.kron(eye, a.T) for a in matrices])
        s = np.linalg.svd(stacked, compute_uv=False)
        return int(np.sum(s < 1e-10 * s[0]))

    def test_constructed_sets_maximal_for_even_n(self):
        """Even n: nothing anticommutes with the whole set (nullspace 0).
        Odd n: exactly a one-dimensional extension space remains (the
        next alpha), matching the (2,2,4,4,...) dimension plateaus."""
        for n in range(1, 7):
            rep = build_representation(n)
            mats = [m for _, m in rep.matrices()]
            expected = 1 if n % 2 == 1 else 0
            assert self._extension_space_dim(mats) == expected, f"n={n}"

    def test_randomized_overpacked_sets_fail_verification(self):
        """No random 6th Hermitian involution extends a 5-set in dim 4."""
        rng = np.random.default_rng(11)
        rep = build_representation(4)  # five mutually anticommuting, dim 4
        for _ in range(20):
            z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            u, _ = np.linalg.qr(z)
            base = [u @ m @ u.conj().T for _, m in rep.matrices()]
            h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = h + h.conj().T
            evals, evecs = np.linalg.eigh(h)
            candidate = evecs @ np.diag(np.sign(evals)) @ evecs.conj().T
            overpacked = DiracRepresentation(
                n=5, dim=4, alphas=tuple(base[:5]), beta=candidate)
            report = verify_clifford(overpacked, 1e-8)
            assert not report.passed


class TestJsonRoundTrip:
    def test_round_trip_preserves_algebra_exactly(self):
        rep = build_representation(5)
        text = json.dumps(representation_to_json(rep))
        back = representation_from_json(json.loads(text))
        assert back.n == rep.n and back.dim == rep.dim
        for (_, a), (_, b) in zip(rep.matrices(), back.matrices()):
            assert np.array_equal(a, b)
        report = verify_clifford(back, 0.0)
        assert report.passed and report.max_deviation == 0.0

    def test_json_layout(self):
        data = representation_to_json(build_representation(1))
        assert data["n"] == 1 and data["dim"] == 2
        # row-major [re, im] pairs: sigma_x upper-right entry
        assert data["alphas"][0][0][1] == [1.0, 0.0]
        assert data["beta"][1][1] == [-1.0, 0.0]

    @pytest.mark.parametrize("matrix", [
        np.array([[1, 2], [-3, 0]]),
        np.array([[0.1, -0.0], [1e-300, -2.5]]),
        (PAULI_Y + 0.25j * PAULI_X).T,  # not C-contiguous
    ], ids=["int", "float64", "complex-transposed"])
    def test_encoding_is_the_re_im_pair_of_each_entry(self, matrix):
        pairs = [[[float(z.real), float(z.imag)] for z in row] for row in matrix]
        rep = DiracRepresentation(1, 2, (matrix,), matrix)
        assert json.dumps(representation_to_json(rep), sort_keys=True) == json.dumps(
            {"n": 1, "dim": 2, "alphas": [pairs], "beta": pairs}, sort_keys=True)

    @pytest.mark.parametrize("corrupt", [
        lambda d: d["beta"],                                  # top-level array
        lambda d: dict(d, beta=[["10", [0.0, 0.0]], d["beta"][1]]),
        lambda d: dict(d, beta=[[None, [0.0, 0.0]], d["beta"][1]]),
        lambda d: dict(d, beta=[[[1.0, 0.0, 0.0], [0.0, 0.0]], d["beta"][1]]),
        lambda d: dict(d, beta=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]),
        lambda d: dict(d, beta=[[[float("nan"), 0.0], [0.0, 0.0]], d["beta"][1]]),
        lambda d: dict(d, alphas=[[[[0.0, 0.0], [1.0, float("inf")]], d["beta"][1]]]),
        lambda d: dict(d, beta=[[[10 ** 399, 0.0], [0.0, 0.0]], d["beta"][1]]),  # past float
        lambda d: dict(d, n="1"),
        lambda d: dict(d, alphas=None),
        lambda d: {key: value for key, value in d.items() if key != "n"},
        lambda d: {key: value for key, value in d.items() if key != "beta"},
    ])
    def test_malformed_input_raises_value_error(self, corrupt):
        data = json.loads(json.dumps(representation_to_json(build_representation(1))))
        with pytest.raises(ValueError):
            representation_from_json(corrupt(data))

    @pytest.mark.parametrize("entry", [[True, False], [1.0, False], [True, 0.0]])
    def test_boolean_entry_raises_value_error(self, entry):
        """JSON true and false load as bools, which complex() takes as 1 and
        0: beta's [true, false] corner would load as 1 and verify."""
        data = json.loads(json.dumps(representation_to_json(build_representation(1))))
        data["beta"][0][0] = entry
        with pytest.raises(ValueError, match="number pairs"):
            representation_from_json(data)

    def test_entries_that_do_not_pair_up_raise_value_error(self):
        """A triple and a single in one row hold as many numbers as two pairs."""
        data = json.loads(json.dumps(representation_to_json(build_representation(1))))
        data["beta"][0] = [[1.0, 0.0, 0.0], [0.0]]
        with pytest.raises(ValueError, match="number pairs"):
            representation_from_json(data)


def _dumped(rep: DiracRepresentation) -> str:
    return json.dumps(representation_to_json(rep), sort_keys=True) + "\n"


def _written(rep: DiracRepresentation) -> str:
    out = io.StringIO()
    write_representation_json(rep, out)
    return out.getvalue()


def _rotated(n: int, seed: int) -> DiracRepresentation:
    rep = build_representation(n)
    z = np.random.default_rng(seed).normal(size=(rep.dim, rep.dim, 2)) @ [1, 1j]
    u, _ = np.linalg.qr(z)
    return DiracRepresentation(n, rep.dim, tuple(u @ a @ u.conj().T for a in rep.alphas),
                               u @ rep.beta @ u.conj().T)


class TestJsonWriter:
    """write_representation_json writes json.dumps' text, byte for byte."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_built_representation(self, n):
        rep = build_representation(n)
        assert _written(rep) == _dumped(rep)

    @pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (6, 2)])
    def test_rotated_non_monomial_set(self, n, seed):
        rep = _rotated(n, seed)
        assert _monomial(rep.beta) is None
        assert _written(rep) == _dumped(rep)

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.float64, np.float32])
    def test_real_dtypes_encode_as_complex(self, dtype):
        a = np.array([[0, 1, 2], [-3, 0, 5], [7, -1, 0]]).astype(dtype)
        rep = DiracRepresentation(2, 3, (a, a.T), -a)
        assert _written(rep) == _dumped(rep)

    def test_signed_zeros_stay_apart(self):
        beta = np.array([[0.0, -0.0], [complex(0.0, -0.0), complex(-0.0, -0.0)]])
        rep = DiracRepresentation(1, 2, (beta.T,), beta)
        text = _written(rep)
        assert text == _dumped(rep)
        assert '"beta": [[[0.0, 0.0], [-0.0, 0.0]], [[0.0, -0.0], [-0.0, -0.0]]]' in text

    def test_non_finite_entries(self):
        nan, inf = float("nan"), float("inf")
        beta = np.array([[nan, complex(inf, -inf)], [complex(0.0, nan), -inf]])
        rep = DiracRepresentation(1, 2, (beta.T,), beta)
        text = _written(rep)
        assert text == _dumped(rep)
        assert "[NaN, 0.0], [Infinity, -Infinity]" in text

    def test_dim_one_set(self):
        rep = DiracRepresentation(2, 1, (np.array([[1.0]]), np.array([[-1j]])),
                                  np.array([[0.5 - 0.0j]]))
        assert _written(rep) == _dumped(rep)
        assert _written(rep) == ('{"alphas": [[[[1.0, 0.0]]], [[[-0.0, -1.0]]]], '
                                 '"beta": [[[0.5, 0.0]]], "dim": 1, "n": 2}\n')

    def test_reloads_to_the_same_matrices(self):
        rep = _rotated(4, 3)
        back = representation_from_json(json.loads(_written(rep)))
        for (_, a), (_, b) in zip(rep.matrices(), back.matrices()):
            assert np.array_equal(a.view(np.float64), b.view(np.float64))


def _bits(rep: DiracRepresentation) -> list[np.ndarray]:
    return [m.view(np.int64) for _, m in rep.matrices()]


@pytest.fixture
def collector_restored():
    """Put the cyclic garbage collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestJsonReader:
    """read_representation_json is representation_from_json(json.load(...))
    with the cyclic garbage collector paused."""

    _N3 = representation_to_json(build_representation(3))

    @pytest.mark.parametrize("text", [
        _written(build_representation(3)),
        json.dumps(_N3, indent=2),
        json.dumps(dict(reversed(list(_N3.items())))),
        json.dumps(dict(_N3, comment="ignored")),
        _written(_rotated(5, 4)),
    ], ids=["emit-json", "indent-2", "keys-reversed", "extra-key", "rotated-n5"])
    def test_every_layout_reads_as_json_loads_does(self, text):
        expected = representation_from_json(json.loads(text))
        rep = read_representation_json(io.StringIO(text))
        assert (rep.n, rep.dim) == (expected.n, expected.dim)
        for a, b in zip(_bits(rep), _bits(expected)):
            assert np.array_equal(a, b)

    def test_rotated_layout_entries_all_differ(self):
        beta = _rotated(5, 4).beta
        assert len(np.unique(beta)) == beta.size

    def test_collector_paused_during_conversion(self, monkeypatch, collector_restored):
        """The conversion runs with the collector off and through the module
        attribute, where a caller (such as a tracer) may have wrapped it."""
        seen = []

        def convert(data):
            seen.append(gc.isenabled())
            return representation_from_json(data)

        gc.enable()
        monkeypatch.setattr(algebra, "representation_from_json", convert)
        read_representation_json(io.StringIO(_written(build_representation(2))))
        assert seen == [False] and gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("text, error", [
        (_written(build_representation(2)), None),
        ('{"n": 1, "dim"', json.JSONDecodeError),
        ('{"n": 1, "dim": 2, "alphas": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]],'
         ' "beta": [[[true, false], [0, 0]], [[0, 0], [-1, 0]]]}', ValueError),
        ("[" * 100000 + "]" * 100000, ValueError),
    ], ids=["good", "not-json", "refused-entry", "deep"])
    def test_collector_left_as_found(self, enabled, text, error, collector_restored):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        if error is None:
            read_representation_json(io.StringIO(text))
        else:
            with pytest.raises(error):
                read_representation_json(io.StringIO(text))
        assert gc.isenabled() is enabled
