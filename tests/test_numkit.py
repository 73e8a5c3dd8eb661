import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opinesum import numkit
from opinesum.numkit import (
    SeededRng,
    derive_seed,
    log_softmax,
    multinomial_draw,
    sigmoid_elem,
    softmax,
    solve_spd,
)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0, 0, 0]), [1 / 3] * 3, rtol=0, atol=1e-15)

    def test_analytic(self):
        np.testing.assert_allclose(softmax([math.log(2), 0.0]), [2 / 3, 1 / 3], atol=1e-15)

    def test_matches_exp_normalize_oracle(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=10)
        expected = np.exp(v) / np.exp(v).sum()  # direct exp-normalize oracle
        np.testing.assert_allclose(softmax(v), expected, rtol=1e-14)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            out = softmax(rng.normal(scale=30, size=rng.integers(1, 20)))
            assert abs(out.sum() - 1.0) <= 1e-12
            assert np.all(out > 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = rng.normal(size=rng.integers(1, 12))
            c = rng.normal(scale=100)
            np.testing.assert_allclose(softmax(v + c), softmax(v), atol=1e-12)

    def test_bit_identical_to_two_allocation_form(self):
        def two_allocations(v):
            e = np.exp(v - v.max(axis=-1, keepdims=True))
            return e / e.sum(axis=-1, keepdims=True)

        rng = np.random.default_rng(17)
        for scale in (1e-300, 1e-12, 1.0, 30.0, 1e4, 1e150, 1e300):
            rows = rng.normal(scale=scale, size=(8, int(rng.integers(1, 40))))
            rows[0, 0] = 1.5e308  # one huge logit: every other entry underflows
            rows[1, :] = -scale  # constant row
            for v in (rows, rows[2], rows[:, :1]):
                before = v.copy()
                got = softmax(v)
                assert got.tobytes() == two_allocations(v).tobytes(), scale
                assert v.tobytes() == before.tobytes()  # the input is not written

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            softmax([0.0, float("nan")])

    def test_log_softmax_consistent(self):
        v = np.array([1.0, -2.0, 0.5, 3.0])
        np.testing.assert_allclose(log_softmax(v), np.log(softmax(v)), atol=1e-12)


def masked_sigmoid(v):
    """The masked-assignment sigmoid sigmoid_elem replaced, as an oracle."""
    arr = np.asarray(v, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ez = np.exp(arr[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestElementwise:
    def test_sigmoid_bit_identical_to_masked_form(self):
        rng = np.random.default_rng(29)
        inputs = [
            np.array([0.0, -0.0, 1.0, -1.0, 1000.0, -1000.0]),
            rng.normal(scale=4.0, size=150),
            rng.normal(scale=20.0, size=(7, 33)),
        ]
        for v in inputs:
            np.testing.assert_array_equal(sigmoid_elem(v), masked_sigmoid(v))

    def test_sigmoid_out_in_place_matches_where_form(self):
        rng = np.random.default_rng(30)
        for v in (
            np.array([0.0, -0.0, 5e-324, -5e-324, 745.0, -745.0, 1000.0, -1000.0]),
            rng.normal(scale=6.0, size=128),
            rng.normal(scale=6.0, size=(5, 24)),
        ):
            e = np.exp(-np.abs(v))
            expected = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
            out = np.empty_like(v)
            assert sigmoid_elem(v, out=out) is out
            in_place = v.copy()
            sigmoid_elem(in_place, out=in_place)
            for got in (sigmoid_elem(v), out, in_place):
                assert got.tobytes() == expected.tobytes()

    def test_sigmoid_rejects_non_finite(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            sigmoid_elem([0.0, float("inf")])

    def test_sigmoid_zero(self):
        np.testing.assert_allclose(sigmoid_elem([0.0]), [0.5])

    def test_sigmoid_tails_finite(self):
        out = sigmoid_elem([-1000.0, 1000.0])
        assert np.all(np.isfinite(out))
        assert out[0] < 1e-300 and out[1] == 1.0


class TestFiniteInputs:
    # each caller of the one finiteness check, with a bad-rank and a
    # non-finite input
    CALLERS = {
        "softmax": (softmax, np.zeros((1, 1, 2)), [0.0, float("nan")]),
        "log_softmax": (log_softmax, np.zeros((2, 2)), [0.0, float("inf")]),
        "sigmoid_elem": (sigmoid_elem, np.zeros((1, 1, 2)), [[0.0, -float("inf")]]),
        "solve_spd": (lambda a: solve_spd(a, [1.0, 1.0]), np.ones(2), [[float("inf"), 0], [0, 1]]),
        "multinomial_draw": (
            lambda w: multinomial_draw(w, 1, SeededRng(0)), np.ones((2, 2)), [1.0, float("nan")]
        ),
    }

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_rejects_bad_rank_and_non_finite(self, caller):
        fn, bad_rank, non_finite = self.CALLERS[caller]
        with pytest.raises(ValueError, match=r"must be .*-D, got shape \("):
            fn(bad_rank)
        with pytest.raises(ValueError, match="NaN or Inf"):
            fn(non_finite)


def workspace(a):
    """A Fortran-ordered float64 copy of `a` for solve_spd to overwrite,
    so a residual check can still read `a`."""
    return np.array(a, dtype=float, order="F")


class TestSolveSpd:
    def test_identity(self):
        b = np.array([4.0, -1.0, 2.5, 0.0])
        np.testing.assert_allclose(solve_spd(workspace(np.eye(4)), b), b)

    def test_hand_2x2(self):
        # substitute back: [[2,1],[1,2]] @ [1,1] = [3,3]
        x = solve_spd(workspace([[2.0, 1.0], [1.0, 2.0]]), [3.0, 3.0])
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)

    def test_residual_8x8(self):
        rng = np.random.default_rng(17)
        g = rng.normal(size=(8, 8))
        a = g.T @ g + np.eye(8)
        b = rng.normal(size=8)
        x = solve_spd(workspace(a), b)
        assert np.abs(a @ x - b).max() <= 1e-10

    def test_residual_bound_random_sizes(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 65))
            g = rng.normal(size=(n, n))
            a = g.T @ g + np.eye(n)
            b = rng.normal(size=n)
            x = solve_spd(workspace(a), b)
            assert np.abs(a @ x - b).max() <= 1e-9 * (1 + np.abs(b).max())

    @pytest.mark.parametrize("n", [65, 130, 509])
    def test_residual_bound_across_blocks(self, n):
        # sizes past one, two and eight 64-row blocks of the substitutions
        rng = np.random.default_rng(n)
        g = rng.normal(size=(n, n))
        a = g.T @ g + np.eye(n)
        b = rng.normal(size=n)
        x = solve_spd(workspace(a), b)
        assert np.abs(a @ x - b).max() <= 1e-9 * (1 + np.abs(b).max())

    def test_dense_non_spd_names_pivot_past_first_block(self):
        # A = L D L^T with unit lower-triangular L: the first 100 pivots are
        # D's positive ones, pivot 100 is -1
        n = 130
        rng = np.random.default_rng(31)
        lower = np.tril(rng.normal(scale=0.1, size=(n, n)), -1) + np.eye(n)
        d = np.ones(n)
        d[100] = -1.0
        a = (lower * d) @ lower.T
        a = (a + a.T) / 2
        with pytest.raises(ValueError, match="positive-definite"):
            solve_spd(workspace(a), np.ones(n))

    def test_no_solution_for_a_matrix_lapack_rejects(self, monkeypatch):
        # a dposv that reports the leading minor of order 2 as not positive
        def reject(uplo, n, nrhs, a, lda, b, ldb, info, uplo_len):
            info[0] = 2

        monkeypatch.setattr(numkit, "lapack_dposv", lambda: numkit.DPOSV_TYPE(reject))
        with pytest.raises(ValueError, match="not positive-definite.*order 2"):
            solve_spd(workspace(np.eye(3)), np.ones(3))

    def test_empty_system(self):
        x = solve_spd(np.zeros((0, 0)), np.zeros(0))
        assert x.shape == (0,) and x.dtype == np.float64

    def test_not_positive_definite_names_pivot(self):
        a = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(ValueError, match="positive-definite"):
            solve_spd(workspace(a), [1.0, 1.0, 1.0])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_spd(workspace([[1.0, 2.0], [0.0, 1.0]]), [1.0, 1.0])

    @pytest.mark.parametrize(
        "factor, error, message",
        [(0.9, ValueError, "positive-definite"), (1.1, ValueError, "symmetric")],
    )
    def test_symmetry_tolerance_is_relative_to_largest_magnitude(self, factor, error, message):
        # the largest-magnitude entry, -2e6, is negative: the tolerance is
        # 1e-10 * 2e6, twice what the largest entry would give. Within it the
        # check passes and the factorization meets the negative pivot.
        a = np.array([[1e6, -2e6, 0.0], [-2e6, 1e6, 0.0], [0.0, 0.0, 1.0]])
        a[0, 1] += factor * 1e-10 * 2e6
        with pytest.raises(error, match=message):
            solve_spd(workspace(a), np.ones(3))

    @pytest.mark.parametrize("kind", ["C-ordered", "read-only", "float32"])
    def test_rejects_a_matrix_it_cannot_use_as_workspace(self, kind):
        spd = [[2.0, 1.0], [1.0, 2.0]]
        a = {
            "C-ordered": np.array(spd),
            "read-only": workspace(spd),
            "float32": np.array(spd, dtype=np.float32, order="F"),
        }[kind]
        if kind == "read-only":
            a.flags.writeable = False
        before = a.copy()
        with pytest.raises(ValueError, match="writeable Fortran-ordered float64"):
            solve_spd(a, [3.0, 3.0])
        assert np.array_equal(a, before)


class TestSolveSpdFallback(TestSolveSpd):
    """Every solve case again on the path taken where numpy's LAPACK
    exports no dposv: np.linalg.cholesky and blocked substitution."""

    @pytest.fixture(autouse=True)
    def without_dposv(self, monkeypatch):
        monkeypatch.setattr(numkit, "lapack_dposv", lambda: None)

    def test_no_solution_for_a_matrix_lapack_rejects(self, monkeypatch):
        def reject(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", reject)
        with pytest.raises(ValueError, match="not positive-definite"):
            solve_spd(workspace(np.eye(3)), np.ones(3))


class TestLapackDposv:
    def test_resolved_on_numpys_openblas(self):
        # a missed symbol would fall back silently and lose the fast path
        try:
            config = np.show_config(mode="dicts")
        except TypeError:  # an older numpy has no `mode` argument
            pytest.skip("numpy reports no build config as data")
        lapack = config["Build Dependencies"].get("lapack", {})
        if lapack.get("name") != "scipy-openblas":
            pytest.skip(f"numpy links {lapack.get('name')!r}, not scipy-openblas")
        assert numkit.lapack_dposv() is not None

    def test_factors_the_workspace_in_place(self):
        if numkit.lapack_dposv() is None:
            pytest.skip("numpy's LAPACK exports no dposv")
        rng = np.random.default_rng(37)
        g = rng.normal(size=(70, 70))
        a = g.T @ g + np.eye(70)
        b = rng.normal(size=70)
        work, b_before = workspace(a), b.copy()
        x = solve_spd(work, b)
        assert np.array_equal(b, b_before)
        np.testing.assert_allclose(np.tril(work), np.linalg.cholesky(a), rtol=0, atol=1e-12)
        assert np.abs(a @ x - b).max() <= 1e-9 * (1 + np.abs(b).max())

    def test_not_resolved_at_import(self):
        # the child imports opinesum from the same checkout as this process
        src = str(Path(numkit.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        code = "import opinesum.numkit as k; print(k.lapack_dposv.cache_info().misses)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout.strip() == "0"


class TestSeededRng:
    def test_same_seed_same_sequence(self):
        a = SeededRng(42)
        b = SeededRng(42)
        assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]

    def test_different_seed_differs(self):
        assert SeededRng(1).random() != SeededRng(2).random()

    def test_uniform_range(self):
        draws = SeededRng(7).uniform(-0.08, 0.08, 1000)
        assert draws.min() >= -0.08 and draws.max() <= 0.08

    def test_derive_seed_stable(self):
        assert derive_seed(5, "init") == derive_seed(5, "init")
        assert derive_seed(5, "init") != derive_seed(5, "shuffle")
        assert derive_seed(5, "a", 1) != derive_seed(5, "a", 2)


class TestMultinomialDraw:
    def test_degenerate(self):
        for seed in range(20):
            assert multinomial_draw([1.0, 0.0, 0.0], 1, SeededRng(seed)) == [0]

    def test_exhaustion_is_permutation(self):
        out = multinomial_draw([0.5, 1.0, 2.0, 0.25], 4, SeededRng(3))
        assert sorted(out) == [0, 1, 2, 3]

    def test_marginal_frequency(self):
        # analytic marginal: P(first draw = 0) = 3/4
        hits = 0
        n = 20000
        for seed in range(n):
            hits += multinomial_draw([3.0, 1.0], 1, SeededRng(seed)) == [0]
        assert abs(hits / n - 0.75) <= 0.02

    def test_count_exceeds_support(self):
        with pytest.raises(ValueError):
            multinomial_draw([1.0, 0.0], 2, SeededRng(0))

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            multinomial_draw([1.0, -0.5], 1, SeededRng(0))

    def test_zero_sum(self):
        with pytest.raises(ValueError):
            multinomial_draw([0.0, 0.0], 1, SeededRng(0))

    def test_uniform_chi_square(self):
        # 10k single draws over 8 equal weights; chi-square, 7 dof.
        k = 8
        n = 10000
        counts = np.zeros(k)
        rng = SeededRng(123)
        for _ in range(n):
            counts[multinomial_draw(np.ones(k), 1, rng)[0]] += 1
        expected = n / k
        stat = float(((counts - expected) ** 2 / expected).sum())
        # chi-square critical value, 7 dof, p = 0.001
        assert stat < 24.322

    def test_deterministic_sequences(self):
        a = [multinomial_draw([1, 2, 3, 4], 2, SeededRng(s)) for s in range(30)]
        b = [multinomial_draw([1, 2, 3, 4], 2, SeededRng(s)) for s in range(30)]
        assert a == b

    def test_count_zero(self):
        assert multinomial_draw([1.0, 2.0], 0, SeededRng(0)) == []
