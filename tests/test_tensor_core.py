import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtensor import tensor_core
from fairtensor.tensor_core import (
    FactorModel,
    ObservationTensor,
    cp_entries,
    cp_entry,
    masked_gradient,
    masked_loss,
    scatter_cell_gradient,
)


def brute_force_loss(u1, u2, u3, dense, lam):
    """Independent dense reference: plain Python triple loop."""
    n, m, kk = dense.shape
    sse = 0.0
    for i in range(n):
        for j in range(m):
            for k in range(kk):
                pred = sum(
                    u1[i, r] * u2[j, r] * u3[k, r] for r in range(u1.shape[1])
                )
                sse += (dense[i, j, k] - pred) ** 2
    reg = sum(float(np.sum(u * u)) for u in (u1, u2, u3))
    return 0.5 * sse + 0.5 * lam * reg


def fully_observed(dense):
    n, m, kk = dense.shape
    entries = [
        (i, j, k, float(dense[i, j, k]))
        for i in range(n)
        for j in range(m)
        for k in range(kk)
    ]
    return ObservationTensor.from_entries(n, m, kk, entries)


def random_model_and_obs(rng, observed_fraction=0.6):
    n, m, kk = (int(x) for x in rng.integers(2, 6, size=3))
    rank = int(rng.integers(1, 5))
    model = FactorModel(
        rng.random((n, rank)), rng.random((m, rank)), rng.random((kk, rank))
    )
    cells = [
        (i, j, k)
        for i in range(n)
        for j in range(m)
        for k in range(kk)
        if rng.random() < observed_fraction
    ]
    if not cells:
        cells = [(0, 0, 0)]
    obs = ObservationTensor.from_entries(
        n, m, kk, [(i, j, k, float(rng.random())) for i, j, k in cells]
    )
    return model, obs


class TestObservationTensor:
    def test_canonical_sort_and_lookup(self):
        obs = ObservationTensor.from_entries(
            2, 2, 2, [(1, 1, 1, 0.0), (0, 0, 0, 1.0), (0, 1, 0, 1.0)]
        )
        assert obs.entry_tuples() == [
            (0, 0, 0, 1.0),
            (0, 1, 0, 1.0),
            (1, 1, 1, 0.0),
        ]
        assert obs.n_entries == 3
        assert obs.sparsity == pytest.approx(3 / 8)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ObservationTensor.from_entries(2, 2, 2, [(0, 0, 0, 1.0), (0, 0, 0, 0.0)])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(IndexError):
            ObservationTensor.from_entries(2, 2, 2, [(2, 0, 0, 1.0)])
        with pytest.raises(IndexError):
            ObservationTensor.from_entries(2, 2, 2, [(-1, 0, 0, 1.0)])

    def test_from_flat_inverts_flat_indices(self):
        obs = ObservationTensor.from_entries(
            3, 4, 5, [(2, 3, 4, 0.5), (0, 0, 0, 1.0), (1, 2, 3, 0.0), (0, 3, 1, 2.0)]
        )
        flat = obs.flat_indices()
        assert flat.tolist() == [(i * 4 + j) * 5 + k for i, j, k, _ in obs.entry_tuples()]
        # entries in any order come back in canonical order
        back = ObservationTensor.from_flat(obs.shape, flat[::-1], obs.values[::-1])
        assert back.shape == obs.shape
        assert back.entry_tuples() == obs.entry_tuples()


class TestFactorModel:
    @pytest.mark.parametrize("cols", [(1, np.int64(2)), [np.int32(2), 1], (2, 1)])
    def test_integer_sensitive_cols_sorted(self, cols):
        ones = np.ones((2, 3))
        assert FactorModel(ones, ones, ones, sensitive_cols=cols).sensitive_cols == (1, 2)

    @pytest.mark.parametrize("bad", [2.9, 2.0, np.inf, -np.inf, np.nan, True, "2", None])
    def test_non_integer_sensitive_col_rejected(self, bad):
        # int(c) would turn 2.9 into 2 and end in OverflowError on inf
        ones = np.ones((2, 3))
        with pytest.raises(ValueError, match="sensitive_cols must be ints"):
            FactorModel(ones, ones, ones, sensitive_cols=(1, bad))


class TestCpEntry:
    def test_single_term_product(self):
        model = FactorModel(np.array([[2.0]]), np.array([[3.0]]), np.array([[4.0]]))
        assert cp_entry(model, 0, 0, 0) == 24.0

    def test_sum_over_columns(self):
        ones = np.ones((1, 2))
        model = FactorModel(ones, ones, ones)
        assert cp_entry(model, 0, 0, 0) == 2.0

    def test_hand_triple_sum(self):
        model = FactorModel(
            np.array([[1.0, 2.0, 0.0]]),
            np.array([[0.5, 1.0, 7.0]]),
            np.array([[2.0, 0.25, 0.0]]),
        )
        assert cp_entry(model, 0, 0, 0) == pytest.approx(1.5)

    def test_out_of_range_index(self):
        model = FactorModel(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(IndexError):
            cp_entry(model, 1, 0, 0)
        with pytest.raises(IndexError):
            cp_entry(model, 0, -1, 0)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("bad", [True, np.True_, 1.5, np.float64(0.0), "1"])
    def test_non_integer_index_rejected(self, axis, bad):
        model = FactorModel(np.ones((6, 1)), np.ones((5, 1)), np.ones((3, 1)))
        index = [0, 0, 0]
        index[axis] = bad
        with pytest.raises(IndexError, match="cell indices must be integers"):
            cp_entry(model, *index)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_negative_and_past_the_end_index_rejected(self, axis):
        model = FactorModel(np.ones((6, 1)), np.ones((5, 1)), np.ones((3, 1)))
        for bad in (-1, model.shape[axis]):
            index = [0, 0, 0]
            index[axis] = bad
            with pytest.raises(IndexError, match=f"index {bad} out of range"):
                cp_entry(model, *index)

    def test_column_partition_linearity(self):
        # the score of a cell is a sum over columns: the models built from
        # any partition of the columns sum to the full model's score
        rng = np.random.default_rng(42)
        for _ in range(25):
            model, _ = random_model_and_obs(rng)
            cut = int(rng.integers(1, model.rank + 1))
            cols = list(rng.permutation(model.rank))
            full = cp_entry(model, 0, 0, 0)
            parts = 0.0
            for part in (cols[:cut], cols[cut:]):
                if part:
                    factors = (model.u_users, model.u_curators, model.u_topics)
                    parts += cp_entry(FactorModel(*(u[:, part] for u in factors)), 0, 0, 0)
            assert parts == pytest.approx(full, rel=1e-12, abs=1e-12)


class TestMaskedLoss:
    def test_zero_factors_single_entry(self):
        obs = ObservationTensor.from_entries(1, 1, 1, [(0, 0, 0, 1.0)])
        model = FactorModel(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        assert masked_loss(model, obs, 0.0) == 0.5

    def test_exact_fit_is_zero(self):
        obs = ObservationTensor.from_entries(1, 1, 1, [(0, 0, 0, 24.0)])
        model = FactorModel(np.array([[2.0]]), np.array([[3.0]]), np.array([[4.0]]))
        assert masked_loss(model, obs, 0.0) == 0.0

    def test_hand_case_with_ridge(self):
        # prediction 0.5, total squared factor norm 3, value 2, lam 1
        obs = ObservationTensor.from_entries(1, 1, 1, [(0, 0, 0, 2.0)])
        model = FactorModel(
            np.array([[1.0, np.sqrt(0.75)]]),
            np.array([[0.5, 0.0]]),
            np.array([[1.0, 0.0]]),
        )
        assert masked_loss(model, obs, 1.0) == pytest.approx(2.625, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        obs = ObservationTensor.from_entries(2, 1, 1, [(0, 0, 0, 1.0)])
        model = FactorModel(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(ValueError):
            masked_loss(model, obs, 0.0)

    def test_matches_brute_force_when_fully_observed(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 4):
            for m in (1, 3, 4):
                for kk in (2, 4):
                    for rank in (1, 3):
                        u1 = rng.random((n, rank))
                        u2 = rng.random((m, rank))
                        u3 = rng.random((kk, rank))
                        dense = rng.random((n, m, kk))
                        got = masked_loss(
                            FactorModel(u1, u2, u3), fully_observed(dense), 0.0
                        )
                        want = brute_force_loss(u1, u2, u3, dense, 0.0)
                        assert got == pytest.approx(want, rel=1e-12)


def fd_gradient(fn, arrays, step=1e-6):
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat, gflat = arr.ravel(), g.ravel()
        for t in range(flat.size):
            orig = flat[t]
            flat[t] = orig + step
            up = fn()
            flat[t] = orig - step
            down = fn()
            flat[t] = orig
            gflat[t] = (up - down) / (2 * step)
        grads.append(g)
    return grads


def rel_err(analytic, numeric):
    num = np.sqrt(sum(float(np.sum((a - b) ** 2)) for a, b in zip(analytic, numeric)))
    den = np.sqrt(sum(float(np.sum(b * b)) for b in numeric))
    return num / max(den, 1e-12)


class TestMaskedGradient:
    def test_zero_factors_gives_ridge_only(self):
        obs = ObservationTensor.from_entries(2, 2, 1, [(0, 0, 0, 1.0), (1, 1, 0, 1.0)])
        model = FactorModel(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((1, 2)))
        for g in masked_gradient(model, obs, 0.7):
            assert np.array_equal(g, np.zeros_like(g))

    def test_perfect_fit_zero_gradient(self):
        obs = ObservationTensor.from_entries(1, 1, 1, [(0, 0, 0, 24.0)])
        model = FactorModel(np.array([[2.0]]), np.array([[3.0]]), np.array([[4.0]]))
        for g in masked_gradient(model, obs, 0.0):
            assert np.allclose(g, 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            model, obs = random_model_and_obs(rng)
            lam = float(rng.random() * 0.5)
            u1, u2, u3 = model.u_users, model.u_curators, model.u_topics
            analytic = masked_gradient(model, obs, lam)
            numeric = fd_gradient(
                lambda: masked_loss(FactorModel(u1, u2, u3), obs, lam), [u1, u2, u3]
            )
            assert rel_err(analytic, numeric) < 1e-5


class TestCpEntries:
    def model(self):
        rng = np.random.default_rng(3)
        return FactorModel(*(rng.uniform(size=(d, 2)) for d in (6, 5, 3)))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("bad", [
        [True], np.array([False, True]), [0.0], np.array([1.5]), ["0"],
    ], ids=["bool-list", "bool-mask", "float-list", "float-array", "str"])
    def test_non_integer_indices_rejected(self, axis, bad):
        index = [[0], [0], [0]]
        index[axis] = bad
        with pytest.raises(IndexError, match="cell indices must be integers"):
            cp_entries(self.model(), *index)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_negative_and_past_the_end_indices_rejected(self, axis):
        # a negative index would wrap to the last row's score
        model = self.model()
        for bad in (-1, model.shape[axis]):
            index = [[0, 1], [0, 1], [0, 1]]
            index[axis] = [1, bad]
            with pytest.raises(IndexError, match=f"index {bad} out of range"):
                cp_entries(model, *index)

    def test_unsigned_and_empty_indices_accepted(self):
        model = self.model()
        got = cp_entries(model, np.array([5], dtype=np.uint8), [4], np.array([2], dtype=np.uint64))
        assert got.tobytes() == cp_entries(model, [5], [4], [2]).tobytes()
        assert cp_entries(model, [], [], []).shape == (0,)

    def test_matches_scalar_entry(self):
        rng = np.random.default_rng(8)
        model, obs = random_model_and_obs(rng)
        batch = cp_entries(model, obs.users, obs.curators, obs.topics)
        for pos in range(obs.n_entries):
            one = cp_entry(
                model,
                int(obs.users[pos]),
                int(obs.curators[pos]),
                int(obs.topics[pos]),
            )
            assert batch[pos] == one


# derandomized and bounded, so every run draws the same examples
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)
reals = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def matrices(rows, cols):
    return st.lists(reals, min_size=rows * cols, max_size=rows * cols).map(
        lambda xs: np.array(xs, dtype=np.float64).reshape(rows, cols)
    )


class TestKernelProperties:
    @PROPERTY
    @given(st.data())
    def test_cp_entries_match_triple_loop(self, data):
        n, m, kk, rank = (data.draw(st.integers(1, 4)) for _ in range(4))
        u1, u2, u3 = (data.draw(matrices(d, rank)) for d in (n, m, kk))
        cells = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), st.integers(0, kk - 1)),
            max_size=20,
        ))
        users, curators, topics = (np.array([c[a] for c in cells], dtype=np.int64)
                                   for a in range(3))
        got = cp_entries(FactorModel(u1, u2, u3), users, curators, topics)
        assert got.shape == (len(cells),)
        for pos, (i, j, k) in enumerate(cells):
            terms = [u1[i, r] * u2[j, r] * u3[k, r] for r in range(rank)]
            assert abs(got[pos] - sum(terms)) <= 1e-12 * sum(abs(t) for t in terms)

    @PROPERTY
    @given(st.data())
    def test_scatter_across_cell_blocks_matches_add_at(self, data):
        # the running sums of many cell blocks are bit for bit one add.at
        # over every cell; random normal values round on most additions,
        # and signed zeros among the weights test the sums' start
        n, m, kk = (data.draw(st.integers(2, 4)) for _ in range(3))
        rank = data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        u1, u2, u3 = (rng.normal(size=(d, rank)) for d in (n, m, kk))
        flat = rng.choice(n * m * kk, min(n * m * kk, data.draw(st.integers(8, 40))), replace=False)
        obs = ObservationTensor.from_flat((n, m, kk), flat, np.zeros(flat.size))
        zeros = data.draw(st.lists(st.sampled_from([None, 0.0, -0.0]),
                                   min_size=obs.n_entries, max_size=obs.n_entries))
        weights = np.array([rng.normal() if z is None else z for z in zeros])
        a, b, c = u1[obs.users], u2[obs.curators], u3[obs.topics]
        w = weights[:, None]
        want = [np.zeros_like(u) for u in (u1, u2, u3)]
        np.add.at(want[0], obs.users, (w * b) * c)
        np.add.at(want[1], obs.curators, (w * a) * c)
        np.add.at(want[2], obs.topics, (w * a) * b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor_core, "CELL_BLOCK", data.draw(st.sampled_from([1, 2, 3, 7])))
            got = scatter_cell_gradient(FactorModel(u1, u2, u3), obs, weights)
        for g, ref in zip(got, want, strict=True):
            assert g.shape == ref.shape and g.tobytes() == ref.tobytes()

    @PROPERTY
    @given(st.data())
    def test_scatter_cell_gradient_is_add_at_of_its_product_order(self, data):
        # every caller's bits depend on ((w * x) * y): (w*b)*c, (w*a)*c, (w*a)*b
        n, m, kk = (data.draw(st.integers(1, 5)) for _ in range(3))
        rank = data.draw(st.integers(1, 6))
        u1, u2, u3 = (data.draw(matrices(d, rank)) for d in (n, m, kk))
        cells = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), st.integers(0, kk - 1)),
            max_size=40,
        ))
        obs = ObservationTensor.from_entries(n, m, kk, [(*c, 0.0) for c in cells])
        weights = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, -0.0]), reals),
            min_size=obs.n_entries, max_size=obs.n_entries,
        )), dtype=np.float64)
        a, b, c = u1[obs.users], u2[obs.curators], u3[obs.topics]
        w = weights[:, None]
        want = [np.zeros_like(u) for u in (u1, u2, u3)]
        np.add.at(want[0], obs.users, (w * b) * c)
        np.add.at(want[1], obs.curators, (w * a) * c)
        np.add.at(want[2], obs.topics, (w * a) * b)
        got = scatter_cell_gradient(FactorModel(u1, u2, u3), obs, weights)
        for g, ref in zip(got, want, strict=True):
            assert g.shape == ref.shape and g.tobytes() == ref.tobytes()
