import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtensor.data import (
    SensitiveMap,
    SynthConfig,
    negative_sample,
    split,
    synth_generate,
)
from fairtensor import models, tensor_core
from fairtensor.errors import ConfigError
from fairtensor.harness import _full_scope_chunks
from fairtensor.metrics import GroupedScores, group_fairness, ks, mad
from fairtensor.models import (
    TrainConfig,
    TrainedModel,
    _als,
    _converged,
    _descend,
    _fit,
    _init_factors,
    _objective,
    _parity_terms,
    _top_indices,
    load_checkpoint,
    ortho_penalty,
    parity_penalty,
    predict,
    predict_cells,
    save_checkpoint,
    score_curators,
    top_k,
    train_model,
    train_problem,
)
from fairtensor.tensor_core import (
    FactorModel,
    ObservationTensor,
    cp_entries,
    masked_gradient,
    masked_loss,
)


def fully_observed(dense):
    n, m, kk = dense.shape
    return ObservationTensor.from_entries(
        n, m, kk,
        [(i, j, k, float(dense[i, j, k]))
         for i in range(n) for j in range(m) for k in range(kk)],
    )


def biased_dataset(seed=11):
    cfg = SynthConfig(
        n_users=60, n_curators=30, n_topics=3, true_rank=3,
        group_ratio=0.5, bias_strength=0.09375, target_sparsity=0.08, seed=seed,
    )
    positives, smap, _ = synth_generate(cfg)
    sampled = negative_sample(positives, 0.008, 13)
    return split(sampled, 0.7, 13), smap


def grouped_test_scores(model, ds, smap):
    cells = ds.test
    preds = predict_cells(model, cells.users, cells.curators, cells.topics)
    groups = smap.groups[cells.curators]
    return GroupedScores(preds[groups == 0], preds[groups == 1])


class TestTrainOtc:
    def test_exact_recovery_rank2(self):
        rng = np.random.default_rng(1)
        dense = np.einsum(
            "ir,jr,kr->ijk",
            rng.standard_normal((3, 2)),
            rng.standard_normal((3, 2)),
            rng.standard_normal((3, 2)),
        )
        full = fully_observed(dense)
        model = train_model(
            "OTC", full, TrainConfig(rank=2, lam=1e-6, max_iters=2000, tol=1e-14, seed=0)
        )
        resid = full.values - predict_cells(model, full.users, full.curators, full.topics)
        assert float(np.sqrt(np.mean(resid**2))) < 1e-4

    def test_single_cell_shrinkage_below_five_percent(self):
        # ridge must stay below the init-scale column products (~1e-2) or the
        # zero fixed point of the one-cell problem attracts
        obs = ObservationTensor.from_entries(1, 1, 1, [(0, 0, 0, 1.0)])
        model = train_model(
            "OTC", obs, TrainConfig(rank=1, lam=1e-3, max_iters=500, tol=1e-13, seed=0)
        )
        assert abs(predict(model, 0, 0, 0) - 1.0) < 0.05

    def test_deterministic(self):
        ds, _ = biased_dataset()
        cfg = TrainConfig(rank=4, max_iters=20, seed=9)
        a = train_model("OTC", ds.train, cfg)
        b = train_model("OTC", ds.train, cfg)
        assert np.array_equal(a.factors.u_users, b.factors.u_users)
        assert np.array_equal(a.factors.u_curators, b.factors.u_curators)
        assert np.array_equal(a.factors.u_topics, b.factors.u_topics)
        assert a.loss_trace == b.loss_trace

    def test_loss_trace_non_increasing(self):
        ds, _ = biased_dataset()
        model = train_model(
            "OTC", ds.train, TrainConfig(rank=4, lam=0.05, max_iters=40, tol=0.0, seed=3)
        )
        steps = np.diff(model.loss_trace)
        assert steps.size > 0
        assert float(steps.max()) <= 1e-9

    def test_lam_zero_substituted_with_warning(self):
        obs = ObservationTensor.from_entries(2, 2, 1, [(0, 0, 0, 1.0), (1, 1, 0, 1.0)])
        with pytest.warns(RuntimeWarning, match="singular"):
            model = train_model("OTC", obs, TrainConfig(rank=1, lam=0.0, max_iters=5, seed=0))
        assert all(np.isfinite(v) for v in model.loss_trace)

    def test_empty_train_rejected(self):
        obs = ObservationTensor.from_entries(2, 2, 1, [])
        with pytest.raises(ConfigError):
            train_model("OTC", obs, TrainConfig(rank=1))


def _als_rows(target_idx, design, values, n_rows, ridge):
    """Reference per-row ridge solve, one ``np.linalg.solve`` per row with
    cells: rows without observations become zero."""
    rank = design.shape[1]
    out = np.zeros((n_rows, rank))
    order = np.argsort(target_idx, kind="stable")
    starts = np.searchsorted(target_idx[order], np.arange(n_rows + 1))
    eye = ridge * np.eye(rank)
    for row in range(n_rows):
        seg = order[starts[row]:starts[row + 1]]
        if seg.size == 0:
            continue
        z = design[seg]
        out[row] = np.linalg.solve(z.T @ z + eye, z.T @ values[seg])
    return out


def unblocked_fit_terms(train, factors, lam):
    """(predictions, residuals, masked ridge loss) from every cell's rows at
    once, with the kernel's one-topic rule: a slice passes no topic factor."""
    index = (train.users, train.curators, train.topics)
    rows = [u[idx] for u, idx in zip(factors, index)]
    preds = np.einsum(",".join(["er"] * len(rows)) + "->e", *rows)
    resid = preds - train.values
    reg = sum(float(np.sum(u * u)) for u in factors)
    return preds, resid, 0.5 * float(np.dot(resid, resid)) + 0.5 * lam * reg


def reference_als(train, params, cfg):
    """ALS built on :func:`_als_rows`, with ``_als``'s sweep order and stop rule."""
    index = (train.users, train.curators, train.topics)
    factors = list(params)
    trace = [unblocked_fit_terms(train, factors, cfg.lam)[2]]
    for _ in range(cfg.max_iters):
        for mode in range(len(factors)):
            others = [u[index[other]] for other, u in enumerate(factors) if other != mode]
            factors[mode] = _als_rows(index[mode], reduce(np.multiply, others),
                                      train.values, factors[mode].shape[0], cfg.lam)
        trace.append(unblocked_fit_terms(train, factors, cfg.lam)[2])
        if _converged(trace[-2], trace[-1], cfg.tol):
            break
    return factors, trace


@st.composite
def als_problems(draw, min_lam=1e-3):
    """A small problem with empty and one-cell rows, possibly a one-topic
    slice (two free blocks), its initial factors and a config."""
    one_topic = draw(st.booleans())
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    kk = 1 if one_topic else draw(st.integers(1, 4))
    cells = sorted(draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), st.integers(0, kk - 1)),
        min_size=1, max_size=30,
    )))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train = ObservationTensor.from_entries(
        n, m, kk, [(i, j, k, float(v)) for (i, j, k), v in zip(cells, rng.normal(size=len(cells)))]
    )
    rank = draw(st.integers(1, 6))
    shape = (n, m) if one_topic else (n, m, kk)
    params = [rng.uniform(0.0, 1.0, size=(d, rank)) for d in shape]
    cfg = TrainConfig(rank=rank, lam=draw(st.floats(min_lam, 1.0)),
                      max_iters=draw(st.integers(1, 4)), tol=draw(st.sampled_from([0.0, 1e-3])))
    return train, params, cfg


def _mid_size(one_topic):
    """About 1,000 random cells of 120 x 40 x 3: 120 users in 14 or 15
    buckets, the largest of about 20 rows."""
    shape = (120, 40, 1 if one_topic else 3)
    flat = np.random.default_rng(8).choice(np.prod(shape), 1000, replace=False)
    cells = sorted(zip(*(i.tolist() for i in np.unravel_index(flat, shape))))
    return shape, cells, lambda c: np.bincount(c[0]).max() >= 16


def _one_length(one_topic):
    """Every cell observed: each mode's rows all have one length."""
    shape = (9, 6, 1 if one_topic else 3)
    cells = [(i, j, k) for i in range(9) for j in range(6) for k in range(shape[2])]
    return shape, cells, lambda c: all(np.unique(x).size == 1 for x in c)


def _all_lengths(one_topic):
    """The triangle j <= i in topic 0: user i has i + 1 cells, curator j has
    12 - j, so no two users' or curators' rows have one length."""
    shape = (12, 12, 1 if one_topic else 2)
    cells = [(i, j, 0) for i in range(12) for j in range(i + 1)]
    return shape, cells, lambda c: all(np.unique(x).size == x.size for x in c[:2])


def _ones_and_empty(one_topic):
    """Even users and curators have one cell each, odd ones none, and
    (for the tensor) topic 2 none."""
    shape = (10, 10, 1 if one_topic else 3)
    cells = [(i, i, 0 if one_topic else i // 2 % 2) for i in range(0, 10, 2)]
    return shape, cells, lambda c: all(set(x[::2]) == {1} and set(x[1::2]) == {0} for x in c[:2])


def _design_edge(one_topic):
    """12 cells of 4 x 3 x 3: the user mode's 3 x 3 curator-topic pairs are
    fewer than the cells, so it takes its design rows from a table; the
    curator and topic modes' 4 x 3 pairs equal the cells, so they gather.
    The one-topic slice observes every cell of 4 x 3."""
    shape = (4, 3, 1 if one_topic else 3)
    cells = [(i, j, 0 if one_topic else (i * j) % 3) for i in range(4) for j in range(3)]
    if one_topic:
        return shape, cells, lambda c: c[0].sum() == 12
    return shape, cells, lambda c: c[1].size * c[2].size < c[0].sum() == c[0].size * c[1].size


def _dense_topics(one_topic):
    """Every cell of 3 x 2 x 8 but user 2's last five topics: every mode,
    the topics too, has fewer row pairs of its other modes than cells, so
    each takes its design rows from a table, and topic rows differ in length."""
    shape = (3, 2, 1 if one_topic else 8)
    cells = [(i, j, k) for i in range(3) for j in range(2) for k in range(shape[2])
             if not (i == 2 and k >= 3)]
    if one_topic:
        return shape, cells, lambda c: c[0].sum() == 6
    return shape, cells, lambda c: c[0].size * c[1].size < c[0].sum() and np.unique(c[2]).size > 1


BUCKET_CASES = {"mid_size": _mid_size, "one_length": _one_length,
                "all_lengths": _all_lengths, "ones_and_empty": _ones_and_empty,
                "design_edge": _design_edge, "dense_topics": _dense_topics}

ALS_PROPERTY = settings(derandomize=True, deadline=None, max_examples=80, database=None)


class TestAlsKernel:
    @ALS_PROPERTY
    @given(als_problems())
    def test_bit_equal_to_per_row_reference(self, problem):
        train, params, cfg = problem
        got, got_trace = _als(train, params, cfg)
        want, want_trace = reference_als(train, params, cfg)
        assert got_trace == want_trace
        for g, w in zip(got, want, strict=True):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @ALS_PROPERTY
    @given(als_problems(min_lam=0.05))
    def test_rows_match_ridge_lstsq(self, problem):
        train, params, cfg = problem
        cfg = replace(cfg, max_iters=1)
        out, _ = _als(train, params, cfg)
        index = (train.users, train.curators, train.topics)
        for mode in range(len(out)):
            # a sweep solves mode `mode` against the already-updated earlier modes
            current = [out[o] if o < mode else params[o] for o in range(len(out))]
            for row in np.unique(index[mode]):
                cells = index[mode] == row
                z = reduce(np.multiply, [u[index[o][cells]] for o, u in enumerate(current)
                                         if o != mode])
                aug = np.vstack([z, np.sqrt(cfg.lam) * np.eye(cfg.rank)])
                y = np.concatenate([train.values[cells], np.zeros(cfg.rank)])
                want = np.linalg.lstsq(aug, y, rcond=None)[0]
                # ||aug^+|| <= 1/sqrt(lam): a stable solve's error is relative to this scale
                scale = np.linalg.norm(want) + np.linalg.norm(y) / np.sqrt(cfg.lam)
                assert np.linalg.norm(out[mode][row] - want) <= 1e-10 * scale

    @pytest.mark.parametrize("one_topic", [False, True])
    @pytest.mark.parametrize("case", sorted(BUCKET_CASES))
    def test_bucket_plans_bit_equal_to_reference(self, case, one_topic):
        shape, cells, lengths = BUCKET_CASES[case](one_topic)
        rng = np.random.default_rng(5)
        values = rng.normal(size=len(cells)).tolist()
        train = ObservationTensor.from_entries(
            *shape, [(i, j, k, v) for (i, j, k), v in zip(cells, values)]
        )
        index = (train.users, train.curators, train.topics)
        counts = [np.bincount(index[mode], minlength=shape[mode]) for mode in range(3)]
        assert lengths(counts), f"{case} does not have the row lengths it is named for"
        free = shape[:2] if one_topic else shape
        params = [rng.uniform(0.0, 1.0, size=(d, 5)) for d in free]
        cfg = TrainConfig(rank=5, lam=0.05, max_iters=3, tol=0.0)
        got, got_trace = _als(train, params, cfg)
        want, want_trace = reference_als(train, params, cfg)
        assert got_trace == want_trace
        for g, w in zip(got, want, strict=True):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("one_topic", [False, True])
    @pytest.mark.parametrize("case", sorted(BUCKET_CASES))
    def test_bucket_plans_bit_equal_across_cell_blocks(self, case, one_topic, monkeypatch):
        # the loss and each gathered design, seven cells at a time
        monkeypatch.setattr(tensor_core, "CELL_BLOCK", 7)
        self.test_bucket_plans_bit_equal_to_reference(case, one_topic)

    @pytest.mark.parametrize("one_topic", [False, True])
    def test_rows_without_cells_are_zero(self, one_topic):
        # users 1 and 3, curator 0 and (for the tensor) topic 1 have no cells
        entries = [(0, 1, 0, 1.0), (2, 2, 0, 0.5), (2, 1, 2, -1.0), (0, 2, 2, 2.0)]
        if one_topic:
            entries = [(i, j, 0, v) for i, j, _, v in entries[:2]]
        kk = 1 if one_topic else 3
        train = ObservationTensor.from_entries(4, 3, kk, entries)
        shape = (4, 3) if one_topic else (4, 3, kk)
        params = [np.full((d, 2), 0.5) for d in shape]
        out, _ = _als(train, params, TrainConfig(rank=2, lam=0.1, max_iters=3, tol=0.0))
        empty = [[1, 3], [0]] + ([] if one_topic else [[1]])
        for u, rows in zip(out, empty, strict=True):
            assert u[rows].tobytes() == np.zeros((len(rows), 2)).tobytes()
            assert np.all(np.delete(u, rows, axis=0) != 0.0)


def reference_objective(train, cfg, params, groups=None, s=None):
    """``_objective`` without a plan or cell blocks: each call gathers every
    cell's rows, multiplies every parameter's contribution by the residual
    afresh and adds it up with ``np.add.at``, which adds in cell order."""
    index = (train.users, train.curators, train.topics)
    is0 = None if groups is None else groups[train.curators] == 0

    def objective(params):
        factors = params if s is None else [params[0], np.hstack([params[1], s]), *params[2:]]
        preds, resid, value = unblocked_fit_terms(train, factors, cfg.lam)
        if is0 is not None:
            parity, cell_weights = _parity_terms(preds, is0, cfg.parity_weight)
            value += parity
            resid = resid + cell_weights
        rows = [u[idx] for u, idx in zip(factors, index)]
        grads = []
        for mode, p in enumerate(params):
            others = [r[:, : p.shape[1]] for other, r in enumerate(rows) if other != mode]
            c = resid[:, None] * others[0]
            for x in others[1:]:
                c = c * x
            g = np.zeros(p.shape)
            np.add.at(g, index[mode], c)
            grads.append(g + cfg.lam * p)
        if s is not None:
            ortho, g_ortho = ortho_penalty(params[1], s, cfg.ortho_weight)
            value += ortho
            grads[1] = grads[1] + g_ortho
        return value, grads

    return objective


# (shape, one-topic slice, rank, widest scatter bins): a block's bins are
# stored in the narrowest type that holds its rows times its width
OBJECTIVE_CASES = {
    "tensor_uint8": ((6, 5, 3), False, 4, np.uint8),
    "tensor_uint16": ((70, 40, 3), False, 5, np.uint16),
    "tensor_uint32": ((14000, 9, 4), False, 5, np.uint32),
    "slice_uint8": ((8, 6, 1), True, 4, np.uint8),
    "slice_uint16": ((9, 3000, 1), True, 5, np.uint16),
    "slice_uint32": ((17000, 9, 1), True, 4, np.uint32),
}


class TestObjectivePlan:
    @pytest.mark.parametrize("term", ["plain", "parity", "ortho"])
    @pytest.mark.parametrize("case", sorted(OBJECTIVE_CASES))
    def test_descent_bit_equal_to_per_call_reference(self, case, term, monkeypatch):
        # every case at cell blocks of 1 and 7 cells too, so it spans many blocks
        for block in (1, 7, tensor_core.CELL_BLOCK):
            monkeypatch.setattr(tensor_core, "CELL_BLOCK", block)
            self.check_descent(case, term)

    def check_descent(self, case, term):
        shape, one_topic, rank, widest = OBJECTIVE_CASES[case]
        rng = np.random.default_rng(sorted(OBJECTIVE_CASES).index(case))
        flat = rng.choice(np.prod(shape), min(60, np.prod(shape) // 2), replace=False)
        cells = set(zip(*(i.tolist() for i in np.unravel_index(flat, shape))))
        cells |= {(0, 0, 0), (0, 1, 0)}  # both curator groups have cells
        train = ObservationTensor.from_entries(
            *shape, [(i, j, k, float(v)) for (i, j, k), v in
                     zip(sorted(cells), rng.normal(size=len(cells)))]
        )
        groups = np.arange(shape[1]) % 2
        s = np.eye(2)[groups] if term == "ortho" else None
        free = shape[:2] if one_topic else shape
        params = [rng.uniform(0.0, 0.5, size=(d, rank)) for d in free]
        if s is not None:  # the FT/FM split: the curator block is two columns narrower
            params[1] = params[1][:, :-2]
        assert max(np.min_scalar_type(p.size) for p in params) == widest
        cfg = TrainConfig(rank=rank, lam=0.01, parity_weight=10.0, ortho_weight=0.5)
        extra = {"parity": {"groups": groups}, "ortho": {"s": s}}.get(term, {})
        got_fn = _objective(train, cfg, params, **extra)
        want_fn = reference_objective(train, cfg, params, **extra)
        for _ in range(5):
            (got, got_grads), (want, want_grads) = got_fn(params), want_fn(params)
            assert math.isfinite(want) and got == want, tensor_core.CELL_BLOCK
            for g, w in zip(got_grads, want_grads, strict=True):
                assert g.tobytes() == w.tobytes(), tensor_core.CELL_BLOCK
            params = [p - 0.01 * g for p, g in zip(params, want_grads)]


class TestCellBlockMemory:
    """A problem's buffers are cell blocks, whatever its cell count: no GD
    objective holds a (cells, rank) array, and ALS holds one, its design."""

    RANK = 20

    def problem(self):
        # 60,000 cells: one (cells, rank) float64 array takes 9.6 MB, one
        # cell block's rows 0.3 MB
        shape = (300, 200, 10)
        rng = np.random.default_rng(11)
        flat = rng.choice(np.prod(shape), 60_000, replace=False)
        return ObservationTensor.from_flat(shape, flat, rng.uniform(size=flat.size))

    def test_objective_holds_no_cells_by_rank_array(self):
        train = self.problem()
        cfg = TrainConfig(rank=self.RANK)
        params = _init_factors(np.random.default_rng(0), train.shape, self.RANK)
        groups = np.arange(train.n_curators) % 2
        tracemalloc.start()
        try:
            _objective(train, cfg, params, groups=groups)(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < train.n_entries * self.RANK * 8

    def test_als_holds_one_cells_by_rank_array(self):
        train = self.problem()
        cfg = TrainConfig(rank=self.RANK, max_iters=1)
        tracemalloc.start()
        try:
            train_problem("OTC", train, cfg, None, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * train.n_entries * self.RANK * 8


class TestTrainRtc:
    def test_gamma_zero_equals_plain_gradient_descent(self):
        ds, smap = biased_dataset()
        cfg = TrainConfig(rank=4, lam=0.01, parity_weight=0.0,
                          learning_rate=0.005, max_iters=50, tol=1e-5, seed=4)
        fair = train_model("RTC", ds.train, cfg, smap)

        rng = np.random.default_rng(4)
        params = _init_factors(rng, ds.train.shape, 4)
        params, trace = _descend(
            params,
            lambda p: (
                masked_loss(FactorModel(*p), ds.train, 0.01),
                list(masked_gradient(FactorModel(*p), ds.train, 0.01)),
            ),
            cfg,
        )
        assert list(fair.loss_trace) == trace
        assert np.array_equal(fair.factors.u_users, params[0])
        assert np.array_equal(fair.factors.u_curators, params[1])
        assert np.array_equal(fair.factors.u_topics, params[2])

    def test_group_mean_gap_shrinks_with_gamma(self):
        ds, smap = biased_dataset()
        gaps = []
        for gamma in (0.0, 10.0, 1000.0):
            model = train_model(
                "RTC", ds.train,
                TrainConfig(rank=6, lam=0.01, parity_weight=gamma,
                            learning_rate=0.005, max_iters=300, tol=0.0, seed=2),
                smap,
            )
            preds = predict_cells(model, ds.train.users, ds.train.curators, ds.train.topics)
            g = smap.groups[ds.train.curators]
            gaps.append(abs(float(preds[g == 0].mean() - preds[g == 1].mean())))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_parity_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        model = FactorModel(rng.random((4, 3)), rng.random((5, 3)), rng.random((2, 3)))
        obs = ObservationTensor.from_entries(
            4, 5, 2,
            [(i, j, k, float(rng.random()))
             for i in range(4) for j in range(5) for k in range(2)
             if rng.random() < 0.5] or [(0, 0, 0, 1.0)],
        )
        groups = np.array([0, 1, 0, 1, 0])
        gamma = 2.5
        u1, u2, u3 = model.u_users, model.u_curators, model.u_topics
        _, analytic = parity_penalty(model, obs, groups, gamma)

        def value():
            return parity_penalty(FactorModel(u1, u2, u3), obs, groups, gamma)[0]

        step = 1e-6
        worst = 0.0
        for arr, g in zip((u1, u2, u3), analytic):
            flat = arr.ravel()
            for t in range(flat.size):
                orig = flat[t]
                flat[t] = orig + step
                up = value()
                flat[t] = orig - step
                down = value()
                flat[t] = orig
                fd = (up - down) / (2 * step)
                worst = max(worst, abs(fd - g.ravel()[t]))
        assert worst < 1e-5

    def test_fused_gradient_matches_kernels(self):
        ds, smap = biased_dataset()
        rng = np.random.default_rng(3)
        params = [rng.random((d, 4)) for d in ds.train.shape]
        cfg = TrainConfig(rank=4, lam=0.01, parity_weight=2.5)
        value, grads = _objective(ds.train, cfg, params, groups=smap.groups)(params)
        model = FactorModel(*params)
        parity, g_parity = parity_penalty(model, ds.train, smap.groups, 2.5)
        assert value == masked_loss(model, ds.train, 0.01) + parity
        for g, g_data, g_par in zip(grads, masked_gradient(model, ds.train, 0.01), g_parity):
            ref = g_data + g_par
            assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_missing_group_rejected(self):
        ds, _ = biased_dataset()
        all_zero = SensitiveMap(groups=np.zeros(30, dtype=int))
        with pytest.raises(ConfigError, match="group"):
            train_model("RTC", ds.train, TrainConfig(rank=3, max_iters=5), all_zero)

    def test_loss_decreases(self):
        ds, smap = biased_dataset()
        model = train_model("RTC", ds.train, TrainConfig(rank=4, max_iters=50, seed=1), smap)
        assert model.loss_trace[-1] < model.loss_trace[0]

    def test_recovers_fully_observed_positive_tensor(self):
        rng = np.random.default_rng(17)
        dense = np.einsum(
            "ir,jr,kr->ijk",
            rng.uniform(0.2, 1.0, (4, 2)),
            rng.uniform(0.2, 1.0, (4, 2)),
            rng.uniform(0.2, 1.0, (3, 2)),
        )
        full = fully_observed(dense)
        smap = SensitiveMap(groups=np.array([0, 1, 0, 1]))
        model = train_model(
            "RTC", full,
            TrainConfig(rank=2, lam=1e-6, parity_weight=0.0,
                        learning_rate=0.1, max_iters=20000, tol=0.0, seed=3),
            smap,
        )
        resid = full.values - predict_cells(model, full.users, full.curators, full.topics)
        assert float(np.sqrt(np.mean(resid**2))) < 1e-3


def ft_style_ground_truth(rng, n, m, kk, smap):
    """Dense tensor drawn from the FT model family itself."""
    s = smap.matrix
    t1 = rng.uniform(0.2, 1.0, (n, 4))
    t3 = rng.uniform(0.2, 1.0, (kk, 4))
    t2 = rng.uniform(0.2, 1.0, (m, 4))
    t2[:, 2:] = s
    t2[:, :2] -= s @ np.linalg.solve(s.T @ s, s.T @ t2[:, :2])
    return np.einsum("ir,jr,kr->ijk", t1, t2, t3)


class TestTrainFt:
    def train_small(self, seed=2, **kw):
        ds, smap = biased_dataset()
        base = dict(rank=6, lam=0.01, ortho_weight=1.0, learning_rate=0.005,
                    max_iters=400, tol=0.0, seed=seed)
        base.update(kw)
        return train_model("FT", ds.train, TrainConfig(**base), smap), ds, smap

    def test_sensitive_columns_equal_features_bitwise(self):
        model, _, smap = self.train_small()
        f = model.factors
        assert f.sensitive_cols == (4, 5)
        assert np.array_equal(f.u_curators[:, [4, 5]], smap.matrix)

    def test_projection_residual_max_entry(self):
        model, _, smap = self.train_small()
        f = model.factors
        u_ns = f.u_curators[:, list(f.nonsensitive_cols)]
        assert float(np.abs(smap.matrix.T @ u_ns).max()) <= 1e-10

    def test_projection_residual_norm_bound(self):
        model, _, smap = self.train_small()
        f = model.factors
        u_ns = f.u_curators[:, list(f.nonsensitive_cols)]
        assert np.linalg.norm(smap.matrix.T @ u_ns) <= 1e-9 * np.linalg.norm(u_ns)

    def test_predictions_ignore_sensitive_columns_bitwise(self):
        model, ds, _ = self.train_small()
        probe = ds.test
        before = predict_cells(model, probe.users, probe.curators, probe.topics)
        f = model.factors
        tampered_u2 = f.u_curators.copy()
        tampered_u2[:, list(f.sensitive_cols)] = -7.25
        tampered = replace(
            model,
            factors=FactorModel(f.u_users, tampered_u2, f.u_topics,
                                sensitive_cols=f.sensitive_cols),
        )
        after = predict_cells(tampered, probe.users, probe.curators, probe.topics)
        assert np.array_equal(before, after)

    def test_fairer_than_otc_on_biased_data(self):
        model, ds, smap = self.train_small()
        otc = train_model("OTC", ds.train, TrainConfig(rank=6, lam=0.01, max_iters=200, seed=2))
        assert ks(grouped_test_scores(model, ds, smap), 50) < ks(
            grouped_test_scores(otc, ds, smap), 50
        )

    def test_rank_too_small_rejected(self):
        ds, smap = biased_dataset()
        with pytest.raises(ConfigError, match="rank"):
            train_model("FT", ds.train, TrainConfig(rank=2, max_iters=5), smap)

    def test_extra_sensitive_cols_layout(self):
        model, _, smap = self.train_small(rank=4, extra_sensitive_cols=True, max_iters=20)
        f = model.factors
        assert f.rank == 6
        assert f.sensitive_cols == (4, 5)
        assert np.array_equal(f.u_curators[:, [4, 5]], smap.matrix)

    def test_ortho_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        groups = np.array([0, 1, 1, 0, 1])
        s = SensitiveMap(groups=groups).matrix
        u2 = rng.random((5, 3))  # the free block
        mu = 3.0
        _, analytic = ortho_penalty(u2, s, mu)
        step = 1e-6
        flat = u2.ravel()
        worst = 0.0
        for t in range(flat.size):
            orig = flat[t]
            flat[t] = orig + step
            up = ortho_penalty(u2, s, mu)[0]
            flat[t] = orig - step
            down = ortho_penalty(u2, s, mu)[0]
            flat[t] = orig
            worst = max(worst, abs((up - down) / (2 * step) - analytic.ravel()[t]))
        assert worst < 1e-5

    def test_objective_keeps_sensitive_columns_constant(self):
        # the features join the free curator block: same value and free-block
        # gradient as the kernels on the whole factor, no sensitive gradient
        ds, smap = biased_dataset()
        rng = np.random.default_rng(4)
        s = smap.matrix
        u1, u2, u3 = (rng.random((d, 6)) for d in ds.train.shape)
        u2[:, 4:] = s
        cfg = TrainConfig(rank=6, lam=0.01, ortho_weight=1.0)
        params = [u1, u2[:, :4], u3]
        value, grads = _objective(ds.train, cfg, params, s=s)(params)
        model = FactorModel(u1, u2, u3)
        ortho, g_ortho = ortho_penalty(u2[:, :4], s, 1.0)
        assert value == masked_loss(model, ds.train, 0.01) + ortho
        g1, g2, g3 = masked_gradient(model, ds.train, 0.01)
        assert np.array_equal(grads[0], g1)
        assert np.array_equal(grads[1], g2[:, :4] + g_ortho)
        assert np.array_equal(grads[2], g3)

    def test_recovers_ft_generated_tensor(self):
        rng = np.random.default_rng(21)
        smap = SensitiveMap(groups=np.array([0, 1, 0, 1]))
        dense = ft_style_ground_truth(rng, 4, 4, 3, smap)
        full = fully_observed(dense)
        model = train_model(
            "FT", full,
            TrainConfig(rank=4, lam=1e-6, ortho_weight=1.0,
                        learning_rate=0.12, max_iters=30000, tol=0.0, seed=3),
            smap,
        )
        pred_all = cp_entries(model.factors, full.users, full.curators, full.topics)
        assert float(np.sqrt(np.mean((full.values - pred_all) ** 2))) < 1e-3


class TestTrainMatrix:
    def test_degenerate_single_topic_matches_slice_trainer(self):
        ds, smap = biased_dataset()
        mask = ds.train.topics == 0
        single = ObservationTensor(
            ds.train.n_users, ds.train.n_curators, 1,
            ds.train.users[mask], ds.train.curators[mask],
            np.zeros(int(mask.sum()), dtype=int), ds.train.values[mask],
        )
        cfg = TrainConfig(rank=4, max_iters=30, seed=5)
        whole = train_model("OMC", single, cfg)
        rng = np.random.default_rng(cfg.seed)
        params, trace = _fit("OTC", single, None, cfg, _init_factors(rng, single.shape[:2], 4))
        sl = whole.slices[0]
        assert np.array_equal(sl.u_users, params[0])
        assert np.array_equal(sl.u_curators, params[1])
        assert np.array_equal(sl.u_topics, np.ones((1, 4)))
        assert whole.slice_traces[0] == tuple(trace)

    def test_fm_single_topic_matches_slice_trainer(self):
        ds, smap = biased_dataset()
        mask = ds.train.topics == 1
        single = ObservationTensor(
            ds.train.n_users, ds.train.n_curators, 1,
            ds.train.users[mask], ds.train.curators[mask],
            np.zeros(int(mask.sum()), dtype=int), ds.train.values[mask],
        )
        cfg = TrainConfig(rank=5, ortho_weight=1.0, learning_rate=0.005,
                          max_iters=50, tol=0.0, seed=5)
        whole = train_model("FM", single, cfg, smap)
        rng = np.random.default_rng(cfg.seed)
        params, _ = _fit("FT", single, smap, cfg, _init_factors(rng, single.shape[:2], 5))
        sl = whole.slices[0]
        assert np.array_equal(sl.u_users, params[0])
        assert np.array_equal(sl.u_curators, params[1])
        assert np.array_equal(sl.u_topics, np.ones((1, 5)))
        assert sl.sensitive_cols == (3, 4)

    def test_fm_fairer_than_omc_on_biased_data(self):
        ds, smap = biased_dataset()
        omc = train_model("OMC", ds.train, TrainConfig(rank=6, max_iters=200, seed=2))
        fm = train_model(
            "FM", ds.train,
            TrainConfig(rank=6, ortho_weight=1.0, learning_rate=0.005,
                        max_iters=400, tol=0.0, seed=2),
            smap,
        )
        assert ks(grouped_test_scores(fm, ds, smap), 50) < ks(
            grouped_test_scores(omc, ds, smap), 50
        )

    def test_empty_topic_slice_predicts_zero(self):
        obs = ObservationTensor.from_entries(
            3, 3, 2, [(0, 0, 0, 1.0), (1, 1, 0, 1.0), (2, 2, 0, 0.0)]
        )
        model = train_model("OMC", obs, TrainConfig(rank=2, max_iters=10, seed=0))
        assert model.slice_traces[1] == ()
        for i in range(3):
            for j in range(3):
                assert predict(model, i, j, 1) == 0.0

    def test_empty_slice_fm_keeps_features(self):
        obs = ObservationTensor.from_entries(3, 4, 2, [(0, 0, 0, 1.0), (1, 1, 0, 1.0)])
        smap = SensitiveMap(groups=np.array([0, 1, 0, 1]))
        model = train_model(
            "FM", obs, TrainConfig(rank=4, max_iters=10, tol=0.0, seed=0), smap
        )
        empty = model.slices[1]
        assert np.array_equal(empty.u_curators[:, [2, 3]], smap.matrix)
        assert predict(model, 0, 0, 1) == 0.0

    def test_rmc_slice_missing_group_rejected(self):
        # topic 0 only touches group-0 curators
        obs = ObservationTensor.from_entries(
            2, 4, 1, [(0, 0, 0, 1.0), (1, 1, 0, 1.0)]
        )
        smap = SensitiveMap(groups=np.array([0, 0, 1, 1]))
        with pytest.raises(ConfigError, match="topic 0"):
            train_model("RMC", obs, TrainConfig(rank=2, max_iters=5), smap)

    def test_fm_one_group_map_rejected(self):
        obs = ObservationTensor.from_entries(
            2, 4, 1, [(0, 0, 0, 1.0), (1, 1, 0, 1.0), (0, 2, 0, 0.0)]
        )
        smap = SensitiveMap(groups=np.zeros(4, dtype=int))
        with pytest.raises(ConfigError, match="one group"):
            train_model("FM", obs, TrainConfig(rank=3, max_iters=5), smap)

    def test_fm_predictions_ignore_sensitive_columns_bitwise(self):
        ds, smap = biased_dataset()
        model = train_model(
            "FM", ds.train,
            TrainConfig(rank=5, learning_rate=0.005, max_iters=50, tol=0.0, seed=2),
            smap,
        )
        probe = ds.test
        before = predict_cells(model, probe.users, probe.curators, probe.topics)
        tampered_slices = []
        for sl in model.slices:
            u2 = sl.u_curators.copy()
            u2[:, list(sl.sensitive_cols)] = -7.25
            tampered_slices.append(replace(sl, u_curators=u2))
        tampered = replace(model, slices=tuple(tampered_slices))
        after = predict_cells(tampered, probe.users, probe.curators, probe.topics)
        assert np.array_equal(before, after)

    def test_omc_recovery(self):
        rng = np.random.default_rng(30)
        dm = rng.uniform(0.2, 1.0, (5, 2)) @ rng.uniform(0.2, 1.0, (6, 2)).T
        full = ObservationTensor.from_entries(
            5, 6, 1, [(i, j, 0, float(dm[i, j])) for i in range(5) for j in range(6)]
        )
        model = train_model(
            "OMC", full, TrainConfig(rank=2, lam=1e-6, max_iters=2000, tol=1e-14, seed=3)
        )
        resid = full.values - predict_cells(model, full.users, full.curators, full.topics)
        assert float(np.sqrt(np.mean(resid**2))) < 1e-3

    def test_deterministic(self):
        ds, smap = biased_dataset()
        cfg = TrainConfig(rank=4, max_iters=20, seed=7)
        a = train_model("RMC", ds.train, cfg, smap)
        b = train_model("RMC", ds.train, cfg, smap)
        for sa, sb in zip(a.slices, b.slices):
            assert np.array_equal(sa.u_users, sb.u_users)
            assert np.array_equal(sa.u_curators, sb.u_curators)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestTrainProblem:
    """``train_problem`` of each index is that problem inside ``train_model``."""

    @staticmethod
    def topic_1_empty():
        """The biased set without topic 1's entries: an empty slice before a
        non-empty one, which the replay of the init generator must skip."""
        ds, smap = biased_dataset()
        return ds.train.subset(np.flatnonzero(ds.train.topics != 1)), smap

    @staticmethod
    def sequential_fits(kind, train, cfg, smap):
        """Every non-empty problem's (factors, trace) in one pass, drawing
        each init from one generator in topic order: the reference that
        train_problem's replay must reproduce."""
        rng = np.random.default_rng(cfg.seed)
        width = cfg.fair_layout()[0] if kind in models.FAIR_KINDS else cfg.rank
        if kind in models.TENSOR_KINDS:
            return {0: _fit(kind, train, smap, cfg, _init_factors(rng, train.shape, width))}
        fits = {}
        for topic in range(train.n_topics):
            mask = train.topics == topic
            if mask.any():
                single = ObservationTensor(
                    train.n_users, train.n_curators, 1, train.users[mask],
                    train.curators[mask], np.zeros(int(mask.sum()), dtype=int), train.values[mask],
                )
                fits[topic] = _fit(kind, single, smap, cfg,
                                   _init_factors(rng, single.shape[:2], width))
        return fits

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_every_problem_equals_train_model_bit_for_bit(self, kind):
        train, smap = self.topic_1_empty()
        cfg = TrainConfig(rank=4, max_iters=15, seed=3)
        model = train_model(kind, train, cfg, smap)
        if kind in models.TENSOR_KINDS:
            stored = [([f.u_users, f.u_curators, f.u_topics], model.loss_trace)
                      for f in (model.factors,)]
        else:
            stored = [([f.u_users, f.u_curators], trace)
                      for f, trace in zip(model.slices, model.slice_traces)]
            assert len(stored) == 3 and stored[1][1] == () and stored[2][1] != ()
        reference = self.sequential_fits(kind, train, cfg, smap)
        assert set(reference) == {i for i, (_, trace) in enumerate(stored) if trace}
        for index, (factors, trace) in enumerate(stored):
            params, got = train_problem(kind, train, cfg, smap, index)
            assert got == trace
            assert len(params) == len(factors)
            assert all(same_bits(a, b) for a, b in zip(params, factors))
            if index in reference:
                ref_params, ref_trace = reference[index]
                assert got == tuple(ref_trace)
                assert all(same_bits(a, b) for a, b in zip(params, ref_params))
        with pytest.raises(IndexError):
            train_problem(kind, train, cfg, smap, len(stored))

    @pytest.mark.parametrize("kind", models.MATRIX_KINDS)
    def test_problems_after_three_empty_topics(self, kind):
        # the biased set's three topics, split by user parity, fill topics
        # 0-2 and 6-8 of nine: topics 3-5 are empty, and topic 8 has five
        # non-empty slices before it whose inits the generator must skip
        ds, smap = biased_dataset()
        train = ds.train
        topics = np.array([0, 1, 2, 6, 7, 8])[train.topics + 3 * (train.users % 2)]
        train = ObservationTensor(train.n_users, train.n_curators, 9, train.users,
                                  train.curators, topics, train.values)
        cfg = TrainConfig(rank=4, max_iters=15, seed=3)
        reference = self.sequential_fits(kind, train, cfg, smap)
        assert sorted(reference) == [0, 1, 2, 6, 7, 8]
        for index in range(9):
            params, trace = train_problem(kind, train, cfg, smap, index)
            if index not in reference:
                assert trace == ()
                continue
            ref_params, ref_trace = reference[index]
            assert trace == tuple(ref_trace) != ()
            assert all(same_bits(a, b) for a, b in zip(params, ref_params))

    @pytest.mark.parametrize("kind", models.MATRIX_KINDS)
    def test_empty_slice_is_zero_and_fm_keeps_features(self, kind):
        train, smap = self.topic_1_empty()
        params, trace = train_problem(kind, train, TrainConfig(rank=4, max_iters=5), smap, 1)
        assert trace == ()
        assert [p.shape for p in params] == [(train.n_users, 4), (train.n_curators, 4)]
        assert not params[0].any()
        if kind == "FM":
            assert not params[1][:, :2].any()
            assert np.array_equal(params[1][:, 2:], smap.matrix)
        else:
            assert not params[1].any()


def reference_scores(model):
    """Dense (user, curator, topic) scores by plain Python sums over the
    stored predicting columns, and each sum's magnitude sum_c |term_c|."""
    n, m, kk = model.shape
    fair = model.kind in ("FT", "FM")
    ref, mag = np.zeros((n, m, kk)), np.zeros((n, m, kk))
    for k in range(kk):
        f, topic = (model.factors, k) if model.factors is not None else (model.slices[k], 0)
        u, v, t = f.u_users, f.u_curators, f.u_topics[topic]
        sens = f.sensitive_cols
        cols = [c for c in range(u.shape[1]) if not (fair and c in sens)]
        for i in range(n):
            for j in range(m):
                terms = [float(u[i, c]) * float(v[j, c]) * float(t[c]) for c in cols]
                ref[i, j, k] = sum(terms)
                mag[i, j, k] = sum(abs(x) for x in terms)
    return ref, mag


class TestScoringPath:
    """Every kind's scores against a plain-Python reference, to 1e-12 of the
    magnitude of each cell's terms (rank-sized sums, so ~1e-15 is expected)."""

    TOL = 1e-12

    def trained(self):
        ds, smap = biased_dataset()
        # topic 2 loses its training cells: an empty slice for the matrix kinds
        train = ds.train.subset(np.flatnonzero(ds.train.topics != 2))
        cfg = TrainConfig(rank=4, learning_rate=0.005, max_iters=15, tol=0.0, seed=1)
        return ds, smap, [train_model(kind, train, cfg, smap)
                          for kind in ("OTC", "RTC", "FT", "OMC", "RMC", "FM")]

    def test_all_kinds_match_reference(self):
        ds, smap, trained = self.trained()
        n, m, kk = ds.train.shape
        rng = np.random.default_rng(4)
        cells = rng.permutation(n * m * kk)
        users, curators, topics = np.unravel_index(cells, (n, m, kk))
        is0 = smap.groups == 0
        for model in trained:
            ref, mag = reference_scores(model)
            if model.slices is not None:
                assert model.slice_traces[2] == ()
                assert not ref[:, :, 2].any()
            bound = self.TOL * mag

            got = predict_cells(model, users, curators, topics)
            assert np.all(np.abs(got - ref[users, curators, topics])
                          <= bound[users, curators, topics]), model.kind
            for i in range(n):
                for k in range(kk):
                    row = score_curators(model, i, k)
                    assert np.all(np.abs(row - ref[i, :, k]) <= bound[i, :, k]), model.kind
            for i, j, k in zip(users[:50], curators[:50], topics[:50]):
                assert abs(predict(model, i, j, k) - ref[i, j, k]) <= bound[i, j, k]

            chunks = list(_full_scope_chunks(model, smap)())
            assert [g for g, _ in chunks] == [0, 1] * kk
            for (group, got_g), k in zip(chunks, np.repeat(np.arange(kk), 2)):
                # topic k's (user, curator) scores of the group's curators, in index order
                sel = is0 if group == 0 else ~is0
                want, scale = ref[:, sel, k], bound[:, sel, k]
                assert got_g.shape == want.shape
                assert np.all(np.abs(got_g - want) <= scale), model.kind

    def test_predict_is_predict_cells(self):
        ds, _, trained = self.trained()
        cells = np.unravel_index(np.arange(ds.train.n_cells), ds.train.shape)
        for model in trained:
            got = predict_cells(model, *cells)
            for e, (i, j, k) in enumerate(zip(*cells)):
                assert predict(model, i, j, k) == got[e], (model.kind, i, j, k)

    def test_full_scope_chunks_match_dense_fairness(self):
        """MAD/KS of the chunks against one dense GroupedScores of every cell,
        for every kind: KS bit-equal, MAD within 1e-12*|v| + 1e-15."""
        ds, smap, trained = self.trained()
        is0 = np.broadcast_to((smap.groups == 0)[None, :, None], ds.train.shape)
        for model in trained:
            a, b = model.topic_factors
            dense = np.matmul(a, b.transpose(0, 2, 1)).transpose(1, 2, 0)
            scores = GroupedScores(dense[is0], dense[~is0])
            got = group_fairness(_full_scope_chunks(model, smap), 50)
            assert got["ks"] == ks(scores, 50), model.kind
            want = mad(scores)
            assert abs(got["mad"] - want) <= 1e-12 * abs(want) + 1e-15, model.kind


class TestPredictCellsChunks:
    """predict_cells gathers one CELL_BLOCK of cells' rows at a time."""

    def random_cells(self, shape, n_cells, seed=6):
        rng = np.random.default_rng(seed)
        return tuple(rng.integers(0, d, n_cells) for d in shape)

    @pytest.mark.parametrize("chunk", [1, 7, 4096, 2**14, 2**16])
    def test_chunks_equal_one_einsum(self, chunk, monkeypatch):
        ds, smap = biased_dataset()
        cells = self.random_cells(ds.train.shape, 20_000)
        users, curators, topics = cells
        for kind in ("OTC", "FM"):
            model = train_model(kind, ds.train, TrainConfig(rank=20, max_iters=2, seed=1), smap)
            a, b = model.topic_factors
            want = np.einsum("er,er->e", a[topics, users], b[topics, curators])
            monkeypatch.setattr(tensor_core, "CELL_BLOCK", chunk)
            assert predict_cells(model, *cells).tobytes() == want.tobytes(), kind

    def test_peak_is_one_chunk_of_rows(self):
        ds, _ = biased_dataset()
        rank = 8
        model = train_model("OTC", ds.train, TrainConfig(rank=rank, max_iters=2, seed=1))
        n_cells = 200_000
        cells = self.random_cells(ds.train.shape, n_cells)
        predict_cells(model, *cells)  # fills the topic_factors cache
        tracemalloc.start()
        try:
            predict_cells(model, *cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output and one block's two (cells, rank) gathers, 1.6 + 0.3 MB;
        # gathering every cell's rows at once takes 25.6 MB
        assert peak < 2 * n_cells * rank * 8 / 4


class TestPredictAndTopK:
    def rank1_model(self):
        return TrainedModel(
            kind="OTC",
            shape=(1, 1, 1),
            config=TrainConfig(rank=1),
            factors=FactorModel(np.array([[2.0]]), np.array([[3.0]]), np.array([[4.0]])),
            loss_trace=(0.0,),
        )

    def test_rank1_hand_case(self):
        assert predict(self.rank1_model(), 0, 0, 0) == 24.0

    def test_ft_hand_case_nonsensitive_only(self):
        model = TrainedModel(
            kind="FT",
            shape=(1, 1, 1),
            config=TrainConfig(rank=3),
            factors=FactorModel(
                np.array([[1.0, 5.0, 5.0]]),
                np.array([[2.0, 1.0, 0.0]]),
                np.array([[3.0, 9.0, 9.0]]),
                sensitive_cols=(1, 2),
            ),
            loss_trace=(0.0,),
        )
        assert predict(model, 0, 0, 0) == 6.0

    def test_out_of_range(self):
        model = self.rank1_model()
        with pytest.raises(IndexError):
            predict(model, 1, 0, 0)
        with pytest.raises(IndexError):
            predict(model, 0, 0, -1)

    @pytest.mark.parametrize("bad", [0.5, True, "1"])
    def test_non_integer_index_rejected(self, bad):
        model = TrainedModel(
            kind="OTC",
            shape=(2, 2, 2),
            config=TrainConfig(rank=1),
            factors=FactorModel(np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1))),
            loss_trace=(0.0,),
        )
        with pytest.raises(IndexError, match="cell indices must be integers"):
            predict(model, bad, 0, 0)
        with pytest.raises(IndexError, match="cell indices must be integers"):
            predict_cells(model, [0], [0], [bad])

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("bad", [-1, 2])
    def test_predict_cells_out_of_range(self, axis, bad):
        model = TrainedModel(
            kind="OTC",
            shape=(2, 2, 2),
            config=TrainConfig(rank=1),
            factors=FactorModel(np.ones((2, 1)), np.ones((2, 1)), np.array([[1.0], [2.0]])),
            loss_trace=(0.0,),
        )
        cells = [np.array([0, 1]) for _ in range(3)]
        cells[axis] = np.array([0, bad])
        label = ("user", "curator", "topic")[axis]
        with pytest.raises(IndexError, match=rf"{label} index {bad} out of range \[0, 2\)"):
            predict_cells(model, *cells)

    def scored_model(self, scores):
        m = len(scores)
        return TrainedModel(
            kind="OTC",
            shape=(1, m, 1),
            config=TrainConfig(rank=1),
            factors=FactorModel(
                np.array([[1.0]]), np.asarray(scores, dtype=float)[:, None], np.array([[1.0]])
            ),
            loss_trace=(0.0,),
        )

    def test_ties_break_by_ascending_index(self):
        model = self.scored_model([1.0, 1.0, 1.0, 1.0])
        assert top_k(model, 0, 0, 3) == [0, 1, 2]

    def test_exclude_all_gives_empty(self):
        model = self.scored_model([1.0, 2.0])
        assert top_k(model, 0, 0, 2, exclude=[0, 1]) == []

    def test_ranking_hand_case(self):
        model = self.scored_model([0.2, 0.9, 0.5])
        assert top_k(model, 0, 0, 2) == [1, 2]

    def test_exclusions_respected(self):
        model = self.scored_model([0.2, 0.9, 0.5])
        assert top_k(model, 0, 0, 2, exclude=[1]) == [2, 0]

    def test_length_capped_by_candidates(self):
        model = self.scored_model([0.2, 0.9, 0.5])
        assert len(top_k(model, 0, 0, 10, exclude=[0])) == 2

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError, match="k_items must be >= 1"):
            top_k(self.scored_model([1.0]), 0, 0, 0)
        for bad, name in (("3", "str"), (2.5, "float"), (True, "bool")):
            with pytest.raises(ConfigError, match=f"k_items must be int, got {name}"):
                top_k(self.scored_model([1.0]), 0, 0, bad)

    @pytest.mark.parametrize("bad", [-1, 3, 99])
    def test_exclude_out_of_range(self, bad):
        model = self.scored_model([0.2, 0.9, 0.5])
        with pytest.raises(IndexError, match=rf"curator index {bad} out of range \[0, 3\)"):
            top_k(model, 0, 0, 2, exclude=[1, bad])

    def otc_6x5x3(self):
        rng = np.random.default_rng(0)
        return TrainedModel(
            kind="OTC",
            shape=(6, 5, 3),
            config=TrainConfig(rank=2),
            factors=FactorModel(rng.random((6, 2)), rng.random((5, 2)), rng.random((3, 2))),
            loss_trace=(0.0,),
        )

    @pytest.mark.parametrize("call, got", [
        (lambda m: top_k(m, 0, 0, 5, exclude=[1.5]), "float"),  # used to exclude curator 1
        (lambda m: top_k(m, 0, 0, 5, exclude=[2.7]), "float"),  # used to exclude curator 2
        (lambda m: score_curators(m, True, 0), "bool"),
        (lambda m: score_curators(m, 0, 1.5), "float"),
        (lambda m: score_curators(m, np.True_, 0), "bool"),
        (lambda m: top_k(m, 0, 0, 5, exclude=[False]), "bool"),
    ], ids=["exclude-1.5", "exclude-2.7", "user-True", "topic-1.5", "user-np.True_",
            "exclude-False"])
    def test_non_integer_scalar_index_rejected(self, call, got):
        with pytest.raises(IndexError, match=rf"index must be an integer, got {got}"):
            call(self.otc_6x5x3())

    def test_numpy_integer_scalar_indices_accepted(self):
        model = self.otc_6x5x3()
        assert top_k(model, np.int64(4), np.int32(2), 5, exclude=[np.uint8(3)]) == \
            top_k(model, 4, 2, 5, exclude=[3])
        assert np.array_equal(score_curators(model, np.int16(5), 0), score_curators(model, 5, 0))


def reference_top_indices(scores, k_items, exclude):
    """The set-difference-and-lexsort ranking that ``_top_indices`` replaced."""
    candidates = np.setdiff1d(np.arange(scores.size), np.asarray(list(exclude), dtype=np.int64))
    order = np.lexsort((candidates, -scores[candidates]))
    return candidates[order[:k_items]]


SPECIAL_SCORES = [0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan]


@st.composite
def ranking_inputs(draw):
    m = draw(st.integers(1, 30))
    pool = st.sampled_from(SPECIAL_SCORES) | st.floats(-3.0, 3.0)
    scores = np.array(draw(st.lists(pool, min_size=m, max_size=m)))
    if draw(st.booleans()):
        exclude = draw(st.permutations(range(m)))  # every index, out of order
    else:
        exclude = draw(st.lists(st.integers(0, m - 1), max_size=2 * m))
    return scores, draw(st.integers(1, m + 3)), exclude


@st.composite
def wide_ranking_inputs(draw):
    """Up to 400 scores from a small pool, so ties straddle the cut."""
    m = draw(st.integers(1, 400))
    pool = st.sampled_from(SPECIAL_SCORES + [0.25, 2.0]) | st.floats(-3.0, 3.0)
    scores = np.array(draw(st.lists(pool, min_size=m, max_size=m)))
    exclude = draw(st.lists(st.integers(0, m - 1), max_size=m))
    return scores, draw(st.integers(1, 20)), exclude


class TestTopIndices:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(ranking_inputs())
    def test_equals_setdiff_lexsort_reference(self, case):
        scores, k_items, exclude = case
        got = _top_indices(scores, k_items, exclude)
        assert got.tolist() == reference_top_indices(scores, k_items, exclude).tolist()

    def test_ties_signed_zeros_and_nan(self):
        scores = np.array([0.0, np.nan, -0.0, np.inf, 0.0, -np.inf, np.nan])
        assert _top_indices(scores, 7, [4]).tolist() == [3, 0, 2, 5, 1, 6]
        assert _top_indices(scores, 7, [3, 3, 0, 6, 1]).tolist() == [2, 4, 5]

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(wide_ranking_inputs())
    def test_wide_grids_equal_reference(self, case):
        scores, k_items, exclude = case
        got = _top_indices(scores, k_items, exclude)
        assert got.tolist() == reference_top_indices(scores, k_items, exclude).tolist()

    @pytest.mark.parametrize("fill", ["constant", "signed zeros"])
    def test_all_equal_user_grid_keeps_lowest_ids(self, fill):
        # one user's m*K = 252 * 10 cells, every score tied at the cut
        scores = np.full(2520, 0.5) if fill == "constant" else np.tile([0.0, -0.0], 1260)
        exclude = [0, 3, 3, 7, 11, 12, 2519, 1000]
        kept = [c for c in range(2520) if c not in exclude]
        assert _top_indices(scores, 15, exclude).tolist() == kept[:15]

    def test_nan_cut_keeps_every_candidate(self):
        # two finite scores survive the exclusions, fewer than k_items, so
        # the cut is NaN and the NaNs fill the list in index order
        scores = np.array([np.nan, 1.0, np.nan, 2.0, np.nan, np.nan, 0.5, np.nan, -1.0])
        got = _top_indices(scores, 5, [6, 8])
        assert got.tolist() == [3, 1, 0, 2, 4]
        assert got.tolist() == reference_top_indices(scores, 5, [6, 8]).tolist()


def assert_same_model(a, b):
    assert (a.kind, a.shape, a.config) == (b.kind, b.shape, b.config)
    assert (a.loss_trace, a.slice_traces) == (b.loss_trace, b.slice_traces)
    fa = [a.factors] if a.factors is not None else list(a.slices)
    fb = [b.factors] if b.factors is not None else list(b.slices)
    assert len(fa) == len(fb)
    for x, y in zip(fa, fb):
        assert x.sensitive_cols == y.sensitive_cols
        for name in ("u_users", "u_curators", "u_topics"):
            assert np.array_equal(getattr(x, name), getattr(y, name))


class TestCheckpoints:
    def round_trip(self, kind, tmp_path):
        ds, smap = biased_dataset()
        # topic 2 loses its training cells: an empty slice for the matrix kinds
        train = ds.train.subset(np.flatnonzero(ds.train.topics != 2))
        cfg = TrainConfig(rank=4, learning_rate=0.005, max_iters=10, tol=0.0, seed=1)
        model = train_model(kind, train, cfg, smap)
        path = tmp_path / f"{kind}.json"
        save_checkpoint(model, path)
        return model, load_checkpoint(path)

    def test_tensor_round_trip_bit_exact(self, tmp_path):
        for kind in ("OTC", "RTC", "FT"):
            model, loaded = self.round_trip(kind, tmp_path)
            assert loaded.slices is None
            assert_same_model(loaded, model)

    def test_matrix_round_trip_bit_exact(self, tmp_path):
        for kind in ("OMC", "RMC", "FM"):
            model, loaded = self.round_trip(kind, tmp_path)
            assert loaded.factors is None
            assert_same_model(loaded, model)

    def write_broken(self, tmp_path, edit, kind="OTC"):
        ds, smap = biased_dataset()
        path = tmp_path / f"{kind}.json"
        save_checkpoint(train_model(kind, ds.train, TrainConfig(rank=3, max_iters=2, seed=2), smap),
                        path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("format_version"), "format_version None"),
        (lambda d: d.update(format_version=0), "format_version 0"),
        (lambda d: d.update(format_version=True), "format_version True"),
        (lambda d: d.update(format_version=1.0), "format_version 1.0"),
        (lambda d: d.pop("factors"), "lacks key 'factors'"),
        (lambda d: d["factors"].pop("u_topics"), "lacks key 'u_topics'"),
        (lambda d: d.update(kind="XYZ"), "unknown model kind"),
        (lambda d: d["config"].update(rnak=3), "unknown checkpoint config field"),
        (lambda d: d["dimensions"].update(n_users=1), "factors of shape"),
        (lambda d: d["factors"]["u_users"]["data"].__setitem__(0, None), "values must be finite"),
        (lambda d: d["factors"]["u_topics"]["data"].__setitem__(1, np.nan), "must be finite"),
        # a fair layout other than the config's; (kind, edit) trains that kind
        (("FT", lambda d: d["factors"].update(sensitive_cols=[])),
         r"FT factors of width 3 with sensitive_cols \[\]; the config gives 3 with \[1, 2\]"),
        (("FM", lambda d: d["slices"][1].update(sensitive_cols=[0, 1])),
         r"FM factors of width 3 with sensitive_cols \[0, 1\]; the config gives 3 with \[1, 2\]"),
        (lambda d: d["factors"].update(sensitive_cols=[1, 2]),
         r"OTC factors of width 3 with sensitive_cols \[1, 2\]; the config gives 3 with \[\]"),
        (lambda d: d.update(loss_trace=["x", None]), "loss traces must hold finite floats"),
        (("OMC", lambda d: d["slice_traces"][0].__setitem__(0, np.inf)), "finite floats"),
        (lambda d: d["dimensions"].update(n_users=float(d["dimensions"]["n_users"])),
         r"dimensions must be ints, got \(60\.0, 30, 3\)"),
    ])
    def test_malformed_checkpoint_is_config_error(self, tmp_path, edit, message):
        kind, edit = edit if isinstance(edit, tuple) else ("OTC", edit)
        path = self.write_broken(tmp_path, edit, kind)
        with pytest.raises(ConfigError, match=message):
            load_checkpoint(path)

    def test_unreadable_checkpoint_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_checkpoint(tmp_path / "missing.json")
        path = self.write_broken(tmp_path, lambda d: None)
        path.write_text(path.read_text(encoding="utf-8")[:100], encoding="utf-8")
        with pytest.raises(ConfigError, match="not JSON"):
            load_checkpoint(path)

    def test_slice_of_wrong_shape_rejected(self):
        model = train_model("OMC", biased_dataset()[0].train,
                            TrainConfig(rank=2, max_iters=2, seed=0))
        sl = model.slices[0]
        two_topics = replace(sl, u_topics=np.ones((2, 2)))
        with pytest.raises(ValueError, match="must have shape"):
            replace(model, slices=(two_topics, *model.slices[1:]))

    def test_predictions_survive_round_trip(self, tmp_path):
        ds, _ = biased_dataset()
        model = train_model("OTC", ds.train, TrainConfig(rank=3, max_iters=10, seed=2))
        path = tmp_path / "otc.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        probe = ds.test
        assert np.array_equal(
            predict_cells(model, probe.users, probe.curators, probe.topics),
            predict_cells(loaded, probe.users, probe.curators, probe.topics),
        )


class TestTrainModelDispatch:
    def test_all_kinds_finite_traces(self):
        ds, smap = biased_dataset()
        cfg = TrainConfig(rank=4, max_iters=15, tol=0.0, seed=1)
        for kind in ("OTC", "RTC", "FT", "OMC", "RMC", "FM"):
            model = train_model(kind, ds.train, cfg, smap)
            traces = [model.loss_trace] if model.loss_trace is not None else model.slice_traces
            for trace in traces:
                assert all(np.isfinite(v) for v in trace)
            if model.loss_trace is not None and len(model.loss_trace) > 1:
                assert model.loss_trace[-1] < model.loss_trace[0]

    def test_sensitive_required_for_fair_kinds(self):
        ds, _ = biased_dataset()
        for kind in ("RTC", "FT", "RMC", "FM"):
            with pytest.raises(ConfigError):
                train_model(kind, ds.train, TrainConfig(rank=4, max_iters=5), None)

    def test_unknown_kind_rejected(self):
        ds, _ = biased_dataset()
        with pytest.raises(ConfigError, match="unknown model kind 'XYZ'"):
            train_model("XYZ", ds.train, TrainConfig(rank=4), None)

    @pytest.mark.parametrize("field, value, got", [
        ("rank", "3", "str"),
        ("rank", True, "bool"),
        ("max_iters", 2.0, "float"),
        ("lam", "0.1", "str"),
        ("extra_sensitive_cols", 1, "int"),
    ])
    def test_config_value_type_is_config_error(self, field, value, got):
        with pytest.raises(ConfigError, match=rf"train field {field!r} must be \w+, got {got}"):
            TrainConfig(**{field: value})

    def test_divergence_raises_config_error(self):
        ds, smap = biased_dataset()
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ConfigError, match="diverged"):
                train_model(
                    "RTC", ds.train,
                    TrainConfig(rank=4, parity_weight=1e9, learning_rate=0.5, max_iters=50, seed=0),
                    smap,
                )

    def test_gd_divergence_names_its_iterate_without_a_warning(self):
        ds, smap = biased_dataset()
        cfg = TrainConfig(rank=4, parity_weight=1e9, learning_rate=0.5, max_iters=50, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"^gradient descent diverged "
                               r"\(non-finite loss at iterate [1-9]\d*\); lower learning_rate"):
                train_model("RTC", ds.train, cfg, smap)

    @pytest.mark.parametrize("kind", ["OTC", "OMC"])
    def test_als_divergence_is_a_config_error_without_a_warning(self, kind):
        # finite ratings whose squares overflow: the loss is not finite
        rng = np.random.default_rng(0)
        flat = rng.choice(6 * 5 * 3, 40, replace=False)
        train = ObservationTensor.from_flat((6, 5, 3), flat, rng.random(40) * 1e160)
        prefix = f"topic {train.topics.min()}: " if kind == "OMC" else ""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=rf"^{prefix}ALS diverged \(non-finite loss"):
                train_model(kind, train, TrainConfig(rank=3), None)

    def test_non_finite_initial_loss_asks_for_rescaled_ratings(self):
        # the loss overflows before any step: no step size is at fault
        rng = np.random.default_rng(0)
        flat = rng.choice(6 * 5 * 3, 40, replace=False)
        train = ObservationTensor.from_flat((6, 5, 3), flat, rng.random(40) * 1e160)
        smap = SensitiveMap(np.arange(5) % 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"^gradient descent diverged \(non-finite loss "
                               r"at iterate 0\); the loss at the initial factors is not "
                               r"finite; rescale the ratings$"):
                train_model("RTC", train, TrainConfig(rank=3), smap)

    def test_loop_stops_a_non_finite_initial_loss(self):
        # a trace that starts at inf would pass _converged at its first step
        steps = []
        with pytest.raises(ConfigError, match=r"^ALS diverged \(non-finite loss at iterate 0\)"):
            models._iterate(lambda: math.inf, lambda: steps.append(1) or 1.0,
                            TrainConfig(), "ALS", "rescale the ratings")
        assert steps == []
