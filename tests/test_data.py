import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtensor import data
from fairtensor.data import (
    SensitiveMap,
    SynthConfig,
    calibrate_bias_strength,
    export_synthetic,
    load_interactions,
    load_sensitive,
    negative_sample,
    positive_group_counts,
    split,
    synth_generate,
)
from fairtensor.errors import (
    MAX_DENSE_CELLS,
    ConfigError,
    EmptyDatasetError,
    ParseError,
    SplitError,
)
from fairtensor.tensor_core import ObservationTensor


# derandomized and bounded, so every run draws the same examples
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150, database=None)


def dense_top(values, n_top):
    """The reference selection: sorted ids of the first ``n_top`` of one
    stable sort of every value, highest first, so ties at the cut go to the
    lowest ids."""
    flat = np.ravel(values)
    return np.sort(np.argsort(-flat, kind="stable")[:n_top])


def one_draw_negative_sample(positives, probability, seed):
    """The reference sample: one uniform draw over every cell at once."""
    chosen = np.random.default_rng(seed).random(positives.n_cells) < probability
    chosen[positives.flat_indices()] = False
    flat = np.flatnonzero(chosen)
    return ObservationTensor.from_flat(
        positives.shape,
        np.concatenate([positives.flat_indices(), flat]),
        np.concatenate([positives.values, np.zeros(flat.size)]),
    )


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadInteractions:
    def test_two_distinct_rows(self, tmp_path):
        path = write(
            tmp_path,
            "i.csv",
            "user_id,curator_id,topic_id\nalice,c1,news\nbob,c2,sports\n",
        )
        obs, maps = load_interactions(path)
        assert obs.n_entries == 2
        assert maps.users == {"alice": 0, "bob": 1}
        assert maps.curators == {"c1": 0, "c2": 1}
        assert maps.topics == {"news": 0, "sports": 1}

    def test_duplicates_collapse(self, tmp_path):
        row = "u,c,t\n"
        path = write(tmp_path, "i.csv", "user_id,curator_id,topic_id\n" + row * 3)
        obs, _ = load_interactions(path)
        assert obs.n_entries == 1

    def test_first_appearance_order(self, tmp_path):
        path = write(
            tmp_path,
            "i.csv",
            "user_id,curator_id,topic_id\nzeta,c9,t1\nalpha,c1,t1\n",
        )
        _, maps = load_interactions(path)
        assert maps.users == {"zeta": 0, "alpha": 1}

    def test_malformed_row_reports_line(self, tmp_path):
        path = write(
            tmp_path, "i.csv", "user_id,curator_id,topic_id\nu,c,t\nonly-two,fields\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            load_interactions(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "i.csv", "")
        with pytest.raises(EmptyDatasetError):
            load_interactions(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "i.csv", "user_id,curator_id,topic_id\n")
        with pytest.raises(EmptyDatasetError):
            load_interactions(path)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "i.csv"
        path.write_bytes(b"\xef\xbb\xbfuser_id,curator_id,topic_id\nu1,c1,t1\n")
        obs, maps = load_interactions(path)
        assert obs.n_entries == 1 and maps.users == {"u1": 0}

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "i.csv", "a,b,c\nu,c,t\n")
        with pytest.raises(ParseError, match="line 1"):
            load_interactions(path)

    def test_positive_tensor(self, tmp_path):
        path = write(
            tmp_path,
            "i.csv",
            "user_id,curator_id,topic_id\nu1,c1,t1\nu1,c2,t1\nu2,c1,t2\n",
        )
        obs, _ = load_interactions(path)
        assert obs.shape == (2, 2, 2)
        assert obs.n_entries == 3
        assert np.all(obs.values == 1.0)

    def test_matches_string_triple_reference(self, tmp_path):
        """3,000 rows with duplicates and space-padded ids against a reference
        that keeps the first of each stripped string triple, maps its ids in
        first-appearance order and builds the tensor from the kept rows."""
        rng = np.random.default_rng(5)
        pads = ["", " ", "  "]
        rows = [
            [pads[p] + f"{name}{v}" + pads[q]
             for name, v, p, q in zip("uct", ids, rng.integers(0, 3, 3), rng.integers(0, 3, 3))]
            for ids in zip(rng.integers(0, 60, 3000), rng.integers(0, 40, 3000),
                           rng.integers(0, 5, 3000))
        ]
        path = write(tmp_path, "i.csv", "user_id,curator_id,topic_id\n"
                     + "".join(",".join(row) + "\n" for row in rows))
        kept, tables = {}, ({}, {}, {})
        for row in rows:
            triple = tuple(f.strip() for f in row)
            if triple not in kept:
                kept[triple] = [t.setdefault(v, len(t)) for v, t in zip(triple, tables)]
        want = ObservationTensor.from_entries(
            *map(len, tables), [(*cell, 1.0) for cell in kept.values()]
        )
        assert len(kept) < len(rows)  # the draw has duplicates

        obs, maps = load_interactions(path)
        assert obs.shape == want.shape
        for name in ("users", "curators", "topics", "values"):
            got, ref = getattr(obs, name), getattr(want, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name
        for got, ref in zip((maps.users, maps.curators, maps.topics), tables, strict=True):
            assert list(got.items()) == list(ref.items())


class TestLoadSensitive:
    def test_roundtrip(self, tmp_path):
        path = write(tmp_path, "s.csv", "curator_id,group\nc1,0\nc2,1\n")
        smap = load_sensitive(path, {"c1": 0, "c2": 1})
        assert list(smap.groups) == [0, 1]
        assert np.array_equal(smap.matrix, np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_missing_curator(self, tmp_path):
        path = write(tmp_path, "s.csv", "curator_id,group\nc1,0\n")
        with pytest.raises(ConfigError, match="missing"):
            load_sensitive(path, {"c1": 0, "c2": 1})

    def test_bad_group_value(self, tmp_path):
        path = write(tmp_path, "s.csv", "curator_id,group\nc1,2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_sensitive(path, {"c1": 0})

    def test_extra_ids_ignored(self, tmp_path):
        path = write(tmp_path, "s.csv", "curator_id,group\nc1,0\nstranger,1\n")
        smap = load_sensitive(path, {"c1": 0})
        assert list(smap.groups) == [0]


class TestSensitiveMap:
    def test_one_hot_rows_sum_to_one(self):
        smap = SensitiveMap(groups=np.array([0, 1, 1, 0]))
        s = smap.matrix
        assert np.array_equal(s.sum(axis=1), np.ones(4))
        assert np.array_equal(s[:, 0] + s[:, 1], np.ones(4))
        assert smap.counts() == (2, 2)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            SensitiveMap(groups=np.array([0, 2]))


class TestNegativeSample:
    def positives(self):
        return ObservationTensor.from_entries(2, 2, 1, [(0, 0, 0, 1.0)])

    def test_probability_zero_is_identity(self):
        pos = self.positives()
        out = negative_sample(pos, 0.0, seed=1)
        assert out.entry_tuples() == pos.entry_tuples()

    def test_over_dense_bound_is_config_error(self):
        # an empty tensor of 2**26 cells: the check fires before any draw
        big = ObservationTensor.from_entries(2**13, 2**12, 2, [])
        with pytest.raises(ConfigError, match="67108864 dense cells, more than "
                           "MAX_DENSE_CELLS = 33554432"):
            negative_sample(big, 0.5, seed=1)
        assert negative_sample(big, 0.0, seed=1) is big  # no draws, no bound

    def test_probability_one_fills_everything(self):
        out = negative_sample(self.positives(), 1.0, seed=1)
        assert out.n_entries == 4
        assert sorted(v for _, _, _, v in out.entry_tuples()) == [0.0, 0.0, 0.0, 1.0]

    def test_never_duplicates_positives(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            n, m, kk = 4, 3, 2
            cells = [(i, j, k) for i in range(n) for j in range(m) for k in range(kk)]
            picked = [cells[t] for t in rng.choice(len(cells), size=6, replace=False)]
            pos = ObservationTensor.from_entries(
                n, m, kk, [(i, j, k, 1.0) for i, j, k in picked]
            )
            out = negative_sample(pos, 0.5, seed=seed)
            ones = {(i, j, k) for i, j, k, v in out.entry_tuples() if v == 1.0}
            zeros = {(i, j, k) for i, j, k, v in out.entry_tuples() if v == 0.0}
            assert ones == set(picked)
            assert not (ones & zeros)

    def test_deterministic(self):
        pos = self.positives()
        a = negative_sample(pos, 0.5, seed=7)
        b = negative_sample(pos, 0.5, seed=7)
        assert a.entry_tuples() == b.entry_tuples()

    def test_bad_probability(self):
        for probability in (-0.1, 1.5):
            with pytest.raises(ConfigError, match=r"probability must lie in \[0, 1\]"):
                negative_sample(self.positives(), probability, seed=0)

    @PROPERTY
    @given(st.data())
    def test_chunks_equal_one_draw(self, data_):
        # chunks of 1 to more than every cell, so chunk edges fall beside,
        # between and on positives
        shape = tuple(data_.draw(st.integers(1, 5)) for _ in range(3))
        total = math.prod(shape)
        flat = data_.draw(st.lists(st.integers(0, total - 1), unique=True, max_size=total))
        pos = ObservationTensor.from_flat(shape, np.array(flat, dtype=np.int64),
                                          np.ones(len(flat)))
        probability = data_.draw(st.sampled_from([0.05, 0.5, 1.0]))
        seed = data_.draw(st.integers(0, 2**32 - 1))
        chunk = data_.draw(st.integers(1, total + 2))
        with mock.patch.object(data, "NEGATIVE_CHUNK_CELLS", chunk):
            got = negative_sample(pos, probability, seed)
        want = one_draw_negative_sample(pos, probability, seed)
        assert got.entry_tuples() == want.entry_tuples()

    def test_paper_scale_equals_one_draw(self):
        rng = np.random.default_rng(98)
        flat = np.sort(rng.choice(589 * 252 * 10, size=16867, replace=False))
        pos = ObservationTensor.from_flat((589, 252, 10), flat, np.ones(flat.size))
        got = negative_sample(pos, 0.00113, seed=43)
        assert got.entry_tuples() == one_draw_negative_sample(pos, 0.00113, 43).entry_tuples()

    def test_paper_scale_count_within_three_sigma(self):
        # 16,867 positives in a 589 x 252 x 10 tensor; p = 0.00113
        rng = np.random.default_rng(99)
        total = 589 * 252 * 10
        flat = rng.choice(total, size=16867, replace=False)
        pos = ObservationTensor(
            589, 252, 10,
            flat // (252 * 10), (flat // 10) % 252, flat % 10,
            np.ones(flat.size),
        )
        out = negative_sample(pos, 0.00113, seed=4)
        negatives = out.n_entries - pos.n_entries
        expected = 0.00113 * (total - 16867)
        sigma = math.sqrt(expected * (1 - 0.00113))
        assert abs(negatives - expected) <= 3 * sigma


class TestSplit:
    def entries(self, n):
        return ObservationTensor.from_entries(
            n, 1, 1, [(i, 0, 0, 1.0) for i in range(n)]
        )

    def test_seventy_thirty(self):
        ds = split(self.entries(10), 0.7, seed=0)
        assert ds.train.n_entries == 7
        assert ds.test.n_entries == 3

    def test_floor_rule(self):
        ds = split(self.entries(5), 0.5, seed=0)
        assert ds.train.n_entries == 2
        assert ds.test.n_entries == 3

    def test_deterministic(self):
        a = split(self.entries(20), 0.7, seed=3)
        b = split(self.entries(20), 0.7, seed=3)
        assert a.train.entry_tuples() == b.train.entry_tuples()
        assert a.test.entry_tuples() == b.test.entry_tuples()

    def test_partition_preserves_multiset(self):
        obs = negative_sample(self.entries(6), 0.4, seed=2)
        ds = split(obs, 0.66, seed=5)
        combined = sorted(ds.train.entry_tuples() + ds.test.entry_tuples())
        assert combined == obs.entry_tuples()
        train_keys = {(i, j, k) for i, j, k, _ in ds.train.entry_tuples()}
        test_keys = {(i, j, k) for i, j, k, _ in ds.test.entry_tuples()}
        assert not (train_keys & test_keys)

    def test_too_few_entries(self):
        with pytest.raises(SplitError):
            split(self.entries(1), 0.7, seed=0)

    def test_bad_fraction(self):
        for fraction in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ConfigError, match="train_fraction must lie strictly between"):
                split(self.entries(5), fraction, seed=0)


class TestSynthGenerate:
    def small(self, **kw):
        base = dict(
            n_users=30, n_curators=20, n_topics=2, true_rank=3,
            group_ratio=0.5, bias_strength=0.0, target_sparsity=0.1, seed=0,
        )
        base.update(kw)
        return SynthConfig(**base)

    def test_over_dense_bound_is_config_error(self):
        assert 2**13 * 2**12 == MAX_DENSE_CELLS
        self.small(n_users=2**13, n_curators=2**12, n_topics=1)  # at the bound
        with pytest.raises(ConfigError, match="67108864 dense cells, more than "
                           "MAX_DENSE_CELLS = 33554432"):
            self.small(n_users=2**13, n_curators=2**12, n_topics=2)

    def test_unbiased_groups_balanced(self):
        # with no bias the group positive counts differ only by generator noise
        diffs = []
        for seed in range(6):
            obs, smap, _ = synth_generate(self.small(seed=seed))
            n0, n1 = positive_group_counts(obs, smap)
            diffs.append(n0 - n1)
        n = obs.n_entries
        sigma = math.sqrt(n * 0.25) * 2  # loose binomial bound
        assert abs(np.mean(diffs)) < 3 * sigma

    def test_dominant_bias_takes_all(self):
        cfg = self.small(bias_strength=10.0)  # above any unbiased score (< true_rank)
        obs, smap, _ = synth_generate(cfg)
        n0, n1 = positive_group_counts(obs, smap)
        assert n1 == 0
        assert n0 == obs.n_entries

    def test_deterministic(self):
        a, _, _ = synth_generate(self.small(seed=9))
        b, _, _ = synth_generate(self.small(seed=9))
        assert a.entry_tuples() == b.entry_tuples()

    def test_sparsity_met(self):
        cfg = self.small(target_sparsity=0.07)
        obs, _, _ = synth_generate(cfg)
        assert obs.sparsity >= 0.07
        assert obs.n_entries == math.ceil(0.07 * obs.n_cells)

    @pytest.mark.parametrize("field, value, got", [
        ("n_users", "20", "str"),
        ("seed", 1.0, "float"),
        ("bias_strength", None, "NoneType"),
    ])
    def test_config_value_type_is_config_error(self, field, value, got):
        with pytest.raises(ConfigError, match=rf"synth field {field!r} must be \w+, got {got}"):
            self.small(**{field: value})

    def test_negative_seed_is_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            self.small(seed=-1)

    @pytest.mark.parametrize("block", [1, 100, 2**17])
    def test_blocks_give_the_dense_positives(self, block, monkeypatch):
        monkeypatch.setattr(data, "SYNTH_BLOCK_CELLS", block)
        for seed, bias in ((0, 0.0), (1, 0.3), (2, 10.0)):
            cfg = self.small(seed=seed, bias_strength=bias)
            obs, smap, (u1, u2, u3) = synth_generate(cfg)
            scores = np.einsum("ir,jr,kr->ijk", u1, u2, u3)
            scores[:, smap.groups == 0, :] += bias
            assert np.array_equal(obs.flat_indices(), dense_top(scores, obs.n_entries))

    def test_group_ratio_must_leave_both_groups(self):
        with pytest.raises(ConfigError):
            synth_generate(self.small(group_ratio=0.001))

    def test_calibrate_bias_hits_ratio(self):
        cfg = self.small(n_users=60, n_curators=40, target_sparsity=0.05)
        bias = calibrate_bias_strength(cfg, 2.0, rel_tol=0.05)
        obs, smap, _ = synth_generate(replace(cfg, bias_strength=bias))
        n0, n1 = positive_group_counts(obs, smap)
        assert n1 > 0
        assert abs(n0 / n1 - 2.0) <= 0.25


class TestTopCells:
    """The block selection of synth_generate's positives, on values with
    many ties."""

    @PROPERTY
    @given(st.data())
    def test_lowest_ids_win_ties_at_the_cut(self, data_):
        values = np.array(data_.draw(st.lists(st.integers(0, 5), min_size=1, max_size=40)),
                          dtype=np.float64)
        n_top = data_.draw(st.integers(1, values.size))
        edges = sorted(data_.draw(st.lists(st.integers(0, values.size), max_size=6)))
        starts, ends = [0, *edges], [*edges, values.size]
        got = data._top_cells([(a, values[a:b]) for a, b in zip(starts, ends)], n_top)
        assert np.array_equal(got, dense_top(values, n_top))

    @pytest.mark.parametrize("block", [1, 7, 64, 10**6])
    def test_synth_ties_go_to_the_lowest_cells(self, block, monkeypatch):
        # near 1e15 doubles are 0.125 apart, so group 0's biased scores take
        # only a few values: most cuts inside group 0 fall among ties
        monkeypatch.setattr(data, "SYNTH_BLOCK_CELLS", block)
        shape, bias = (9, 5, 3), 1e15
        ties = 0
        for n_pos in range(1, math.prod(shape) + 1):
            cfg = SynthConfig(*shape, true_rank=1, bias_strength=bias,
                              target_sparsity=n_pos / math.prod(shape), seed=3)
            obs, smap, (u1, u2, u3) = synth_generate(cfg)
            n = obs.n_entries  # the ceil of a rounded product: n_pos or one more
            scores = np.einsum("ir,jr,kr->ijk", u1, u2, u3)
            scores[:, smap.groups == 0, :] += bias
            assert np.array_equal(obs.flat_indices(), dense_top(scores, n)), n
            ties += np.count_nonzero(scores >= np.sort(scores, axis=None)[-n]) > n
        assert ties > 20


class TestExportSynthetic:
    def test_round_trip_through_loaders(self, tmp_path):
        cfg = SynthConfig(
            n_users=25, n_curators=12, n_topics=3, true_rank=2,
            group_ratio=0.5, bias_strength=0.5, target_sparsity=0.2, seed=3,
        )
        obs, smap, _ = synth_generate(cfg)
        paths = export_synthetic(tmp_path, obs, smap, cfg)
        loaded_obs, maps = load_interactions(paths["interactions"])
        assert loaded_obs.n_entries == obs.n_entries
        loaded = load_sensitive(paths["sensitive"], maps.curators)
        # groups align through the exported ids
        for cid, j in maps.curators.items():
            assert loaded.groups[j] == smap.groups[int(cid[1:])]
        meta = json.loads(paths["sidecar"].read_text())
        assert meta["config"]["seed"] == 3
        assert meta["achieved"]["n_positives"] == obs.n_entries
        n0, n1 = positive_group_counts(obs, smap)
        assert meta["achieved"]["positives_group0"] == n0
        assert meta["achieved"]["positives_group1"] == n1
