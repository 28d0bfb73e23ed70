import math

import numpy as np
import pytest

from andex import covariance as cov, extremes, field, stats


class TestPartition:
    def test_hand_arithmetic(self):
        # R = 15: super side 15 + 3 = 18; grid side 65 holds 3 per axis
        p = extremes.build_partition(64, 15, 1)
        assert p.super_side == 18
        assert p.n_per_axis == 3
        assert p.n_boxes == 3
        assert p.gap == 3
        assert p.core_half == 7

    def test_centers_and_cores(self):
        p = extremes.build_partition(64, 15, 1)
        # grid indices 9, 27, 45 -> coordinates -23, -5, 13
        assert p.box_centers == ((-23,), (-5,), (13,))
        sl = p.core_slices(0)[0]
        assert (sl.start, sl.stop) == (2, 17)

    def test_cores_disjoint_and_inside(self):
        for L, R, d in [(64, 15, 1), (60, 13, 1), (31, 9, 2)]:
            p = extremes.build_partition(L, R, d)
            side = 2 * (L // 2) + 1
            mask = p.core_mask((side,) * d)
            assert int(np.sum(mask)) == p.n_boxes * R**d

    def test_two_dimensional_count(self):
        p = extremes.build_partition(31, 9, 2)
        # side 31, T = 12 -> 2 per axis, 4 boxes
        assert p.n_per_axis == 2
        assert p.n_boxes == 4

    def test_infeasible(self):
        with pytest.raises(ValueError):
            extremes.build_partition(20, 15, 1)
        with pytest.raises(ValueError):
            extremes.build_partition(64, 0, 1)


class TestOrderStatistics:
    def _sample(self, vals, L, model):
        return field.FieldSample(
            values=np.asarray(vals, dtype=float),
            L=L,
            d=1,
            model=model,
            seed=0,
            sampler="dense",
        )

    def test_hand_case(self, iid1):
        s = self._sample([0.5, 2.0, -1.0, 2.0, 0.0], 5, iid1)
        rec = extremes.order_statistics(s, a_L=3.0)
        # ties broken lexicographically: coordinate -1 before 1
        assert rec.order[0] == ((-1,), 2.0)
        assert rec.order[1] == ((1,), 2.0)
        assert rec.order[-1] == ((0,), -1.0)
        # rescaling: (coords/L, a_L*(value - a_L))
        assert rec.rescaled[0] == ((-1 / 5,), pytest.approx(3.0 * (2.0 - 3.0)))

    def test_top_truncation(self, iid1):
        s = self._sample(np.arange(9.0), 9, iid1)
        rec = extremes.order_statistics(s, a_L=2.0, top=3)
        assert len(rec.order) == 3
        assert [v for _, v in rec.order] == [8.0, 7.0, 6.0]

    @pytest.mark.parametrize("top", [1, 2, 5, 17, 41, 49, 100])
    def test_top_matches_the_full_stable_sort(self, top):
        # values rounded to a few levels, so that ties straddle the cut-off;
        # top >= n gives the whole order
        rng = np.random.default_rng(top)
        for values in (
            np.round(rng.standard_normal((7, 7)), 0),
            np.round(rng.standard_normal(41), 1),
            np.zeros(41),
        ):
            flat = values.ravel()
            want = np.argsort(-flat, kind="stable")[:top]
            got = extremes.descending_sites(flat, top)
            assert got.tolist() == want.tolist()
            h = values.shape[0] // 2
            s = field.FieldSample(
                values=values, L=2 * h, d=values.ndim, model=None, seed=0, sampler="dense"
            )
            rec = extremes.order_statistics(s, a_L=2.0, top=top)
            coords = np.stack(np.unravel_index(want, values.shape), axis=1) - h
            assert rec.order == tuple(
                (tuple(int(c) for c in x), float(flat[i])) for x, i in zip(coords, want)
            )

    def test_descending_invariant(self, iid1):
        s = field.sample_field(iid1, 257, seed=1)
        rec = extremes.order_statistics(s, a_L=3.0)
        vals = [v for _, v in rec.order]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert len(vals) == 257


class TestBoxMaxima:
    def test_per_core_argmax(self, iid1):
        s = field.sample_field(iid1, 64, seed=3)
        p = extremes.build_partition(64, 15, 1)
        maxima = extremes.box_maxima(s, p)
        assert len(maxima) == 3
        for j, (coord, val) in enumerate(maxima):
            block = s.values[p.core_slices(j)]
            assert val == np.max(block)
            assert s.at(coord) == val


def brute_core_max(grid, sl, h):
    """First site of the largest value in the core's C order."""
    best = None
    for pos in np.ndindex(*(s.stop - s.start for s in sl)):
        site = tuple(p + s.start for p, s in zip(pos, sl))
        if best is None or grid[site] > grid[best]:
            best = site
    return tuple(i - h for i in best), float(grid[best])


# (L, R_L, d): 3 cores of 15 sites, 4 of 81, 27 of 125
BOXES = [(64, 15, 1), (31, 9, 2), (24, 5, 3)]


class TestBoxMaximaBrute:
    def _sample(self, L, d, seed):
        model = cov.CovarianceModel("cube_indicator", d, {"m": 2})
        return field.sample_field(model, L, seed)

    def _with_values(self, s, values):
        return field.FieldSample(
            values=values, L=s.L, d=s.d, model=s.model, seed=s.seed, sampler=s.sampler
        )

    @pytest.mark.parametrize("L,R,d", BOXES)
    def test_matches_brute_argmax(self, L, R, d):
        p = extremes.build_partition(L, R, d)
        for seed in range(3):
            s = self._sample(L, d, seed)
            assert extremes.box_maxima(s, p) == tuple(
                brute_core_max(s.values, p.core_slices(j), s.half)
                for j in range(p.n_boxes)
            )

    @pytest.mark.parametrize("L,R,d", BOXES)
    def test_tie_goes_to_first_site_in_c_order(self, L, R, d):
        p = extremes.build_partition(L, R, d)
        s = self._sample(L, d, 0)
        values = np.array(s.values)
        sl = p.core_slices(1)
        # (0, last, 0, ...) precedes (1, 0, 0, ...) in C order but not in
        # Fortran order
        first = [s.start for s in sl]
        later = [s.start for s in sl]
        if d > 1:
            first[1] = sl[1].stop - 1
        later[0] += 1
        top = float(np.max(values)) + 1.0
        values[tuple(later)] = top
        values[tuple(first)] = top
        maxima = extremes.box_maxima(self._with_values(s, values), p)
        assert maxima[1] == (tuple(i - s.half for i in first), top)

    @pytest.mark.parametrize("L,R,d", BOXES)
    def test_core_sites_rows_are_core_slices_in_c_order(self, L, R, d):
        p = extremes.build_partition(L, R, d)
        side = 2 * (L // 2) + 1
        assert p.core_sites.shape == (p.n_boxes, R**d)
        assert not p.core_sites.flags.writeable
        for j in range(p.n_boxes):
            sl = p.core_slices(j)
            expected = [
                np.ravel_multi_index(
                    tuple(q + s.start for q, s in zip(pos, sl)), (side,) * d
                )
                for pos in np.ndindex(*(s.stop - s.start for s in sl))
            ]
            assert p.core_sites[j].tolist() == expected

    def test_partition_of_another_box_rejected(self):
        s = self._sample(64, 1, 0)
        with pytest.raises(ValueError):
            extremes.box_maxima(s, extremes.build_partition(70, 15, 1))


class TestSiteRanks:
    def test_hand_case_with_ties(self):
        # 2.0 ties at indices 1 and 3: the earlier one ranks first
        values = np.array([0.5, 2.0, -1.0, 2.0, 0.0])
        assert extremes.site_ranks(values, [(1,), (3,), (0,), (2,)]) == (1, 2, 3, 5)

    @pytest.mark.parametrize("shape", [(257,), (9, 11)])
    def test_matches_stable_descending_sort(self, shape):
        # integer values force many ties
        values = np.random.default_rng(3).integers(0, 20, size=shape).astype(float)
        order = np.argsort(-values.ravel(), kind="stable")
        sites = [np.unravel_index(int(i), shape) for i in order]
        assert extremes.site_ranks(values, sites) == tuple(range(1, values.size + 1))


class TestPPPReference:
    def test_zero_decoration_identity(self):
        ref = extremes.sample_ppp_reference(0.0, 200, seed=1)
        # u is already descending; with no decoration the sort is trivial
        assert ref.k_max_safe == 199
        assert ref.ell == tuple(range(1, 200))
        assert np.all(np.diff(ref.p) <= 0)

    def test_points_are_log_gamma(self):
        ref = extremes.sample_ppp_reference(0.0, 100, seed=2)
        assert np.allclose(ref.p, ref.u)
        assert np.all(np.diff(-np.exp(-ref.u)) <= 0)

    def test_gumbel_maximum(self):
        # the top PPP point is standard Gumbel distributed
        n = 4000
        tops = np.array(
            [extremes.sample_ppp_reference(0.0, 100, seed=s).p[0] for s in range(n)]
        )
        ks = stats.ks_statistic(np.sort(tops), stats.gumbel_cdf)
        assert ks < 1.63 / math.sqrt(n) * 1.5  # ~1% critical value w/ slack

    def test_exponential_spacings(self):
        # Gamma increments are iid Exp(1): check via KS on one long draw
        ref = extremes.sample_ppp_reference(0.0, 500, seed=7)
        gaps = np.diff(np.exp(-ref.u))  # recovers Gamma_{k+1} - Gamma_k
        ks = stats.ks_statistic(np.sort(gaps), lambda x: 1.0 - np.exp(-x))
        assert ks < 1.63 / math.sqrt(gaps.size)

    def test_decorated_sort_consistent(self):
        ref = extremes.sample_ppp_reference(0.5, 300, seed=5)
        s = ref.u + ref.v
        assert np.allclose(np.sort(s)[::-1], ref.p)
        for k in range(ref.k_max_safe):
            assert s[ref.ell[k] - 1] == ref.p[k]

    def test_huge_decoration_unsafe(self):
        with pytest.raises(ValueError):
            extremes.sample_ppp_reference(100.0, 50, seed=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            extremes.sample_ppp_reference(0.0, 10, seed=1)
        with pytest.raises(ValueError):
            extremes.sample_ppp_reference(-1.0, 100, seed=1)


class TestRankOneProbability:
    def test_zero_decoration_is_certain(self):
        p, se = extremes.ppp_rank_one_probability(0.0, 50, 500, seed=1)
        assert p == 1.0

    def test_monotone_in_decoration(self):
        ps = [
            extremes.ppp_rank_one_probability(b, 100, 4000, seed=3)[0]
            for b in (0.0, 0.25, 1.0, 4.0)
        ]
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        assert ps[0] == 1.0
        assert ps[-1] < 0.8

    def test_deterministic(self):
        a = extremes.ppp_rank_one_probability(0.5, 100, 2000, seed=9)
        b = extremes.ppp_rank_one_probability(0.5, 100, 2000, seed=9)
        assert a == b

    def test_se_scale(self):
        p, se = extremes.ppp_rank_one_probability(0.5, 100, 10000, seed=2)
        assert 0.5 < p < 1.0
        assert se == pytest.approx(math.sqrt(p * (1 - p) / 10000), rel=1e-9)


class TestCrossBoxCovariance:
    def test_iid_decorrelated(self, iid1):
        samples = [field.sample_field(iid1, 64, seed=s) for s in range(300)]
        p = extremes.build_partition(64, 15, 1)
        c = extremes.cross_box_covariance(samples, p)
        # independent boxes: covariance is pure noise, O(1/sqrt(n))
        assert abs(c) < 0.12

    def test_needs_enough_samples(self, iid1):
        p = extremes.build_partition(64, 15, 1)
        with pytest.raises(ValueError):
            extremes.cross_box_covariance(
                [field.sample_field(iid1, 64, seed=0)] * 10, p
            )
