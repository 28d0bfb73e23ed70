import itertools
import math

import numpy as np
import pytest

from andex import covariance as cov, extremes, field, stats

from oracles import ppp_rank_one_probability


class TestPartition:
    def test_hand_arithmetic(self):
        # R = 15: super side 15 + 3 = 18; grid side 65 holds 3 per axis,
        # each with a core of 15 sites
        p = extremes.build_partition(64, 15, 1)
        assert p.n_boxes == 3
        assert p.core_sites.shape == (3, 15)

    def test_centers_and_cores(self):
        p = extremes.build_partition(64, 15, 1)
        # centres at grid indices 9, 27, 45 (coordinates -23, -5, 13), 7
        # sites either side
        assert p.core_sites.tolist() == [
            list(range(2, 17)),
            list(range(20, 35)),
            list(range(38, 53)),
        ]
        assert p.core_sites[:, 7].tolist() == [9, 27, 45]

    def test_cores_disjoint_and_inside(self):
        for L, R, d in [(64, 15, 1), (60, 13, 1), (31, 9, 2)]:
            p = extremes.build_partition(L, R, d)
            assert np.unique(p.core_sites).size == p.n_boxes * R**d

    def test_two_dimensional_count(self):
        p = extremes.build_partition(31, 9, 2)
        # side 31, T = 12 -> 2 per axis, 4 boxes of 81 sites
        assert p.n_boxes == 4
        assert p.core_sites.shape == (4, 81)

    def test_infeasible(self):
        with pytest.raises(ValueError):
            extremes.build_partition(20, 15, 1)
        with pytest.raises(ValueError):
            extremes.build_partition(64, 0, 1)


# (L, R_L): odd and even L and R_L, R_L = 1 and 2 among them
PARTITION_SIZES = [
    (8, 1), (9, 2), (12, 2), (20, 4), (21, 3), (30, 6), (31, 9), (40, 8), (64, 15)
]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L,R", PARTITION_SIZES)
def test_cores_are_centred_disjoint_boxes_inside_the_grid(L, R, d):
    p = extremes.build_partition(L, R, d)
    side = 2 * (L // 2) + 1
    T = R + math.isqrt(R)
    n = side // T
    core_side = 2 * (R // 2) + 1  # R for odd R
    assert p.core_sites.shape == (n**d, core_side**d)
    assert not p.core_sites.flags.writeable
    # each row is the box [lo, lo + core_side)^d of the grid in C order, so
    # every core lies inside the grid
    assert p.core_sites.min() >= 0 and p.core_sites.max() < side**d
    grid = (side,) * d
    lo = np.stack(np.unravel_index(p.core_sites[:, 0], grid), axis=1)
    offsets = np.ravel_multi_index(np.indices((core_side,) * d).reshape(d, -1), grid)
    box = np.ravel_multi_index(lo.T, grid)[:, None] + offsets
    assert np.all(lo + core_side <= side)
    assert p.core_sites.tolist() == box.tolist()
    # pairwise disjoint
    assert np.unique(p.core_sites).size == p.core_sites.size
    # core j sits in super-box j (C order), which fits in the grid, with as
    # many sites before it as after it along each axis, one more before
    # when T is even
    j = lo // T
    assert j.tolist() == [list(t) for t in np.ndindex(*(n,) * d)]
    assert np.all((j + 1) * T <= side)
    before = lo - j * T
    after = (j + 1) * T - (lo + core_side)
    assert np.all(after >= 0)
    assert np.all(before - after == 1 - T % 2)
    if R % 2:
        # consecutive cores along an axis leave floor(sqrt(R)) sites between
        for axis in range(d):
            starts = np.unique(lo[:, axis])
            assert np.all(np.diff(starts) - R == math.isqrt(R))


class TestDescendingSites:
    def test_hand_case(self):
        # ties in index order: coordinate -1 (index 1) before 1 (index 3)
        flat = np.array([0.5, 2.0, -1.0, 2.0, 0.0])
        assert extremes.descending_sites(flat).tolist() == [1, 3, 0, 4, 2]

    def test_top_truncation(self):
        assert extremes.descending_sites(np.arange(9.0), 3).tolist() == [8, 7, 6]

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

    def test_descending_invariant(self, iid1):
        flat = field.sample_field(iid1, 257, seed=1).values
        vals = flat[extremes.descending_sites(flat)]
        assert np.all(vals[:-1] >= vals[1:])
        assert vals.size == 257


def box_maxima_coords(s, p):
    """box_maxima as ((coords...), value) per core."""
    sites, values = extremes.box_maxima(s, p)
    coords = np.stack(np.unravel_index(sites, s.values.shape), axis=1) - s.half
    return tuple(
        (tuple(int(c) for c in x), float(v)) for x, v in zip(coords, values)
    )


def hand_cores(L, R, d):
    """Index slices of each core, in C order, from the per-axis core starts
    in CORE_STARTS."""
    starts = CORE_STARTS[(L, R, d)]
    return [
        tuple(slice(a, a + R) for a in corner)
        for corner in itertools.product(starts, repeat=d)
    ]


class TestBoxMaxima:
    def test_per_core_argmax(self, iid1):
        s = field.sample_field(iid1, 64, seed=3)
        p = extremes.build_partition(64, 15, 1)
        maxima = box_maxima_coords(s, p)
        assert len(maxima) == 3
        for j, (coord, val) in enumerate(maxima):
            # cores at grid indices 2-16, 20-34, 38-52
            block = s.values[2 + 18 * j : 17 + 18 * j]
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


# (L, R_L, d): 3 cores of 15 sites, 4 of 81, 27 of 125; each core starts at
# j*T + T//2 - R_L//2 along each axis, T = R_L + floor(sqrt(R_L))
CORE_STARTS = {(64, 15, 1): (2, 20, 38), (31, 9, 2): (2, 14), (24, 5, 3): (1, 8, 15)}
BOXES = list(CORE_STARTS)


class TestBoxMaximaBrute:
    def _sample(self, L, d, seed):
        model = cov.CovarianceModel("cube_indicator", d, {"m": 2})
        return field.sample_field(model, L, seed)

    def _with_values(self, s, values):
        return field.FieldSample(
            values=values, L=s.L, model=s.model, seed=s.seed, sampler=s.sampler
        )

    @pytest.mark.parametrize("L,R,d", BOXES)
    def test_matches_brute_argmax(self, L, R, d):
        p = extremes.build_partition(L, R, d)
        for seed in range(3):
            s = self._sample(L, d, seed)
            assert box_maxima_coords(s, p) == tuple(
                brute_core_max(s.values, sl, s.half) for sl in hand_cores(L, R, d)
            )

    @pytest.mark.parametrize("L,R,d", BOXES)
    def test_tie_goes_to_first_site_in_c_order(self, L, R, d):
        p = extremes.build_partition(L, R, d)
        s = self._sample(L, d, 0)
        values = np.array(s.values)
        sl = hand_cores(L, R, d)[1]
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
        maxima = box_maxima_coords(self._with_values(s, values), p)
        assert maxima[1] == (tuple(i - s.half for i in first), top)

    @pytest.mark.parametrize("L,R,d", BOXES)
    def test_core_sites_rows_are_the_cores_in_c_order(self, L, R, d):
        p = extremes.build_partition(L, R, d)
        side = 2 * (L // 2) + 1
        assert p.core_sites.shape == (p.n_boxes, R**d)
        assert not p.core_sites.flags.writeable
        cores = hand_cores(L, R, d)
        assert p.n_boxes == len(cores)
        for row, sl in zip(p.core_sites, cores):
            expected = [
                np.ravel_multi_index(
                    tuple(q + s.start for q, s in zip(pos, sl)), (side,) * d
                )
                for pos in np.ndindex(*(s.stop - s.start for s in sl))
            ]
            assert row.tolist() == expected

    def test_partition_of_another_box_rejected(self):
        s = self._sample(64, 1, 0)
        with pytest.raises(ValueError):
            extremes.box_maxima(s, extremes.build_partition(70, 15, 1))


class TestSiteRanks:
    def test_hand_case_with_ties(self):
        # 2.0 ties at indices 1 and 3: the earlier one ranks first
        values = np.array([0.5, 2.0, -1.0, 2.0, 0.0])
        assert extremes.site_ranks(values, [1, 3, 0, 2]) == (1, 2, 3, 5)

    @pytest.mark.parametrize("shape", [(257,), (9, 11)])
    def test_matches_stable_descending_sort(self, shape):
        # integer values force many ties
        values = np.random.default_rng(3).integers(0, 20, size=shape).astype(float)
        order = np.argsort(-values.ravel(), kind="stable")
        sites = [int(i) for i in order]
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
        # b > 0 is false for NaN, which would draw the undecorated process
        with pytest.raises(ValueError, match="decoration variance"):
            extremes.sample_ppp_reference(float("nan"), 100, seed=1)


class TestRankOneProbability:
    def test_zero_decoration_is_certain(self):
        p, se = ppp_rank_one_probability(0.0, 50, 500, seed=1)
        assert p == 1.0

    def test_monotone_in_decoration(self):
        ps = [
            ppp_rank_one_probability(b, 100, 4000, seed=3)[0]
            for b in (0.0, 0.25, 1.0, 4.0)
        ]
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        assert ps[0] == 1.0
        assert ps[-1] < 0.8

    @pytest.mark.parametrize("b", [-1.0, float("nan")])
    def test_bad_decoration_rejected(self, b):
        with pytest.raises(ValueError, match="decoration variance"):
            ppp_rank_one_probability(b, 100, 2000, seed=9)

    def test_deterministic(self):
        a = ppp_rank_one_probability(0.5, 100, 2000, seed=9)
        b = ppp_rank_one_probability(0.5, 100, 2000, seed=9)
        assert a == b

    def test_se_scale(self):
        p, se = ppp_rank_one_probability(0.5, 100, 10000, seed=2)
        assert 0.5 < p < 1.0
        assert se == pytest.approx(math.sqrt(p * (1 - p) / 10000), rel=1e-9)
