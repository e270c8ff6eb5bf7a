import dataclasses
import gc
import itertools
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

import benctrl._memo as _memo
import benctrl.spectrum as sp
from benctrl.errors import ClusterSizeError, ConfigurationError
from benctrl.moment_control import ControlProblem
from benctrl.operators import build_bump, m_matrix
from benctrl.spectral import TorusFunction
from benctrl.stabilization import build_L_lambda
from oracles import brute_force_clusters, eigenvalue


def brute_force_gap(n, alpha, mu=0.0):
    """Independent oracle: pairwise min over distinct eigenvalues."""
    lams = sorted(set(float(eigenvalue(k, alpha, mu)) for k in range(-n, n + 1)))
    return min(b - a for a, b in zip(lams, lams[1:]))


class TestEigenvalue:
    def test_zero_mode(self):
        for alpha, mu in [(1.0, 0.0), (0.3, 0.7), (5.0, -2.0)]:
            assert eigenvalue(0, alpha, mu) == 0

    def test_alpha_one_triple_zero(self):
        assert eigenvalue(1, 1.0) == 0.0
        assert eigenvalue(-1, 1.0) == 0.0

    def test_resonant_alpha_seven_thirds(self):
        # lam_1 = lam_2 at 3*alpha = 7; both equal -4/3
        a = Fraction(7, 3)
        assert eigenvalue(1, a) == Fraction(-4, 3)
        assert eigenvalue(2, a) == Fraction(-4, 3)

    def test_mu_shift(self):
        assert eigenvalue(2, 1.0, 0.3) == pytest.approx(8 + 1.2 - 4.0)

    def test_antisymmetry_exact(self):
        for alpha, mu in [(0.37, 0.0), (2.519, 0.81), (7 / 3, -1.2)]:
            lam = sp.eigenvalues(40, alpha, mu)
            assert np.array_equal(lam[::-1], -lam)


class TestClusters:
    def test_alpha_one(self):
        groups, _ = sp.clusters(4, 1.0)
        assert (-1, 0, 1) in groups
        singles = [g for g in groups if len(g) == 1]
        assert sorted(g[0] for g in singles) == [-4, -3, -2, 2, 3, 4]

    def test_small_alpha_all_singletons(self):
        groups, _ = sp.clusters(8, 0.1)
        assert all(len(g) == 1 for g in groups)

    def test_seven_thirds_pairs(self):
        groups, exact = sp.clusters(4, Fraction(7, 3))
        assert exact
        assert (1, 2) in groups and (-2, -1) in groups
        assert (0,) in groups

    def test_float_seven_thirds_matches_exact(self):
        exact_groups, _ = sp.clusters(8, Fraction(7, 3))
        float_groups, exact = sp.clusters(8, 7 / 3)
        assert not exact
        assert sorted(exact_groups) == sorted(float_groups)

    def test_partition_covers_range(self):
        groups, _ = sp.clusters(12, 2.7)
        flat = sorted(itertools.chain.from_iterable(groups))
        assert flat == list(range(-12, 13))

    def test_size_cap_enforced(self, monkeypatch):
        # no alpha in (0, 10] yields size > 3 up to n=64; verify the guard
        # with an artificial tolerance so wide it merges everything
        monkeypatch.setattr(sp, "CLUSTER_RTOL", 1e9)
        everything = tuple(range(-8, 9))
        with pytest.raises(ClusterSizeError) as info:
            sp.clusters(8, 0.5)
        assert str(info.value) == (
            f"cluster {everything} of size 17 at alpha=0.5, mu=0 "
            "(at most 3 indices may share an eigenvalue)")

    def test_grid_scan_max_size_three(self):
        a = Fraction(2, 20)
        while a <= 5:
            groups, _ = sp.clusters(64, a)
            assert max(len(g) for g in groups) <= 3
            a += Fraction(1, 4)


#: 10^13+37 times 3 * n^3 exceeds 2^63 at n=256: keys need unbounded integers
TINY_MU = Fraction(1, 10**13 + 37)


class TestExactSweep:
    @pytest.mark.parametrize("n", [8, 64, 256])
    @pytest.mark.parametrize("mu", [Fraction(0), Fraction(3, 10)])
    @pytest.mark.parametrize("alpha", [Fraction(1), Fraction(7, 3),
                                       Fraction(1, 10),
                                       Fraction(123457, 98765)])
    def test_matches_fraction_grouping(self, alpha, mu, n):
        groups, exact = sp.clusters(n, alpha, mu)
        assert exact
        assert groups == brute_force_clusters(n, alpha, mu)

    @pytest.mark.parametrize("alpha", [Fraction(1), Fraction(7, 3)])
    def test_keys_beyond_int64(self, alpha):
        n = 256
        assert TINY_MU.denominator * alpha.denominator * n**3 > 2**63
        groups, _ = sp.clusters(n, alpha, TINY_MU)
        assert groups == brute_force_clusters(n, alpha, TINY_MU)
        # mu breaks the alpha=1 triple only by 2*mu, which floats would merge
        if alpha == 1:
            assert (-1,) in groups and (0,) in groups and (1,) in groups

    @pytest.mark.parametrize("alpha, mu, rational", [
        (Fraction(7, 3), Fraction(0), Fraction(7, 3)),
        (Fraction(9, 5), Fraction(0), Fraction(9, 5)),     # pairs {-2, 1}
        (Fraction(12), Fraction(41, 2), Fraction(12)),     # triples
        (7 / 3, 0.0, Fraction(7, 3))])
    def test_the_cli_size_follows_the_per_group_rule(self, alpha, mu,
                                                     rational):
        """At the spectrum experiment's n = 512 the groups are those of the
        Fraction eigenvalues, each sorted and listed by representative,
        the member of least (|k|, k); rep_rows and slot follow them."""
        n = 512

        def representative(group):
            return min(group, key=lambda k: (abs(k), k))

        expect = sorted(brute_force_clusters(n, rational, Fraction(mu)),
                        key=representative)
        groups, _ = sp.clusters(n, alpha, mu)
        assert groups == expect
        spec = sp.analyze(n, alpha, mu)
        assert spec.clusters == tuple(expect)
        reps = [representative(g) for g in expect]
        assert spec.rep_rows.tolist() == [k + n for k in reps]
        slot = {k: c for c, g in enumerate(expect) for k in g}
        assert spec.slot.tolist() == [slot[k] for k in range(-n, n + 1)]

    @pytest.mark.parametrize("alpha, mu", [(Fraction(1), Fraction(0)),
                                           (Fraction(7, 3), Fraction(3, 10)),
                                           (1.0, 0.0), (0.1, 0.3)])
    def test_slot_maps_each_wavenumber_to_its_cluster(self, alpha, mu):
        spec = sp.analyze(64, alpha, mu)
        assert not spec.slot.flags.writeable
        for k in spec.wavenumbers:
            assert k in spec.clusters[spec.slot[k + 64]]
        assert set(spec.slot) == set(range(len(spec.clusters)))


class TestSpectrumAnalysis:
    def test_representatives_mirror(self):
        spec = sp.analyze(8, Fraction(7, 3))
        rep = dict(zip(spec.clusters, spec.rep_rows - 8))
        assert rep[(1, 2)] == 1 and rep[(-2, -1)] == -1
        spec1 = sp.analyze(8, 1.0)
        assert dict(zip(spec1.clusters, spec1.rep_rows - 8))[(-1, 0, 1)] == 0

    def test_gap_alpha_one(self):
        spec = sp.analyze(8, 1.0)
        # distinct eigenvalues 0, +-4, +-18, ... -> smallest gap 4
        assert spec.gap_gamma == pytest.approx(4.0)
        assert spec.gap_gamma == pytest.approx(brute_force_gap(8, 1.0))

    def test_gap_alpha_small(self):
        # lam_1 - lam_0 = 0.9 is the minimal spacing of distinct eigenvalues;
        # the spacing between the two smallest positive ones is 6.7
        spec = sp.analyze(8, 0.1)
        assert spec.gap_gamma == pytest.approx(0.9)
        assert spec.gap_gamma == pytest.approx(brute_force_gap(8, 0.1))
        assert eigenvalue(2, 0.1) - eigenvalue(1, 0.1) == pytest.approx(6.7)

    def test_gap_stable_under_doubling(self):
        for alpha in (0.1, 1.0, 7 / 3, 4.9):
            g1 = sp.analyze(16, alpha).gap_gamma
            g2 = sp.analyze(32, alpha).gap_gamma
            assert g1 == pytest.approx(g2, rel=1e-12)

    def test_window_bound(self):
        assert sp.analyze(8, 1.0).window_bound == 2
        assert sp.analyze(8, 0.1).window_bound == 1
        assert sp.window_bound(Fraction(7, 3)) == 4

    def test_consecutive_gaps_eventually_increasing(self):
        for alpha in (0.1, 1.0, 7 / 3, 6.4):
            spec = sp.analyze(64, alpha)
            lam = spec.lambdas
            w = spec.window_bound
            gaps = [abs(lam[k + 1 + 64] - lam[k + 64]) for k in range(w + 1, 63)]
            assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_near_cluster_warning(self):
        # alpha just off the 7/3 resonance: pair separated by ~1e-5 << gamma;
        # the second call is a memo hit and warns again
        sp.analyze.cache_clear()
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            first = sp.analyze(8, 7 / 3 + 1e-5 / 3)
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            assert sp.analyze(8, 7 / 3 + 1e-5 / 3) is first

    @pytest.mark.parametrize("alpha", [0.1, 1.0, Fraction(1), 7 / 3,
                                       Fraction(7, 3), 4.9, 6.4])
    @pytest.mark.parametrize("mu", [0.0, 0.3])
    @pytest.mark.parametrize("n", [16, 64])
    def test_scan_window_attains_the_gap(self, alpha, mu, n):
        # the minimum gap is attained by clusters meeting [-1-W, W+1]
        spec = sp.analyze(n, alpha, mu)
        w = spec.window_bound
        assert n >= w + 1
        inside = [i for i, grp in enumerate(spec.clusters)
                  if any(-1 - w <= k <= w + 1 for k in grp)]
        window = np.sort(spec.lambdas[spec.rep_rows][inside])
        assert np.diff(window).min() == pytest.approx(spec.gap_gamma,
                                                      rel=1e-12, abs=0.0)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            sp.analyze(8, -1.0)

    @pytest.mark.parametrize("alpha,mu", [
        (-1.0, 0.0), (0.0, 0.0), (math.nan, 0.0), (math.inf, 0.0),
        (1.0, math.nan), (1.0, math.inf),
        pytest.param(10**400, 0, id="int-alpha-1e400"),
        pytest.param(1.0, 10**400, id="int-mu-1e400")])
    def test_bad_parameters_are_refused_before_any_store(self, alpha, mu):
        # nothing kept is evicted by a call that is refused; an int past
        # the float range compares as finite, so it is refused by float()
        lam = sp.eigenvalues(8, 1.0)
        spec = sp.analyze(8, 1.0)
        with pytest.raises(ConfigurationError,
                           match="alpha must be positive and finite, mu"):
            sp.analyze(8, alpha, mu)
        assert sp.eigenvalues(8, 1.0) is lam
        assert sp.analyze(8, 1.0) is spec

    @pytest.mark.parametrize("alpha,mu", [(1e308, 0), (1.0, 1e308)])
    def test_eigenvalues_past_the_float_range_are_refused_before_any_store(
            self, alpha, mu):
        lam = sp.eigenvalues(8, 1.0)
        with pytest.raises(ConfigurationError,
                           match="eigenvalues past the float range"):
            sp.analyze(8, alpha, mu)
        assert sp.eigenvalues(8, 1.0) is lam

    def test_eigenvalues_near_the_float_range_are_accepted(self):
        for alpha in (1.7e306, 2.7e306):      # n=8 overflows near 2.8e306
            assert np.isfinite(sp.analyze(8, alpha).lambdas).all()

    def test_an_int_past_the_float_range_has_no_eigenvalues(self):
        with pytest.raises(ConfigurationError,
                           match="eigenvalues past the float range"):
            sp.eigenvalues(8, 1.0, 10**400)

    def test_report_fields(self):
        rep = sp.spectrum_report(sp.analyze(4, 1.0))
        assert set(rep) == {"alpha", "mu", "n", "lambdas", "clusters", "gamma",
                            "window_bound"}
        assert [-1, 0, 1] in rep["clusters"]


class TestMemo:
    def test_a_hit_is_the_same_spectrum(self):
        sp.analyze.cache_clear()
        spec = sp.analyze(16, 7 / 3, 0.3)
        assert sp.analyze(16, 7 / 3, 0.3) is spec
        assert sp.analyze(n=16, alpha=7 / 3, mu=0.3) is spec
        sp.analyze.cache_clear()
        fresh = sp.analyze(16, 7 / 3, 0.3)
        assert fresh is not spec
        assert np.array_equal(fresh.lambdas, spec.lambdas)
        assert fresh.clusters == spec.clusters

    def test_types_are_part_of_the_key(self):
        # Fraction(1) == 1.0, but only the rational decides clusters exactly
        assert sp.analyze(8, Fraction(1)).exact
        assert not sp.analyze(8, 1.0).exact
        assert sp.analyze(8, Fraction(1), 0).exact
        assert not sp.analyze(8, Fraction(1), 0.0).exact

    def test_errors_are_not_stored(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                sp.analyze(8, -1.0)

    def test_a_new_key_evicts_the_old_spectrum(self):
        # at the budget: an n=96 horizon with what a control and HUM fill
        # in it and its plant holds more than BUDGET bytes, so the next miss
        # drops it and the spectrum older than it
        sp.analyze.cache_clear()
        n = 96
        spec = sp.analyze(n, 1.0)
        mm = m_matrix(build_bump(kmax=2 * n), n)
        horizon = spec.horizon(1.0)
        plant = horizon.plant(mm)
        horizon.slot_norms, plant.weighted_moments
        plant.forward_gramian.eigvecs_h
        assert horizon.nbytes > _memo.BUDGET
        del horizon, plant
        old = weakref.ref(spec)
        del spec
        gc.collect()
        assert old() is not None          # still the store's entry
        sp.analyze(n, 0.7)
        gc.collect()
        assert old() is None

    def test_the_least_recently_used_entry_goes_first_at_the_budget(self):
        store = _memo.Store(300)
        computed = []

        def get(key):
            return store.get(key, lambda: computed.append(key)
                             or np.zeros(100, np.uint8))

        for key in "abc":
            get(key)
        get("a")                          # now the most recently used
        get("d")                          # 300 bytes fit: nothing goes
        get("e")                          # 400 > 300: b, the oldest, goes
        for key in "acde":
            get(key)
        assert computed == list("abcde")
        get("b")                          # 400 > 300: a goes
        get("a")
        assert computed == list("abcdeba")

    def test_a_zero_budget_store_keeps_its_newest_entry_only(self):
        # each entry counts as at least a byte, arrays or none
        store, computed = _memo.Store(), []

        def get(key):
            return store.get(key, lambda: computed.append(key) or object())

        first = get("a")
        assert get("a") is first
        get("b")
        get("b")
        assert get("a") is not first
        assert computed == list("aba")

    def test_a_hit_hashes_its_key_twice(self):
        hashed = []

        class Key:
            def __eq__(self, other):
                return isinstance(other, Key)

            def __hash__(self):
                hashed.append(self)
                return 1

        store = _memo.Store(_memo.BUDGET)
        for key in ("a", (Key(),), "b"):
            store.get(key, object)
        hashed.clear()
        # a fresh tuple, whose hash CPython does not cache
        store.get((Key(),), lambda: pytest.fail("a hit computed"))
        assert len(hashed) == 2

    def test_a_horizon_keeps_the_spectrum_it_was_built_from(self):
        sp.analyze.cache_clear()
        spec = sp.analyze(8, 7 / 3, 0.3)
        assert spec.horizon(1.0).spec is spec
        assert dataclasses.replace(spec).horizon(1.0).spec is spec

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_horizon_or_rate_is_refused_before_any_memo(self,
                                                                     bad):
        spec = sp.analyze(8, 1.0)
        spec.horizon(1.0)
        mm = m_matrix(build_bump(kmax=16), 8)
        zero = TorusFunction.zero(8)
        before = _memo.STORE.nbytes
        with pytest.raises(ConfigurationError):
            spec.horizon(bad)
        with pytest.raises(ConfigurationError):
            ControlProblem(1.0, 0.0, bad, 0.0, 8, build_bump(kmax=16), zero,
                           zero)
        with pytest.raises(ConfigurationError):
            build_L_lambda(mm, spec, bad, 1.0)
        assert _memo.STORE.nbytes == before

    def test_a_horizon_is_counted_at_its_filled_size(self, monkeypatch):
        sp.analyze.cache_clear()
        spec = sp.analyze(8, 1.0)
        horizon = spec.horizon(1.0)
        empty = horizon.nbytes
        assert empty == spec.nbytes       # the spectrum's arrays, shared
        # the budget holds the two as stored, not the horizon once filled
        monkeypatch.setattr(_memo.STORE, "budget", 2 * empty)
        horizon.kernel, horizon.duals_h
        mm = m_matrix(build_bump(kmax=16), 8)
        W = horizon.plant(mm).forward_gramian
        assert horizon.nbytes >= empty + horizon.kernel.nbytes \
            + horizon.duals_h.nbytes + W.matrix.nbytes + W.eigvecs.nbytes
        assert sp.analyze(8, 1.0) is spec          # now newer than horizon
        old = weakref.ref(horizon)
        del horizon, W
        spec.horizon(0.5)
        assert old() is None
        assert sp.analyze(8, 1.0) is spec

    def test_the_newest_entry_is_kept_beyond_the_budget(self, monkeypatch):
        sp.analyze.cache_clear()
        monkeypatch.setattr(_memo.STORE, "budget", 0)
        spec = sp.analyze(8, 1.0)
        assert sp.analyze(8, 1.0) is spec
        horizon = spec.horizon(1.0)       # a miss: the spectrum goes
        assert spec.horizon(1.0) is horizon
        assert sp.analyze(8, 1.0) is not spec

    def test_a_rebuilt_spectrum_finds_its_horizons(self):
        # horizons are keyed on the spectrum's key and T, by value
        sp.analyze.cache_clear()
        spec = sp.analyze(8, 7 / 3, 0.3)
        horizon = spec.horizon(1.0)
        twin = dataclasses.replace(spec)
        assert twin is not spec and twin.horizon(1) is horizon
        assert sp.analyze(8, Fraction(7, 3), 0.3).horizon(1.0) \
            is not horizon

    def test_cache_clear_empties_the_store(self):
        spec = sp.analyze(8, 1.0)
        horizon = spec.horizon(1.0)
        assert sp.analyze(8, 1.0) is spec and spec.horizon(1.0) is horizon
        sp.analyze.cache_clear()
        again = sp.analyze(8, 1.0)
        assert again is not spec
        assert spec.horizon(1.0) is not horizon      # found by key
        assert again.horizon(1.0) is spec.horizon(1.0)


class TestGridInvariant:
    def test_cluster_cap_holds_to_n256(self):
        # full alpha grid 0.1..10 step 0.05, exact arithmetic, n=256
        alpha = Fraction(2, 20)
        worst = 0
        while alpha <= 10:
            groups, _ = sp.clusters(256, alpha)
            worst = max(worst, max(len(g) for g in groups))
            alpha += Fraction(1, 20)
        assert worst <= 3
