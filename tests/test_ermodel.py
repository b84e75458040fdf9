"""Erdos-Renyi parameter derivation, bound predictions, and G(n,p) sampling."""

from __future__ import annotations

import hashlib
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlocate import (
    bound_prediction,
    er_parameters,
    is_connected,
    predicted_level_fractions,
    sample_gnp,
)


class TestParameterDerivation:
    def test_dense_case_i_zero(self):
        par = er_parameters(1000, 0.3)
        assert par.delta == 300.0
        assert par.i == 0
        assert par.c is None
        assert par.gamma_smd == 0.7
        assert par.gamma_md == pytest.approx(0.7615773105863908, abs=0, rel=1e-15)
        assert par.zeta == pytest.approx(0.15174271293851463, rel=1e-15)
        assert par.eta == pytest.approx(0.8507575338843458, rel=1e-15)
        assert par.regime_valid
        assert par.regime_relaxed

    def test_sparse_case_i_one(self):
        par = er_parameters(5000, 0.02)
        assert par.delta == 100.0
        assert par.i == 1
        assert par.c == 2.0
        assert par.gamma_smd == pytest.approx(0.8446647167633873, rel=1e-15)
        assert par.gamma_md == pytest.approx(0.8554379712367854, rel=1e-15)
        assert par.zeta == pytest.approx(0.2918423065872431, rel=1e-15)
        assert par.eta == pytest.approx(0.7911343859397506, rel=1e-15)

    def test_i_is_largest_power_below_threshold(self):
        par = er_parameters(5000, 0.02)
        threshold = 5000 / math.log(5000)
        assert par.delta ** par.i <= threshold < par.delta ** (par.i + 1)

    def test_force_i_override(self):
        # natural rule picks i = 2 at these parameters; force the shallower read
        assert er_parameters(5000, 0.002).i == 2
        par = er_parameters(5000, 0.002, force_i=1)
        assert par.i == 1
        assert par.c == pytest.approx(10.0 ** 2 / 5000)

    def test_force_i_degenerate_rejected(self):
        # pushing i past the diameter scale drives the near mass negative
        with pytest.raises(ValueError, match="degenerate"):
            er_parameters(5000, 0.02, force_i=2)
        with pytest.raises(ValueError, match="degenerate"):
            er_parameters(1000, 0.3, force_i=4)

    def test_gamma_ordering(self):
        # the two-point mass makes hypot at least as large as max
        for n, p in [(1000, 0.3), (5000, 0.02), (1024, 0.5), (300, 0.1)]:
            par = er_parameters(n, p)
            assert par.gamma_md >= par.gamma_smd

    def test_balanced_masses(self):
        par = er_parameters(1024, 0.5)
        assert par.gamma_smd == 0.5
        assert par.gamma_md == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert par.eta == pytest.approx(0.9471233627055102, rel=1e-15)

    def test_regime_rejections(self):
        # average degree below ln N
        assert not er_parameters(100, 0.01).regime_valid
        # 1 - p too small
        assert not er_parameters(100, 0.95).regime_valid

    def test_near_critical_degree_is_outside_window(self):
        # Just above mean degree 1 the natural index runs to i=256 and puts
        # more than all the mass below level i+1; that is no valid window,
        # not an error.
        par = er_parameters(50, 0.0202)
        assert par.i == 256
        assert not par.regime_valid and not par.regime_relaxed
        assert 0.0 < par.gamma_smd == par.gamma_md < 1.0
        assert math.isfinite(par.eta)

    def test_one_ulp_above_critical_degree_returns(self):
        # delta = 1 + 2**-52: the index is about 1e16, found without
        # counting up to it.
        par = er_parameters(50, math.nextafter(0.02, 1.0))
        assert par.delta > 1.0
        assert par.delta**par.i <= 50 / math.log(50) < par.delta ** (par.i + 1)
        assert not par.regime_valid

    def test_natural_index_never_raises_on_grid(self):
        # A coarse log grid over test_bound_chain_property's range; it holds
        # near-critical points where the mass split degenerates.
        for n in np.unique(np.geomspace(50, 200_000, 40).astype(int)):
            for p in np.geomspace(1e-4, 0.999, 40):
                par = er_parameters(int(n), float(p))
                assert math.isfinite(par.eta) and 0.0 < par.gamma_smd < 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            er_parameters(2, 0.5)
        with pytest.raises(ValueError):
            er_parameters(100, 0.0)
        with pytest.raises(ValueError):
            er_parameters(100, 1.0)
        with pytest.raises(ValueError, match="^force_i must be >= 0$"):
            er_parameters(5000, 0.02, force_i=-1)


class TestBoundPrediction:
    def test_frozen_dense(self):
        b = bound_prediction(er_parameters(1000, 0.3))
        assert b.smd_upper == pytest.approx(19.367088707438644, rel=1e-15)
        assert b.smd_lower == pytest.approx(16.476696627259862, rel=1e-15)
        assert b.md_value == pytest.approx(25.362256888987538, rel=1e-15)
        assert b.f_gamma == pytest.approx(0.7636185057272235, rel=1e-15)
        assert b.f_eta == pytest.approx(0.8507575338843458, rel=1e-15)

    def test_frozen_sparse(self):
        b = bound_prediction(er_parameters(5000, 0.02))
        assert b.smd_upper == pytest.approx(50.452668276861075, rel=1e-15)
        assert b.smd_lower == pytest.approx(39.91484073623642, rel=1e-15)
        assert b.md_value == pytest.approx(54.547846674820605, rel=1e-15)
        assert b.f_gamma == pytest.approx(0.9249250218368404, rel=1e-15)

    def test_balanced_case_exact_values(self):
        b = bound_prediction(er_parameters(1024, 0.5))
        assert b.smd_upper == 10.0
        assert b.smd_lower == 10.0
        assert b.md_value == pytest.approx(20.0, rel=1e-14)

    def test_rejects_invalid_regime(self):
        with pytest.raises(ValueError):
            bound_prediction(er_parameters(100, 0.95))

    def test_underflowed_far_mass_inside_window(self):
        # c = delta**2 / n is about 745 here, so exp(-c) underflows to 0:
        # level i+2 is empty and the near level carries the rest.
        par = er_parameters(122083, 0.078125)
        assert par.regime_valid and par.i == 1
        assert par.gamma_smd == par.gamma_md == pytest.approx(1.0 - 0.078125)
        b = bound_prediction(par)
        assert b.smd_lower <= b.smd_upper <= b.md_value
        assert b.f_gamma == 1.0
        fractions = predicted_level_fractions(par)
        assert fractions[3] == 0.0
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-12)

    def test_lower_never_exceeds_upper(self):
        for n in (100, 500, 1000, 4096, 20000):
            for p in (0.05, 0.1, 0.3, 0.5, 0.693, 0.7):
                par = er_parameters(n, p)
                if not par.regime_valid:
                    continue
                b = bound_prediction(par)
                assert b.smd_lower <= b.smd_upper <= b.md_value + 1e-12

    def test_lower_at_least_binary_search_floor(self):
        b = bound_prediction(er_parameters(2000, 0.3))
        assert b.smd_lower >= math.log2(2000) - 1e-12


class TestLevelFractions:
    def test_dense_two_levels(self):
        assert predicted_level_fractions(er_parameters(1000, 0.3)) == {1: 0.3, 2: 0.7}

    def test_sparse_three_levels(self):
        fr = predicted_level_fractions(er_parameters(5000, 0.02))
        assert set(fr) == {1, 2, 3}
        assert fr[1] == pytest.approx(0.02)
        assert fr[2] == pytest.approx(0.8446647167633873, rel=1e-15)
        assert fr[3] == pytest.approx(0.1353352832366127, rel=1e-15)
        assert sum(fr.values()) == pytest.approx(1.0, abs=1e-12)

    def test_last_two_levels_give_the_gammas(self):
        # levels i+1 and i+2 are the masses that gamma_smd and gamma_md are built from
        indices = set()
        for n in (50, 300, 1000, 5000, 100_000):
            for p in np.geomspace(2e-4, 0.9, 40).tolist():
                par = er_parameters(n, p)
                if not par.regime_valid:
                    continue
                fr = predicted_level_fractions(par)
                assert sorted(fr) == list(range(1, par.i + 3))
                near, far = fr[par.i + 1], fr[par.i + 2]
                assert far == (1.0 - par.p if par.i == 0 else math.exp(-par.c))
                assert max(near, far) == par.gamma_smd
                assert math.hypot(near, far) == par.gamma_md
                indices.add(par.i)
        assert {0, 1, 2} <= indices

    def test_fractions_sum_to_one_in_shallow_regimes(self):
        for n, p in [(1000, 0.3), (5000, 0.02), (1024, 0.5)]:
            fr = predicted_level_fractions(er_parameters(n, p))
            assert sum(fr.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(0.0 <= v <= 1.0 for v in fr.values())


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=50, max_value=200_000),
    p=st.floats(min_value=1e-4, max_value=0.999, allow_nan=False),
)
def test_bound_chain_property(n, p):
    par = er_parameters(n, p)
    assert par.delta == pytest.approx(n * p)
    if not par.regime_valid:
        return
    b = bound_prediction(par)
    assert 0.0 < par.gamma_smd <= par.gamma_md < 1.0
    assert b.smd_lower <= b.smd_upper <= b.md_value * (1 + 1e-12)
    assert 0.0 < b.f_gamma <= 1.0 + 1e-12


class TestSampling:
    def test_deterministic_for_seed(self):
        g1 = sample_gnp(200, 0.05, 42)
        g2 = sample_gnp(200, 0.05, 42)
        assert g1.edges() == g2.edges()

    def test_seed_changes_graph(self):
        assert sample_gnp(200, 0.05, 1).edges() != sample_gnp(200, 0.05, 2).edges()

    def test_accepts_generator(self):
        rng = np.random.default_rng(7)
        g = sample_gnp(100, 0.1, rng)
        assert g.n == 100

    def test_generator_continues_its_stream(self):
        rng, twin = np.random.default_rng(7), np.random.default_rng(7)
        first, second = sample_gnp(100, 0.1, rng), sample_gnp(100, 0.1, rng)
        assert first.edges() == sample_gnp(100, 0.1, twin).edges()
        assert second.edges() == sample_gnp(100, 0.1, twin).edges()
        assert first.edges() != second.edges()

    def test_edge_count_near_expectation(self):
        n, p = 400, 0.1
        m = sample_gnp(n, p, 3).num_edges
        mean = p * n * (n - 1) / 2
        sd = math.sqrt(mean * (1 - p))
        assert abs(m - mean) < 6 * sd

    def test_second_batch_continues_the_gaps(self):
        """A batch of gaps that ends inside the triangle is followed by
        another.  With every gap 1, a batch sized for p = 0.3 falls short
        of the 66 pairs of G(12, 0.3), so the sampler draws more, and the
        graph comes out complete.  Below p = 1/3 a gap is
        ceil(E / -log1p(-p)) of a standard exponential E, so an E of 0.1
        gives a gap of 1."""
        batches = []

        class UnitGaps(np.random.Generator):
            def standard_exponential(self, size=None):
                batches.append(size)
                return np.full(size, 0.1)

        g = sample_gnp(12, 0.3, UnitGaps(np.random.PCG64(0)))
        assert len(batches) > 1
        assert g.edges() == list(combinations(range(12), 2))

    def test_second_batch_continues_the_geometric_gaps(self):
        """The same at p = 0.5, where the gaps are ``geometric`` draws."""
        batches = []

        class UnitGaps(np.random.Generator):
            def geometric(self, p, size=None):
                batches.append(size)
                return np.ones(size, dtype=np.int64)

        g = sample_gnp(12, 0.5, UnitGaps(np.random.PCG64(0)))
        assert len(batches) > 1
        assert g.edges() == list(combinations(range(12), 2))

    def test_extreme_probabilities(self):
        assert sample_gnp(30, 1.0, 0).num_edges == 30 * 29 // 2
        assert sample_gnp(30, 0.0, 0).num_edges == 0

    def test_dense_sample_connected(self):
        assert is_connected(sample_gnp(100, 0.3, 5))

    @pytest.mark.parametrize(
        "n, p, seed, digest",
        [
            (200, 0.05, 42, "8369002d35ee666cd09159420be9a657a90741f2819bdf0be631cab6ba10c0fa"),
            (2000, 0.3, 7, "b70d41feb474b0d1b980fd98e013ef8498f17c873cfe27f96e9d5d9a94953231"),
            (500, 0.01, 3, "1be647de08017bfb886520a17091d77b319cf17555ebfe48e900c7d78976dbab"),
        ],
    )
    def test_sample_pinned(self, n, p, seed, digest):
        # The sampler's random stream and pair decoding are fixed: a seed
        # names one graph across versions, which sweep CSVs rely on.
        g = sample_gnp(n, p, seed)
        text = ";".join(f"{u},{v}" for u, v in g.edges())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_gnp(0, 0.5, 1)
        with pytest.raises(ValueError):
            sample_gnp(10, -0.1, 1)
        with pytest.raises(ValueError):
            sample_gnp(10, 1.5, 1)
