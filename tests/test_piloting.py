"""Tests for pilot placement and multiplexing."""

import numpy as np
import pytest

from ddlf.piloting import (
    PilotPlacement,
    PilotSequence,
    accordion_placement,
    all_data_placement,
    demultiplex,
    extract_pilots,
    lattice_min_distance_sq,
    multiplex,
    optimal_shift,
    qpsk_pilot_sequence,
    round_half_away,
)


def brute_force_min_dist_sq(lam, mu):
    """Exhaustive enumeration of nonzero lattice points (l, lam*k + mu*l)."""
    best = None
    for ell in range(-2 * lam, 2 * lam + 1):
        for k in range(-3 * lam, 3 * lam + 1):
            if ell == 0 and k == 0:
                continue
            d = ell * ell + (lam * k + mu * ell) ** 2
            best = d if best is None else min(best, d)
    return best


class TestLattice:
    def test_frozen_examples(self):
        assert lattice_min_distance_sq(5, 0) == 1
        assert lattice_min_distance_sq(2, 1) == 2
        assert lattice_min_distance_sq(5, 2) == 5

    def test_brute_force_sweep(self):
        for lam in range(2, 17):
            for mu in range(lam):
                assert lattice_min_distance_sq(lam, mu) == brute_force_min_dist_sq(lam, mu), \
                    (lam, mu)

    def test_optimal_shift_examples(self):
        assert optimal_shift(2) == 1

    def test_optimal_shift_matches_exhaustive_argmax(self):
        for lam in range(2, 17):
            dists = [brute_force_min_dist_sq(lam, mu) for mu in range(lam)]
            best = max(range(lam), key=lambda mu: (dists[mu], -mu))
            assert optimal_shift(lam) == best

    def test_optimal_shift_range(self):
        for lam in (2, 5, 9, 16, 65):
            assert 0 <= optimal_shift(lam) < lam

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            lattice_min_distance_sq(1, 0)
        with pytest.raises(ValueError):
            lattice_min_distance_sq(5, 5)
        with pytest.raises(ValueError):
            optimal_shift(1)


class TestRounding:
    def test_half_away_from_zero(self):
        assert round_half_away(0.5) == 1
        assert round_half_away(1.5) == 2
        assert round_half_away(2.4) == 2
        assert round_half_away(-0.5) == -1


class TestAccordion:
    def test_paper_shapes(self):
        pl1 = accordion_placement(64, 64, 1)
        assert (pl1.M, pl1.N) == (64, 65) and pl1.P == 64
        pl6 = accordion_placement(64, 64, 6)
        assert (pl6.M, pl6.N) == (64, 70) and pl6.P == 384

    def test_tiny_frame(self):
        pl = accordion_placement(2, 2, 1)
        assert pl.N == 3
        cols = [n for (_, n) in pl.pilot_indices]
        assert len(set(cols)) == 2  # distinct columns across the two rows

    @pytest.mark.parametrize("m_data", (8, 16, 32, 64))
    @pytest.mark.parametrize("n_data", (8, 16, 32, 64))
    @pytest.mark.parametrize("ppr", (1, 2, 3, 4, 5, 6, 7))
    def test_structure_sweep(self, m_data, n_data, ppr):
        if ppr >= n_data:
            pytest.skip("requires P' < N_data")
        pl = accordion_placement(m_data, n_data, ppr)
        assert pl.N == n_data + ppr
        assert pl.P == pl.M * pl.N - pl.M_data * pl.N_data
        assert len(set(pl.pilot_indices)) == pl.P
        per_row = np.zeros(pl.M, dtype=int)
        for (m, _) in pl.pilot_indices:
            per_row[m] += 1
        assert np.all(per_row == ppr)

    @pytest.mark.parametrize("m_data", (8, 16, 32, 64))
    @pytest.mark.parametrize("n_data", (8, 16, 32, 64))
    @pytest.mark.parametrize("ppr", (1, 2, 3, 4, 5, 6, 7))
    def test_beats_clustered_placement(self, m_data, n_data, ppr):
        # minimum pairwise distance must not be worse than packing the same
        # number of pilots into the leading columns
        if ppr >= n_data:
            pytest.skip("requires P' < N_data")
        pl = accordion_placement(m_data, n_data, ppr)
        acc = np.array(pl.pilot_indices, dtype=float)
        clustered = np.array([(m, n) for m in range(pl.M) for n in range(ppr)],
                             dtype=float)

        def min_dist(pts):
            d = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
            d[np.arange(len(pts)), np.arange(len(pts))] = np.inf
            return d.min()

        assert min_dist(acc) >= min_dist(clustered)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            accordion_placement(8, 8, 0)
        with pytest.raises(ValueError):
            accordion_placement(8, 8, 8)


class TestPlacementType:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            PilotPlacement(M=1, N=2, M_data=1, N_data=1,
                           pilot_indices=((0, 0),), data_indices=((0, 0),))

    def test_index_arrays_built_once_and_read_only(self):
        pl = accordion_placement(8, 6, 2)
        pr, pc = pl.pilot_array_indices()
        dr, dc = pl.data_array_indices()
        again = pl.pilot_array_indices() + pl.data_array_indices()
        assert all(x is y for x, y in zip(again, (pr, pc, dr, dc)))
        for arr in (pr, pc, dr, dc):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        assert list(zip(pr.tolist(), pc.tolist())) == list(pl.pilot_indices)
        assert list(zip(dr.tolist(), dc.tolist())) == list(pl.data_indices)
        empty_r, empty_c = all_data_placement(2, 2).pilot_array_indices()
        assert empty_r.shape == empty_c.shape == (0,) and empty_r.dtype.kind == "i"

    def test_all_data(self):
        pl = all_data_placement(4, 4)
        assert pl.P == 0 and len(pl.data_indices) == 16


class TestMultiplex:
    @pytest.fixture()
    def setup(self):
        pl = accordion_placement(8, 6, 2)
        pilots = qpsk_pilot_sequence(pl.P, seed=5)
        rng = np.random.default_rng(6)
        data = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        return pl, pilots, data

    def test_pilot_indicator(self, setup):
        pl, _, _ = setup
        ones = PilotSequence(symbols=np.ones(pl.P, dtype=complex))
        frame = multiplex(np.zeros((8, 6)), ones, pl)
        assert frame.sum() == pytest.approx(pl.P)
        pr, pc = pl.pilot_array_indices()
        assert np.all(frame[pr, pc] == 1.0)

    def test_roundtrip(self, setup):
        pl, pilots, data = setup
        frame = multiplex(data, pilots, pl)
        assert np.abs(demultiplex(frame, pl) - data).max() == 0.0
        assert np.abs(extract_pilots(frame, pl) - pilots.symbols).max() == 0.0

    def test_energy_split(self, setup):
        pl, pilots, data = setup
        frame = multiplex(data, pilots, pl)
        total = np.sum(np.abs(frame) ** 2)
        assert total == pytest.approx(np.sum(np.abs(data) ** 2)
                                      + np.sum(np.abs(pilots.symbols) ** 2), rel=1e-12)

    def test_extraction_order_matches_kappa_p(self, setup):
        pl, _, _ = setup
        ramp = PilotSequence(symbols=np.arange(1, pl.P + 1, dtype=complex))
        frame = multiplex(np.zeros((8, 6)), ramp, pl)
        assert np.array_equal(extract_pilots(frame, pl), ramp.symbols)

    def test_length_checks(self, setup):
        pl, pilots, data = setup
        with pytest.raises(ValueError):
            multiplex(data[:, :-1], pilots, pl)
        with pytest.raises(ValueError):
            multiplex(data, PilotSequence(symbols=np.ones(3)), pl)


class TestPilotSequence:
    def test_unit_magnitude_and_deterministic(self):
        a = qpsk_pilot_sequence(64, seed=1)
        b = qpsk_pilot_sequence(64, seed=1)
        assert np.array_equal(a.symbols, b.symbols)
        assert np.abs(np.abs(a.symbols) - 1.0).max() < 1e-12
