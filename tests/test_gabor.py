"""Tests for the Gabor signaling module."""

import numpy as np
import pytest

from ddlf.gabor import (
    FrameError,
    GaborGrid,
    GridError,
    Pulse,
    analyze,
    centered_times,
    cross_ambiguity,
    fractional_shift,
    gaussian_prototype,
    make_grid,
    synthesize,
    tight_orthogonalize,
)


def tight_pulse(M, N, tf=1.25, spread=1.0):
    grid = make_grid(M, N, tf)
    return grid, tight_orthogonalize(gaussian_prototype(grid, spread), grid)


def dense_atoms(g, grid):
    """L x (M*N) matrix of the Gabor atoms g(t - nT) e^{2j pi m F t}, column m*N + n."""
    a, b, L = grid.time_shift, grid.freq_shift, grid.L
    k = np.arange(L)
    atoms = np.empty((L, grid.M * grid.N), dtype=complex)
    for m in range(grid.M):
        for n in range(grid.N):
            atoms[:, m * grid.N + n] = (np.roll(g.samples, n * a)
                                        * np.exp(2j * np.pi * m * b * k / L))
    return atoms


class TestGrid:
    def test_paper_scale_parameters(self):
        grid = make_grid(64, 64, 1.25, bandwidth=5e6)
        assert grid.L == 5120
        assert grid.time_shift == 80
        assert grid.freq_shift == 80
        assert grid.T == pytest.approx(16e-6)
        assert grid.F == pytest.approx(78125.0)
        assert grid.T * grid.F == pytest.approx(1.25)

    def test_rejects_critical_sampling(self):
        with pytest.raises(GridError):
            make_grid(8, 8, 1.0)

    def test_rejects_inconsistent_shifts(self):
        with pytest.raises(GridError):
            GaborGrid(M=8, N=8, T=1.5e-6, F=625000.0, fs=5e6, L=80)

    def test_partial_band_allowed(self):
        # N*tf not an integer: b is reduced so M*b <= L
        grid = make_grid(16, 17, 1.25)
        assert grid.time_shift == 20
        assert grid.M * grid.freq_shift <= grid.L
        assert grid.T * grid.F > 1.0


class TestGaussianPrototype:
    def test_even_symmetry(self):
        grid = make_grid(4, 8, tf_product=2.0)  # L = 64
        assert grid.L == 64
        g = gaussian_prototype(grid, spread=1.0).samples
        for k in range(1, grid.L):
            assert g[k] == pytest.approx(g[grid.L - k], abs=1e-15)

    def test_unit_norm(self):
        for M, N in [(4, 8), (8, 8), (16, 16)]:
            grid = make_grid(M, N, 1.25 if M != 4 else 2.0)
            g = gaussian_prototype(grid).samples
            assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)

    def test_centered_peak(self):
        grid = make_grid(4, 8, tf_product=2.0)
        g = gaussian_prototype(grid).samples
        assert np.argmax(np.abs(g)) == 0

    def test_rejects_bad_spread(self):
        grid = make_grid(8, 8)
        with pytest.raises(ValueError):
            gaussian_prototype(grid, spread=0.0)


class TestTightOrthogonalize:
    def test_biorthogonality_residual(self):
        grid, g = tight_pulse(8, 8)
        for m in range(grid.M):
            for n in range(grid.N):
                val = cross_ambiguity(g, g, n * grid.T, m * grid.F, grid)
                want = 1.0 if (m, n) == (0, 0) else 0.0
                assert abs(val - want) < 1e-9

    def test_full_gram_identity(self):
        # oracle: assemble every atom and check the pairwise Gram directly
        grid, g = tight_pulse(8, 8)
        atoms = dense_atoms(g, grid)
        gram = atoms.conj().T @ atoms
        assert np.abs(gram - np.eye(grid.M * grid.N)).max() < 1e-9

    def test_idempotent_on_tight_pulse(self):
        grid, g = tight_pulse(8, 8)
        g2 = tight_orthogonalize(g, grid)
        assert np.abs(g2.samples - g.samples).max() < 1e-9

    def test_unit_norm(self):
        _, g = tight_pulse(16, 16)
        assert np.linalg.norm(g.samples) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_partial_band_grid(self):
        grid = make_grid(16, 17, 1.25)
        with pytest.raises(FrameError):
            tight_orthogonalize(gaussian_prototype(grid), grid)

    def test_rejects_degenerate_prototype(self):
        # a near-delta prototype cannot span the lattice
        grid = make_grid(8, 8)
        with pytest.raises(FrameError):
            tight_orthogonalize(gaussian_prototype(grid, spread=0.02), grid)


class TestFilterbank:
    @pytest.mark.parametrize("M, N", [(8, 8), (16, 17)])
    def test_matches_dense_atom_reference(self, M, N):
        # (8, 8) tiles the band (M*b = L); (16, 17) leaves a gap (M*b < L)
        grid = make_grid(M, N, 1.25)
        assert (grid.M * grid.freq_shift == grid.L) == (M == N)
        g = gaussian_prototype(grid)
        atoms = dense_atoms(g, grid)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
        f = rng.standard_normal(grid.L) + 1j * rng.standard_normal(grid.L)
        assert np.abs(synthesize(x, g, grid) - atoms @ x.reshape(-1)).max() < 1e-12
        y_ref = (atoms.conj().T @ f).reshape(M, N)
        assert np.abs(analyze(f, g, grid) - y_ref).max() < 1e-12

    def test_zero_frame(self):
        grid, g = tight_pulse(8, 8)
        assert not np.any(synthesize(np.zeros((8, 8)), g, grid))

    def test_single_atom_is_pulse(self):
        grid, g = tight_pulse(8, 8)
        x = np.zeros((8, 8), dtype=complex)
        x[0, 0] = 1.0
        assert np.abs(synthesize(x, g, grid) - g.samples).max() < 1e-14

    def test_energy_preservation(self):
        grid, g = tight_pulse(16, 16)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        f = synthesize(x, g, grid)
        ratio = np.sum(np.abs(f) ** 2) / np.sum(np.abs(x) ** 2)
        assert abs(ratio - 1.0) < 1e-9

    def test_perfect_reconstruction(self):
        grid, g = tight_pulse(16, 16)
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            y = analyze(synthesize(x, g, grid), g, grid)
            assert np.abs(y - x).max() < 1e-9

    def test_zero_signal_zero_frame(self):
        grid, g = tight_pulse(8, 8)
        assert not np.any(analyze(np.zeros(grid.L, dtype=complex), g, grid))

    def test_pure_tone_concentrates_in_one_row(self):
        grid, g = tight_pulse(8, 8)
        m0 = 3
        tone = np.exp(2j * np.pi * m0 * grid.freq_shift * np.arange(grid.L) / grid.L)
        y = analyze(tone, g, grid)
        row_energy = np.sum(np.abs(y) ** 2, axis=1)
        assert row_energy[m0] > 0.9 * row_energy.sum()

    def test_shape_mismatch(self):
        grid, g = tight_pulse(8, 8)
        with pytest.raises(ValueError):
            synthesize(np.zeros((4, 8)), g, grid)
        with pytest.raises(ValueError):
            analyze(np.zeros(grid.L + 1, dtype=complex), g, grid)


class TestCrossAmbiguity:
    def test_self_at_origin(self):
        grid, g = tight_pulse(8, 8)
        assert cross_ambiguity(g, g, 0.0, 0.0, grid) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_one(self):
        grid, g = tight_pulse(8, 8)
        rng = np.random.default_rng(5)
        for _ in range(50):
            tau = rng.uniform(-grid.duration / 2, grid.duration / 2)
            nu = rng.uniform(-2 * grid.F, 2 * grid.F)
            assert abs(cross_ambiguity(g, g, tau, nu, grid)) <= 1.0 + 1e-12

    def test_naive_double_loop_oracle(self):
        # integer-sample shifts: compare against an explicit double loop
        grid, g = tight_pulse(8, 8)
        L, fs = grid.L, grid.fs
        tc = centered_times(grid)
        rng = np.random.default_rng(6)
        for _ in range(5):
            shift = int(rng.integers(-L // 4, L // 4))
            nu = float(rng.uniform(-grid.F, grid.F))
            naive = 0.0 + 0j
            for k in range(L):
                naive += (np.conj(g.samples[k]) * g.samples[(k - shift) % L]
                          * np.exp(2j * np.pi * nu * tc[k]))
            val = cross_ambiguity(g, g, shift / fs, nu, grid)
            assert abs(val - naive) < 1e-10

    def test_origin_equals_pulse_energy(self):
        grid, g = tight_pulse(8, 8)
        naive = sum(np.conj(g.samples[k]) * g.samples[k] for k in range(grid.L))
        assert cross_ambiguity(g, g, 0.0, 0.0, grid) == pytest.approx(naive, abs=1e-12)

    def test_rejects_out_of_range_delay(self):
        grid, g = tight_pulse(8, 8)
        with pytest.raises(ValueError):
            cross_ambiguity(g, g, grid.duration * 1.5, 0.0, grid)


class TestFractionalShift:
    def test_integer_shift_matches_roll(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert np.abs(fractional_shift(x, 5.0) - np.roll(x, 5)).max() < 1e-12

    def test_energy_preserved(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = fractional_shift(x, 2.345)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), rel=1e-12)

    def test_half_sample_roundtrip(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = fractional_shift(fractional_shift(x, 0.5), -0.5)
        assert np.abs(y - x).max() < 1e-12


class TestPulseType:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Pulse(samples=np.ones(8, dtype=complex))
