"""Tests for the Gabor signaling module."""

import dataclasses
import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddlf import gabor, harness
from ddlf.gabor import (
    AMBIGUITY_MAX_NODES,
    AMBIGUITY_TOL,
    SHIFT_BLOCK,
    FrameError,
    GaborGrid,
    GridError,
    Pulse,
    ambiguity_table,
    analyze,
    centered_times,
    cross_ambiguity,
    gaussian_prototype,
    make_grid,
    synthesize,
    tight_orthogonalize,
)

from oracles import fractional_shift, per_path_apply


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


def per_residue_blocks(prototype, grid):
    """Reference: the dense N x N frame-operator block of each of the a residues,
    with the sample indices it acts on."""
    a, b, L, N = grid.time_shift, grid.freq_shift, grid.L, grid.N
    g0 = prototype.samples
    for r in range(a):
        idx = (r + a * np.arange(N)) % L
        V = g0[(idx[None, :] - (np.arange(b) * grid.M)[:, None]) % L]
        yield idx, a * (V.T @ V.conj())


def per_residue_tight(prototype, grid):
    """Reference: one N x N frame-operator eigenproblem for each of the a residues."""
    g0 = prototype.samples
    out = np.empty(grid.L, dtype=complex)
    for idx, B in per_residue_blocks(prototype, grid):
        w, U = np.linalg.eigh(B)
        out[idx] = ((U * w**-0.5) @ U.conj().T) @ g0[idx]
    return out / np.linalg.norm(out)


def scalar_ambiguity(gamma, g, tau, nu, grid):
    """Reference: A(tau, nu) from one fractional shift and a per-sample exp ramp."""
    shifted = fractional_shift(gamma.samples, tau * grid.fs)
    ramp = np.exp(2j * np.pi * nu * centered_times(grid))
    return complex(np.vdot(g.samples, shifted * ramp))


class TestGrid:
    def test_paper_scale_parameters(self):
        grid = make_grid(64, 64, 1.25, bandwidth=5e6)
        assert grid.L == 5120
        assert grid.time_shift == 80
        assert grid.freq_shift == 80
        assert grid.T == pytest.approx(16e-6)
        assert grid.F == pytest.approx(78125.0)
        assert grid.T * grid.F == pytest.approx(1.25)

    @given(M=st.integers(1, 64), N=st.integers(1, 64), tf=st.floats(0.5, 4.0),
           bandwidth=st.floats(1e3, 1e9))
    @settings(max_examples=200)
    @example(M=16, N=20, tf=1.25, bandwidth=5e6)  # tiles: M*b = 16*25 = a*N = 20*20
    @example(M=16, N=17, tf=1.25, bandwidth=5e6)  # M*b = 16*21 < a*N = 20*17
    def test_steps_are_built_from_the_integer_shifts(self, M, N, tf, bandwidth):
        # a grid exists if and only if a >= 1, b > N and the channels tile the band
        a = round(M * tf)
        b = round(N * tf)
        if a < 1 or b <= N or M * b != a * N:
            with pytest.raises(GridError):
                make_grid(M, N, tf, bandwidth)
            return
        grid = make_grid(M, N, tf, bandwidth)
        assert (grid.time_shift, grid.freq_shift, grid.fs) == (a, b, bandwidth)
        assert grid.T == a / bandwidth
        assert grid.F == b * bandwidth / (a * N)
        assert grid.L == a * N == M * b
        assert grid.duration == N * (a / bandwidth)

    def test_fields_are_the_integer_lattice(self):
        assert [f.name for f in dataclasses.fields(GaborGrid)] == [
            "M", "N", "time_shift", "freq_shift", "fs"]

    @given(value=st.floats(-1e9, 0.0))
    @settings(max_examples=30)
    def test_rejects_non_positive_tf_product_and_bandwidth(self, value):
        with pytest.raises(GridError):
            make_grid(16, 16, tf_product=value)
        with pytest.raises(GridError):
            make_grid(16, 16, bandwidth=value)

    def test_rejects_critical_sampling(self):
        with pytest.raises(GridError):
            make_grid(8, 8, 1.0)

    @pytest.mark.parametrize("M, N", [(0, 16), (16, 0)])
    def test_rejects_an_empty_lattice(self, M, N):
        with pytest.raises(GridError):
            make_grid(M, N)

    @pytest.mark.parametrize("tf", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_tf_product(self, tf):
        with pytest.raises(GridError, match="^tf_product = .* must be finite"):
            make_grid(16, 16, tf_product=tf)

    def test_rejects_inconsistent_shifts(self):
        with pytest.raises(GridError):
            GaborGrid(M=8, N=8, time_shift=7.5, freq_shift=10, fs=5e6)

    def test_rejects_channels_past_the_band(self):
        # L = 8*10 = 80 samples, M*b = 8*11 = 88 bins
        with pytest.raises(GridError, match=r"must tile the sampled band exactly \(M\*b = L\), "
                                            r"got M\*b = 88, L = 80"):
            GaborGrid(M=8, N=8, time_shift=10, freq_shift=11, fs=5e6)

    def test_partial_band_rejected(self):
        # N*tf not an integer: a = 20 and b = 21, so M*b = 336 leaves a gap below L = 340
        with pytest.raises(GridError, match=r"got M\*b = 336, L = 340"):
            make_grid(16, 17, 1.25)


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

    @pytest.mark.parametrize("M, N, tf, d", [
        (4, 4, 1.25, 1),    # a = 5: gcd(a, M) = 1, every residue its own rotation
        (12, 20, 1.25, 3),  # a = 15: 1 < d < M
        (8, 8, 2.0, 8),     # a = 16: d = M, s = 0
        (16, 16, 1.25, 4),  # a = 20
    ])
    @pytest.mark.parametrize("spread", [0.6, 1.0, 1.7])
    def test_matches_per_residue_reference(self, M, N, tf, d, spread):
        grid = make_grid(M, N, tf)
        assert math.gcd(grid.time_shift, grid.M) == d
        proto = gaussian_prototype(grid, spread)
        want = per_residue_tight(proto, grid)
        assert np.abs(tight_orthogonalize(proto, grid).samples - want).max() <= 1e-12

    def test_matches_per_residue_reference_unsymmetric(self):
        # a complex, asymmetric prototype exercises the index rotation fully
        grid = make_grid(12, 20)
        rng = np.random.default_rng(21)
        g = gaussian_prototype(grid).samples * (1 + 0.3 * rng.standard_normal(grid.L)
                                                + 0.3j * rng.standard_normal(grid.L))
        proto = Pulse(samples=g / np.linalg.norm(g))
        want = per_residue_tight(proto, grid)
        assert np.abs(tight_orthogonalize(proto, grid).samples - want).max() <= 1e-12

    def test_rejects_ill_conditioned(self, monkeypatch):
        grid = make_grid(8, 8)
        proto = gaussian_prototype(grid, spread=0.35)
        tight_orthogonalize(proto, grid)
        monkeypatch.setattr(gabor, "FRAME_COND_LIMIT", 1.0)
        with pytest.raises(FrameError, match="ill-conditioned"):
            tight_orthogonalize(proto, grid)

    def test_rejects_degenerate_prototype(self):
        # a near-delta prototype cannot span the lattice
        grid = make_grid(8, 8)
        with pytest.raises(FrameError):
            tight_orthogonalize(gaussian_prototype(grid, spread=0.02), grid)

    @pytest.mark.parametrize("M, N, tf, q, K", [
        (64, 64, 1.25, 4, 16),  # paper scale: d = 16
        (32, 32, 1.25, 4, 8),
        (16, 16, 1.5, 2, 8),
        (8, 8, 2.0, 1, 8),      # d = M: every residue block is circulant
        (4, 4, 1.25, 4, 1),     # d = 1, K = 1: the q x q block is the whole block
        (12, 20, 1.25, 4, 5),   # M != N
    ])
    def test_block_circulant_matches_dense_reference(self, M, N, tf, q, K):
        # q = M/gcd(a, M) is the circulant block size and K = N/q the block count
        grid = make_grid(M, N, tf)
        assert (grid.M // math.gcd(grid.time_shift, grid.M), grid.N // q) == (q, K)
        proto = gaussian_prototype(grid)
        want = per_residue_tight(proto, grid)
        assert np.abs(tight_orthogonalize(proto, grid).samples - want).max() <= 1e-12

    def test_cond_limit_is_the_dense_condition_number(self, monkeypatch):
        # the q x q blocks have the eigenvalues of the dense blocks, so the
        # ill-conditioning check trips exactly at the dense condition number
        grid = make_grid(8, 8)
        proto = gaussian_prototype(grid, spread=0.35)
        w = np.concatenate([np.linalg.eigvalsh(B) for _, B in per_residue_blocks(proto, grid)])
        cond = w.max() / w.min()
        monkeypatch.setattr(gabor, "FRAME_COND_LIMIT", cond * (1 + 1e-9))
        tight_orthogonalize(proto, grid)
        monkeypatch.setattr(gabor, "FRAME_COND_LIMIT", cond * (1 - 1e-9))
        with pytest.raises(FrameError, match="ill-conditioned"):
            tight_orthogonalize(proto, grid)

    @pytest.mark.parametrize("M, N, tf", [(64, 64, 1.25), (12, 20, 1.25), (8, 8, 2.0)])
    def test_eigenproblems_are_q_by_q(self, monkeypatch, M, N, tf):
        grid = make_grid(M, N, tf)
        q = grid.M // math.gcd(grid.time_shift, grid.M)
        shapes = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kw):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kw)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        tight_orthogonalize(gaussian_prototype(grid), grid)
        assert shapes and all(shape[-2:] == (q, q) for shape in shapes)

    @settings(max_examples=40)
    @given(M=st.integers(1, 8), N=st.integers(1, 8), extra=st.integers(1, 3),
           spread=st.floats(0.7, 1.4))
    def test_tight_pulse_gram_is_identity(self, M, N, extra, spread):
        # k > gcd(M, N) makes b = k*N/g > N, and M*b = a*N = L tiles the band
        g = math.gcd(M, N)
        k = g + extra
        grid = GaborGrid(M=M, N=N, time_shift=k * M // g, freq_shift=k * N // g, fs=5e6)
        atoms = dense_atoms(tight_orthogonalize(gaussian_prototype(grid, spread), grid), grid)
        assert np.abs(atoms.conj().T @ atoms - np.eye(M * N)).max() <= 1e-9


class TestFilterbank:
    @pytest.mark.parametrize("M, N", [(8, 8), (16, 20), (20, 16), (12, 20)])
    def test_matches_dense_atom_reference(self, M, N):
        # square frames and both M < N and M > N; every grid tiles its band
        grid = make_grid(M, N, 1.25)
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
        _, wide = tight_pulse(16, 16)  # L = 320 against 80
        with pytest.raises(ValueError, match="pulse length does not match grid"):
            synthesize(np.zeros((8, 8)), wide, grid)
        with pytest.raises(ValueError, match="pulse length does not match grid"):
            analyze(np.zeros(grid.L, dtype=complex), wide, grid)


@lru_cache(maxsize=None)
def property_grid(M, N):
    """Grid, Gaussian prototype and tight pulse for the property tests."""
    grid = make_grid(M, N, 1.25)
    proto = gaussian_prototype(grid, 0.8)
    return grid, proto, tight_orthogonalize(proto, grid)


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# square frames and both M < N and M > N
PROPERTY_GRIDS = [(4, 4), (8, 8), (12, 20), (16, 20), (20, 16)]
seeds = st.integers(0, 2**32 - 1)


class TestFilterbankProperties:
    @settings(max_examples=25)
    @given(shape=st.sampled_from(PROPERTY_GRIDS), seed=seeds, generic=st.booleans())
    def test_adjoint(self, shape, seed, generic):
        # <synthesize(x), f> = <x, analyze(f)>, also for a pulse with no symmetry
        grid, proto, _ = property_grid(*shape)
        rng = np.random.default_rng(seed)
        g = proto
        if generic:
            p = complex_normal(rng, grid.L)
            g = Pulse(samples=p / np.linalg.norm(p))
        x = complex_normal(rng, (grid.M, grid.N))
        f = complex_normal(rng, grid.L)
        lhs = np.vdot(f, synthesize(x, g, grid))
        rhs = np.vdot(analyze(f, g, grid), x)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(f)

    @settings(max_examples=25)
    @given(shape=st.sampled_from(PROPERTY_GRIDS), seed=seeds,
           c=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False))
    def test_linear(self, shape, seed, c):
        grid, g, _ = property_grid(*shape)
        rng = np.random.default_rng(seed)
        x1, x2 = complex_normal(rng, (2, grid.M, grid.N))
        f1, f2 = complex_normal(rng, (2, grid.L))
        tol = 1e-12 * (1 + abs(c))
        syn = synthesize(x1 + c * x2, g, grid)
        assert np.abs(syn - synthesize(x1, g, grid) - c * synthesize(x2, g, grid)).max() \
            <= tol * np.abs(syn).max()
        ana = analyze(f1 + c * f2, g, grid)
        assert np.abs(ana - analyze(f1, g, grid) - c * analyze(f2, g, grid)).max() \
            <= tol * np.abs(ana).max()

    @settings(max_examples=15)
    @given(shape=st.sampled_from(PROPERTY_GRIDS), seed=seeds)
    def test_tight_pulse_reconstructs(self, shape, seed):
        grid, _, g = property_grid(*shape)
        x = complex_normal(np.random.default_rng(seed), (grid.M, grid.N))
        assert np.abs(analyze(synthesize(x, g, grid), g, grid) - x).max() <= 1e-9


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

    def test_rejects_pulses_of_another_grid(self):
        grid, g = tight_pulse(8, 8)  # L = 80
        _, wide = tight_pulse(16, 16)  # L = 320
        for pair in ((g, g), (g, wide), (wide, g)):
            with pytest.raises(ValueError, match="pulses must share the sample grid"):
                cross_ambiguity(*pair, 0.0, 0.0, make_grid(16, 16))

    def test_array_matches_scalar_reference(self):
        grid, g = tight_pulse(8, 8)
        gamma = Pulse(samples=np.roll(g.samples, 3))
        rng = np.random.default_rng(11)
        shape = (3, SHIFT_BLOCK + 1)
        tau = rng.uniform(-0.9, 0.9, shape) * grid.duration
        nu = rng.uniform(-3, 3, shape) * grid.F
        tau[0, 0], nu[0, 0] = 0.0, 0.0
        tau[1, :4] = np.arange(4) * grid.T  # on-grid delays
        got = cross_ambiguity(gamma, g, tau, nu, grid)
        assert got.shape == shape
        want = np.vectorize(lambda t, n: scalar_ambiguity(gamma, g, t, n, grid))(tau, nu)
        assert np.abs(got - want).max() <= 1e-12
        for i, j in np.ndindex(shape):
            val = cross_ambiguity(gamma, g, tau[i, j], nu[i, j], grid)
            assert type(val) is complex
            assert abs(val - got[i, j]) <= 1e-14

    def test_array_broadcasts(self):
        grid, g = tight_pulse(8, 8)
        taus = np.linspace(-grid.T, grid.T, 5)
        nus = np.linspace(-grid.F, grid.F, 4)
        raster = cross_ambiguity(g, g, taus[:, None], nus[None, :], grid)
        assert raster.shape == (5, 4)
        for i, tau in enumerate(taus):
            for j, nu in enumerate(nus):
                assert abs(raster[i, j] - scalar_ambiguity(g, g, tau, nu, grid)) <= 1e-12
        assert cross_ambiguity(g, g, np.zeros(0), 0.0, grid).shape == (0,)

    def test_array_rejects_any_out_of_range_delay(self):
        grid, g = tight_pulse(8, 8)
        tau = np.zeros(2 * SHIFT_BLOCK + 3)
        for k in (0, SHIFT_BLOCK + 1, len(tau) - 1):
            bad = tau.copy()
            bad[k] = -grid.duration
            with pytest.raises(ValueError, match="exceeds the frame duration"):
                cross_ambiguity(g, g, bad, 0.0, grid)

    def test_repeated_delays_match_scalar_calls(self):
        grid, g = tight_pulse(8, 8)
        gamma = Pulse(samples=np.roll(g.samples, 5))
        rng = np.random.default_rng(12)
        # 11 distinct delays (two delay blocks), each shared by 6 to 14 pairs
        delays = rng.uniform(-0.9, 0.9, 11) * grid.duration
        tau = rng.choice(delays, size=(6, 2 * SHIFT_BLOCK + 1))
        nu = rng.uniform(-3, 3, tau.shape) * grid.F
        got = cross_ambiguity(gamma, g, tau, nu, grid)
        for i, j in np.ndindex(tau.shape):
            assert abs(got[i, j] - cross_ambiguity(gamma, g, tau[i, j], nu[i, j], grid)) <= 1e-12
        assert np.abs(got - np.vectorize(
            lambda t, n: scalar_ambiguity(gamma, g, t, n, grid))(tau, nu)).max() <= 1e-12
        bad = tau.copy()
        bad[-1, -1] = grid.duration
        with pytest.raises(ValueError, match="exceeds the frame duration"):
            cross_ambiguity(gamma, g, bad, nu, grid)

    @pytest.mark.parametrize("pairs", [(), (1,), (SHIFT_BLOCK + 1,), (33, 33)])
    def test_one_forward_fft_per_call(self, monkeypatch, pairs):
        grid, g = tight_pulse(8, 8)
        calls = []
        fft = np.fft.fft

        def counting_fft(a, *args, **kw):
            calls.append(np.shape(a))
            return fft(a, *args, **kw)

        monkeypatch.setattr(np.fft, "fft", counting_fft)
        rng = np.random.default_rng(13)
        tau = rng.uniform(-0.9, 0.9, pairs) * grid.duration
        nu = rng.uniform(-3, 3, pairs) * grid.F
        cross_ambiguity(g, g, tau, nu, grid)
        assert calls == [(grid.L,)]


# the workloads' grids: desk (16x16), mid (32x32 at 500 km/h), paper (64x64, 5 MHz)
TABLE_GRIDS = {
    "desk": dict(),
    "mid": dict(m_data=32, n_data=30, pilots_per_row=2, velocity=500.0),
    "paper": dict(m_data=64, n_data=62, pilots_per_row=2, bandwidth=5.0e6),
}


@lru_cache(maxsize=None)
def table_point(name):
    """The validated point of the named grid and its ambiguity table."""
    point = harness.validate_point(harness.ExperimentConfig(**TABLE_GRIDS[name]))
    return point, ambiguity_table(point.pulse, point.pulse, point.grid,
                                  point.channel.tau_max, point.channel.nu_max)


def assert_table_matches(table, pulse, tau, nu):
    want = cross_ambiguity(pulse, pulse, tau, nu, table.grid)
    assert np.all(np.abs(table(tau, nu) - want) <= 1e-12 * np.abs(want))


class TestAmbiguityTable:
    @settings(max_examples=40)
    @given(name=st.sampled_from(sorted(TABLE_GRIDS)),
           unit=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0)),
                         min_size=1, max_size=8))
    def test_matches_cross_ambiguity_in_the_box(self, name, unit):
        point, table = table_point(name)
        u, v = np.array(unit).T
        assert_table_matches(table, point.pulse, u * table.tau_max, v * table.nu_max)

    @pytest.mark.parametrize("name", sorted(TABLE_GRIDS))
    def test_trailing_coefficients_below_the_tolerance(self, name):
        _, table = table_point(name)
        assert np.abs(table.coef[-2:]).max() <= AMBIGUITY_TOL
        assert np.abs(table.coef[:, -2:]).max() <= AMBIGUITY_TOL

    @pytest.mark.parametrize("tau_bins, nu_bins", [(0.0, 0.7), (4.5, 0.0), (0.0, 0.0)])
    def test_degenerate_box(self, tau_bins, nu_bins):
        grid, g = tight_pulse(16, 16)
        tau_max, nu_max = tau_bins / (grid.M * grid.F), nu_bins / (grid.N * grid.T)
        table = ambiguity_table(g, g, grid, tau_max, nu_max)
        assert (table.coef.shape[0] == 1) == (tau_max == 0)
        assert (table.coef.shape[1] == 1) == (nu_max == 0)
        u, v = np.meshgrid([0.0, 0.3, 1.0], [-1.0, 0.2, 1.0])
        assert_table_matches(table, g, u.ravel() * tau_max, v.ravel() * nu_max)

    @pytest.mark.parametrize("name", sorted(TABLE_GRIDS))
    def test_box_edge_with_channel_slack(self, name):
        point, table = table_point(name)
        slack = 1 + 1e-9
        tau = table.tau_max * np.array([slack, slack, 0.0, slack])
        nu = table.nu_max * np.array([slack, -slack, slack, 0.0])
        assert_table_matches(table, point.pulse, tau, nu)

    def test_rejects_a_box_beyond_the_frame(self):
        grid, g = tight_pulse(8, 8)
        for tau_max, nu_max in ((grid.duration, 0.0), (-1e-9, 0.0), (0.0, -1.0)):
            with pytest.raises(ValueError):
                ambiguity_table(g, g, grid, tau_max, nu_max)

    @pytest.mark.parametrize("steps", [8, 14])
    def test_delay_spread_of_half_the_frame_or_more(self, steps):
        # the tail levels off at rounding level above AMBIGUITY_TOL here
        grid, g = tight_pulse(16, 16)
        tau_max, nu_max = steps * grid.T, 100.0
        table = ambiguity_table(g, g, grid, tau_max, nu_max)
        assert max(table.coef.shape) <= AMBIGUITY_MAX_NODES
        rng = np.random.default_rng(steps)
        tau, nu = rng.uniform(0, tau_max, 50), rng.uniform(-nu_max, nu_max, 50)
        assert np.abs(table(tau, nu) - cross_ambiguity(g, g, tau, nu, grid)).max() <= 1e-12

    def test_rejects_pulses_of_another_grid(self):
        grid, g = tight_pulse(8, 8)  # L = 80
        _, wide = tight_pulse(16, 16)  # L = 320
        for pair in ((g, wide), (wide, g), (wide, wide)):
            with pytest.raises(ValueError, match="pulses must share the sample grid"):
                ambiguity_table(*pair, grid, 0.0, 0.0)

    def test_rejects_a_box_past_the_node_cap(self):
        grid, g = tight_pulse(64, 64)  # 2.4 MHz is below fs/2 = 2.5 MHz
        with pytest.raises(ValueError, match=f"more than {AMBIGUITY_MAX_NODES} Chebyshev nodes"):
            ambiguity_table(g, g, grid, 1e-9, 2.4e6)

    @pytest.mark.parametrize("share", [0.5, 1.0])
    def test_rejects_a_doppler_box_that_aliases(self, monkeypatch, share):
        grid, g = tight_pulse(16, 16)
        monkeypatch.setattr(gabor, "_delays", None)  # refused before the first node
        with pytest.raises(ValueError, match="not below half the sampling rate, fs/2 .* alias"):
            ambiguity_table(g, g, grid, 1e-9, share * grid.fs)

    @pytest.mark.parametrize("name", sorted(TABLE_GRIDS))
    def test_one_phasor_call_per_delay_block_and_doppler_set(self, monkeypatch, name):
        # started at its final node counts, a build takes one round: one delay
        # ramp per block of delay nodes and one set of Doppler ramps, no more
        point, table = table_point(name)
        n_tau, n_nu = table.coef.shape
        monkeypatch.setattr(gabor, "AMBIGUITY_NODES", (n_tau, n_nu))
        calls, phasors = [], gabor._phasors

        def counting_phasors(rate, *args, **kw):
            calls.append(len(rate))
            return phasors(rate, *args, **kw)

        monkeypatch.setattr(gabor, "_phasors", counting_phasors)
        again = ambiguity_table(point.pulse, point.pulse, point.grid, table.tau_max, table.nu_max)
        assert np.array_equal(again.coef, table.coef)
        blocks = [min(SHIFT_BLOCK, n_tau - i) for i in range(0, n_tau, SHIFT_BLOCK)]
        assert calls == blocks + [n_nu]


class TestShifted:
    """The shared delay kernel, with the callers' Doppler ramps, against per-pair references."""

    @pytest.mark.parametrize("R", [0, 1, SHIFT_BLOCK, SHIFT_BLOCK + 1, 58])
    @pytest.mark.parametrize("signed", [False, True])
    def test_matches_per_pair_reference(self, R, signed):
        grid = make_grid(16, 16)
        rng = np.random.default_rng(80 + R)
        f = rng.standard_normal(grid.L) + 1j * rng.standard_normal(grid.L)
        tau = rng.uniform(-0.9 if signed else 0.0, 0.9, R) * grid.duration
        nu = rng.uniform(-3, 3, R) * grid.F
        covered = []
        for block, delayed in gabor._delays(f, tau, grid.fs, signed):
            covered += range(R)[block]
            assert len(delayed) == len(range(R)[block]) <= SHIFT_BLOCK
            ramps = gabor._phasors(nu[block] / grid.fs, grid.L, signed)
            for t, n, got in zip(tau[block], nu[block], delayed * ramps):
                if signed:  # two-sided delay ramp, Doppler over centered times
                    want = (fractional_shift(f, t * grid.fs)
                            * np.exp(2j * np.pi * n * centered_times(grid)))
                else:  # one-sided delay ramp, Doppler over absolute frame time
                    want = per_path_apply(f, SimpleNamespace(tau=[t], nu=[n], eta=[1.0]), grid)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert covered == list(range(R))


class TestFractionalShift:
    """The test-local delay oracle that scalar_ambiguity and per_path_cmd use."""

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
