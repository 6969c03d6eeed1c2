"""Tests for the Gabor signaling module."""

import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlf.gabor import (
    SHIFT_BLOCK,
    FrameError,
    GaborGrid,
    GridError,
    Pulse,
    analyze,
    centered_times,
    cross_ambiguity,
    gaussian_prototype,
    make_grid,
    synthesize,
    tight_orthogonalize,
)

from oracles import fractional_shift


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
    def test_steps_are_built_from_the_integer_shifts(self, M, N, tf, bandwidth):
        a = round(M * tf)
        b = min(round(N * tf), a * N // M)
        if a < 1 or b <= N:
            with pytest.raises(GridError):
                make_grid(M, N, tf, bandwidth)
            return
        grid = make_grid(M, N, tf, bandwidth)
        assert (grid.time_shift, grid.freq_shift, grid.fs) == (a, b, bandwidth)
        assert grid.T == a / bandwidth
        assert grid.F == b * bandwidth / (a * N)
        assert grid.L == a * N
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

    def test_rejects_ill_conditioned(self):
        grid = make_grid(8, 8)
        proto = gaussian_prototype(grid, spread=0.35)
        tight_orthogonalize(proto, grid)
        with pytest.raises(FrameError, match="ill-conditioned"):
            tight_orthogonalize(proto, grid, cond_limit=1.0)

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

    def test_cond_limit_is_the_dense_condition_number(self):
        # the q x q blocks have the eigenvalues of the dense blocks, so the
        # ill-conditioning check trips exactly at the dense condition number
        grid = make_grid(8, 8)
        proto = gaussian_prototype(grid, spread=0.35)
        w = np.concatenate([np.linalg.eigvalsh(B) for _, B in per_residue_blocks(proto, grid)])
        cond = w.max() / w.min()
        tight_orthogonalize(proto, grid, cond_limit=cond * (1 + 1e-9))
        with pytest.raises(FrameError, match="ill-conditioned"):
            tight_orthogonalize(proto, grid, cond_limit=cond * (1 - 1e-9))

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
    @pytest.mark.parametrize("M, N", [(8, 8), (16, 17), (16, 18), (12, 20)])
    def test_matches_dense_atom_reference(self, M, N):
        # (8, 8) and (12, 20) tile the band (M*b = L, fold length K = M);
        # (16, 17) and (16, 18) leave a gap (M*b < L) with K = L and K = L/2
        grid = make_grid(M, N, 1.25)
        assert (grid.M * grid.freq_shift == grid.L) == (N * 1.25).is_integer()
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


@lru_cache(maxsize=None)
def property_grid(M, N):
    """Grid, Gaussian prototype and (on tiling grids) tight pulse for the property tests."""
    grid = make_grid(M, N, 1.25)
    proto = gaussian_prototype(grid, 0.8)
    tight = (tight_orthogonalize(proto, grid) if grid.M * grid.freq_shift == grid.L
             else None)
    return grid, proto, tight


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# (4, 4), (8, 8) and (12, 20) tile the band (K = M, with M = N and M != N);
# (16, 18) folds mod K = L/2 and (16, 17) mod K = L
PROPERTY_GRIDS = [(4, 4), (8, 8), (12, 20), (16, 18), (16, 17)]
TILING_GRIDS = [(4, 4), (8, 8), (12, 20)]
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
    @given(shape=st.sampled_from(TILING_GRIDS), seed=seeds)
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

    def test_one_inverse_fft_per_distinct_delay(self, monkeypatch):
        grid, g = tight_pulse(8, 8)
        rows = []
        ifft = np.fft.ifft

        def counting_ifft(a, *args, **kw):
            rows.append(np.shape(a)[0] if np.ndim(a) > 1 else 1)
            return ifft(a, *args, **kw)

        monkeypatch.setattr(np.fft, "ifft", counting_ifft)
        taus = np.linspace(-2 * grid.T, 2 * grid.T, 33)
        nus = np.linspace(-2 * grid.F, 2 * grid.F, 33)
        cross_ambiguity(g, g, taus[:, None], nus[None, :], grid)
        assert sum(rows) == 33


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
