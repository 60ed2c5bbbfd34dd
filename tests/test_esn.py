"""Reservoir tests.

The reference for the equalizer is the set of naive re-implementations
written here: ``oracle_windows`` (nested-loop window gather),
``oracle_fold`` (plain python loop of the update equation) and
``oracle_masked_ridge`` (dense normal equations with explicit column
deletion). The streaming path and its parts (``_gather_inputs``,
``_fold``, ``_solve_masked_ridge``) are compared against them on small
instances.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicerc import esn
from slicerc.esn import (
    EsnConfig,
    EsnWeights,
    equalize,
    fit_readout,
    equalize_stream,
    fit_readout_batch,
    init_weights,
)
from slicerc.harness import ExperimentConfig, run_sweep
from slicerc.link import (
    LinkConfig,
    SlicedObservation,
    SymbolFrame,
    detect_frame,
    load_noise_batch,
)
from slicerc.rng import substream


def small_cfg(**kw) -> EsnConfig:
    # denser than the operating defaults: a 6-node reservoir at s_res
    # 0.05 would draw nilpotent patterns
    base = dict(
        k=1, n_res=6, n_out=1, sps=1, num_slices=1,
        s_in=0.5, s_res=0.5, s_out=0.5, washout=0, seed=0,
    )
    base.update(kw)
    return EsnConfig(**base)


def make_obs(data: np.ndarray, sps: int, guard: int = 0) -> SlicedObservation:
    """An observation whose samples are ``data``: zero noise at zero scale."""
    rows = np.asarray(data, dtype=float)
    return SlicedObservation(
        rows=rows,
        noise=np.zeros(rows.shape),
        noise_std=np.zeros(rows.shape[0]),
        sps=sps,
        guard_symbols=guard,
    )


def make_frame(levels: np.ndarray) -> SymbolFrame:
    return SymbolFrame(levels=np.asarray(levels, dtype=float))


def random_weights(cfg: EsnConfig, seed: int = 0) -> EsnWeights:
    return init_weights(replace(cfg, seed=seed))


def fold(inputs: np.ndarray, w: EsnWeights, leak: float, x=None) -> np.ndarray:
    """States after each input, through esn._fold from x (default zero)."""
    x = np.zeros(w.w_res.shape[0]) if x is None else np.array(x, dtype=float)
    states = np.empty((inputs.shape[0], w.w_res.shape[0]))
    esn._fold(inputs @ w.w_in.T, w.w_res, leak, x, states)
    return states


def full_width(mask: np.ndarray, n_in: int) -> np.ndarray:
    """A reservoir mask widened to [reservoir | window | bias], the last
    two always read, as init_weights lays out ``out_mask``."""
    return np.hstack([mask, np.ones((mask.shape[0], n_in + 1), dtype=bool)])


def solve_readout(states, inputs, targets, mask, lam):
    """esn's masked solve on the normal equations of given design rows;
    ``mask`` selects the reservoir columns."""
    design = np.hstack([states, inputs, np.ones((states.shape[0], 1))])
    gram, moment = design.T @ design, design.T @ targets
    return esn._solve_masked_ridge(gram, moment, full_width(mask, inputs.shape[1]), lam)


# ---------------------------------------------------------------- oracles

def oracle_fold(inputs, w, leak):
    """Literal per-step loop of the update equation."""
    x = np.zeros(w.w_res.shape[0])
    out = []
    for u in inputs:
        x = (1.0 - leak) * x + leak * np.tanh(w.w_in @ u + w.w_res @ x)
        out.append(x.copy())
    return np.array(out)


def oracle_masked_ridge(feats, targets, mask, lam):
    """Dense normal equations per row after deleting masked columns.

    feats excludes the bias; the bias column is appended here. ``mask``
    covers [feats | bias], and the bias, always selected, is left
    unpenalized, mirroring the documented training contract.
    """
    n_out = targets.shape[1]
    d = feats.shape[1]
    w = np.zeros((n_out, d + 1))
    design = np.hstack([feats, np.ones((feats.shape[0], 1))])
    for r in range(n_out):
        cols = np.flatnonzero(mask[r])
        assert cols[-1] == d
        x = design[:, cols]
        a = x.T @ x
        a[np.arange(cols.size - 1), np.arange(cols.size - 1)] += lam
        w[r, cols] = np.linalg.solve(a, x.T @ targets[:, r])
    return w


def oracle_windows(obs, cfg, first, n_steps):
    """Nested-loop window gather: slice-major, symbol, sample."""
    n_sym = obs.n_symbols
    offset = (cfg.m - cfg.n_out) // 2
    rows = []
    for t in range(n_steps):
        start = first + t * cfg.n_out - offset
        vec = []
        for s in range(cfg.num_slices):
            for j in range(cfg.m):
                sym = start + j
                for p in range(cfg.sps):
                    if 0 <= sym < n_sym:
                        vec.append(obs.data[s, sym * cfg.sps + p])
                    else:
                        vec.append(0.0)
        rows.append(vec)
    return np.array(rows)


# ------------------------------------------------------------ init_weights

def test_spectral_radius_hits_target():
    cfg = EsnConfig()
    w = init_weights(cfg)
    radius = np.max(np.abs(np.linalg.eigvals(w.w_res)))
    assert abs(radius / cfg.spectral_radius - 1.0) < 1e-6


def test_densities_within_binomial_bounds():
    cfg = EsnConfig(n_res=200, seed=3)
    w = init_weights(cfg)
    checks = [
        (w.w_in != 0, cfg.s_in),
        (w.w_res != 0, cfg.s_res),
        (w.out_mask[:, : cfg.n_res], cfg.s_out),
    ]
    for nonzero, p in checks:
        n = nonzero.size
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(nonzero.mean() - p) < 4 * sigma


def test_full_input_density_is_dense():
    w = init_weights(EsnConfig(s_in=1.0))
    assert np.all(w.w_in != 0)


def test_weight_values_bounded_by_input_scaling():
    cfg = EsnConfig(input_scaling=0.3, seed=9)
    w = init_weights(cfg)
    assert np.max(np.abs(w.w_in)) <= 0.3


def test_init_deterministic_per_seed():
    a = init_weights(EsnConfig(seed=5))
    b = init_weights(EsnConfig(seed=5))
    c = init_weights(EsnConfig(seed=6))
    assert np.array_equal(a.w_in, b.w_in)
    assert np.array_equal(a.w_res, b.w_res)
    assert np.array_equal(a.out_mask, b.out_mask)
    assert not np.array_equal(a.out_mask, c.out_mask)


def test_every_mask_row_has_a_tap():
    # s_out 0.02 on 30 nodes makes empty rows likely before the redraw
    for seed in range(12):
        cfg = EsnConfig(n_out=23, s_out=0.02, seed=seed)
        w = init_weights(cfg)
        assert w.out_mask[:, : cfg.n_res].any(axis=1).all()


def test_w_out_starts_zero_with_extended_width():
    cfg = EsnConfig()
    w = init_weights(cfg)
    assert w.w_out.shape == (cfg.n_out, cfg.n_res + cfg.n_in + 1)
    assert not w.w_out.any()
    assert w.out_mask.shape == w.w_out.shape and w.out_mask.dtype == bool
    assert w.out_mask[:, cfg.n_res :].all()


def test_config_validation():
    with pytest.raises(ValueError):
        EsnConfig(n_out=24)  # exceeds window of 2k+1
    with pytest.raises(ValueError):
        EsnConfig(leak=0.0)
    with pytest.raises(ValueError):
        EsnConfig(s_res=0.0)
    with pytest.raises(ValueError):
        EsnConfig(spectral_radius=-1.0)
    with pytest.raises(ValueError):
        EsnConfig(washout=-1)


def test_derived_sizes_match_stated_dimensioning():
    cfg = EsnConfig()
    assert cfg.m == 23
    assert cfg.n_in == 184  # 23 symbols * 2 samples * 4 slices


# ------------------------------------------------------------- windowing

def test_windows_match_loop_oracle():
    cfg = small_cfg(k=2, n_out=3, sps=2, num_slices=2)
    rng = substream(1, 0)
    n_sym = 40
    obs = make_obs(rng.normal(size=(2, n_sym * 2)), sps=2)
    frame = make_frame(rng.choice([-3.0, -1.0, 1.0, 3.0], n_sym))
    first, n_steps = esn._target_region([obs], frame, cfg, None, None)
    assert (first, n_steps) == (0, n_sym // cfg.n_out)
    inputs = esn._gather_inputs([obs], cfg, first, 0, n_steps)[0]
    expected = oracle_windows(obs, cfg, 0, n_steps)
    assert np.array_equal(inputs, expected)


def test_window_stride_arithmetic():
    cfg = EsnConfig(n_out=17, washout=0)
    n_sym = 1700 + 2 * cfg.k  # leave room so windows stay in frame
    rng = substream(2, 0)
    obs = make_obs(rng.normal(size=(4, n_sym * 2)), sps=2)
    frame = make_frame(rng.choice([-3.0, -1.0, 1.0, 3.0], n_sym))
    first, n_steps = esn._target_region([obs], frame, cfg, cfg.k, cfg.k + 1700)
    assert (first, n_steps) == (cfg.k, 100)
    # step t reads the window of the n_out symbols from first + t * n_out
    inputs = esn._gather_inputs([obs], cfg, first, 0, n_steps)[0]
    assert np.array_equal(inputs, oracle_windows(obs, cfg, first, n_steps))
    # the region's estimates target every symbol of it exactly once
    w = init_weights(cfg)
    est, start = equalize(obs, frame, w, cfg, cfg.k, cfg.k + 1700)
    assert start == cfg.k
    assert est.size == 1700


def test_first_window_zero_padded_on_the_left():
    cfg = small_cfg(k=3, n_out=1, sps=1)
    obs = make_obs(np.arange(1, 21, dtype=float)[None, :], sps=1)
    frame = make_frame(np.ones(20))
    assert esn._target_region([obs], frame, cfg, 0, 20) == (0, 20)
    inputs = esn._gather_inputs([obs], cfg, 0, 0, 20)[0]
    # first target at symbol 0: the k leading window positions fall off
    # the frame and must read zero
    assert np.array_equal(inputs[0, :3], np.zeros(3))
    assert np.array_equal(inputs[0, 3:], np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(inputs, oracle_windows(obs, cfg, 0, 20))


def assert_rejected(obs, frame, cfg, first=None, last=None, match=None):
    """fit_readout and equalize both refuse the inputs with ValueError."""
    w = init_weights(cfg)
    with pytest.raises(ValueError, match=match):
        fit_readout(obs, frame, w, cfg, first, last)
    with pytest.raises(ValueError, match=match):
        equalize(obs, frame, w, cfg, first, last)


def test_windows_reject_geometry_mismatch():
    cfg = small_cfg(sps=2)
    obs = make_obs(np.zeros((1, 41)), sps=2)
    frame = make_frame(np.ones(20))
    assert_rejected(obs, frame, cfg, match="misaligned")
    cfg4 = small_cfg(num_slices=4)
    obs1 = make_obs(np.zeros((1, 20)), sps=1)
    assert_rejected(obs1, frame, cfg4, match="geometry")
    # a frame shorter than one window
    assert_rejected(obs1, frame, small_cfg(k=12), match="full window")
    # at the operating geometry: 2 slices at 4 samples per symbol, the
    # same sample count per slice as the 4-slice, 2-sample config
    cfg = EsnConfig(n_out=17, washout=10)
    rng = substream(20, 0)
    n_sym = 4000
    frame = make_frame(rng.choice([-3.0, -1.0, 1.0, 3.0], n_sym))
    other = make_obs(rng.normal(size=(2, n_sym * 4)), sps=4, guard=50)
    assert_rejected(other, frame, cfg, match="geometry")
    # the observation of a frame 500 symbols shorter
    short = make_obs(rng.normal(size=(4, (n_sym - 500) * 2)), sps=2, guard=50)
    assert_rejected(short, frame, cfg, match="misaligned")
    assert_rejected(short, frame, cfg, 100, 3400, match="misaligned")


def test_windows_reject_region_outside_frame():
    cfg = small_cfg()
    obs = make_obs(np.zeros((1, 20)), sps=1)
    frame = make_frame(np.ones(20))
    assert_rejected(obs, frame, cfg, 5, 25, match="within the frame")
    assert_rejected(obs, frame, cfg, 12, 8, match="within the frame")


# ------------------------------------------------------------------ state

def test_zero_state_zero_input_is_fixed_point():
    cfg = small_cfg()
    w = random_weights(cfg)
    states = fold(np.zeros((5, cfg.n_in)), w, cfg.leak)
    assert not states.any()


def test_leak_one_has_no_memory_term():
    cfg = small_cfg()
    w = random_weights(cfg)
    rng = substream(3, 0)
    x = rng.normal(size=cfg.n_res) * 0.5
    u = rng.normal(size=cfg.n_in)
    out = fold(u[None, :], w, 1.0, x)[0]
    assert np.max(np.abs(out - np.tanh(w.w_in @ u + w.w_res @ x))) < 1e-12


@settings(max_examples=50)
@given(st.floats(0.05, 1.0), st.integers(0, 2**16))
# pre-activation 26.5: tanh rounds to exactly 1.0 in float64
@example(leak=1.0, seed=1214)
def test_state_stays_inside_unit_box(leak, seed):
    cfg = small_cfg()
    w = random_weights(cfg, seed=1)
    rng = substream(seed, 0)
    x = rng.uniform(-0.999, 0.999, cfg.n_res)
    u = rng.normal(size=cfg.n_in) * 10.0
    out = fold(u[None, :], w, leak, x)[0]
    # |tanh| < 1 holds in exact arithmetic only: in float64 tanh(z) is
    # exactly 1.0 once |z| exceeds about 19, and at leak=1 the new
    # state is that tanh alone, so the float64-true bound is closed
    assert np.max(np.abs(out)) <= 1.0


def test_reservoir_fold_matches_loop_oracle(monkeypatch):
    cfg = small_cfg(k=2, n_out=1, sps=2, num_slices=2)
    w = random_weights(cfg, seed=2)
    rng = substream(4, 0)
    obs = make_obs(rng.normal(size=(2, 30 * 2)), sps=2)
    frame = make_frame(rng.choice([-3.0, -1.0, 1.0, 3.0], 30))
    first, n_steps = esn._target_region([obs], frame, cfg, 5, 10)
    assert n_steps == 5
    expected_inputs = oracle_windows(obs, cfg, first, n_steps)
    expected = oracle_fold(expected_inputs, w, cfg.leak)
    # one chunk, and chunks of two steps that must carry the state
    for chunk, starts in ((esn._CHUNK_STEPS, [0]), (2, [0, 2, 4])):
        monkeypatch.setattr(esn, "_CHUNK_STEPS", chunk)
        # each chunk's rows are overwritten by the next, so keep copies
        chunks = [(t0, rows[0].copy())
                  for t0, rows in esn._step_stream([obs], w, cfg, first, n_steps, 0)]
        assert [t0 for t0, _ in chunks] == starts
        rows = np.vstack([c[1] for c in chunks])
        assert rows.shape == (n_steps, cfg.n_res + cfg.n_in + 1)
        # the window columns are written through views of the rows: a
        # copy anywhere on the way would leave them unset
        assert np.array_equal(rows[:, cfg.n_res : -1], expected_inputs)
        assert np.max(np.abs(rows[:, : cfg.n_res] - expected)) < 1e-12
        assert np.array_equal(rows[:, -1], np.ones(n_steps))


def test_reservoir_empty_and_zero_inputs():
    cfg = small_cfg()
    w = random_weights(cfg)
    assert fold(np.zeros((0, cfg.n_in)), w, cfg.leak).shape == (0, cfg.n_res)
    obs = make_obs(np.zeros((1, 20)), sps=1)
    assert not list(esn._step_stream([obs], w, cfg, 0, 0, 0))
    assert not fold(np.zeros((7, cfg.n_in)), w, cfg.leak).any()


def test_recorded_states_bounded_on_real_data():
    cfg = small_cfg(k=2, n_out=1, sps=1)
    w = random_weights(cfg, seed=7)
    rng = substream(8, 0)
    obs = make_obs(rng.normal(size=(1, 500)) * 3.0, sps=1)
    frame = make_frame(rng.choice([-3.0, -1.0, 1.0, 3.0], 500))
    first, n_steps = esn._target_region([obs], frame, cfg, 10, 490)
    chunks = esn._step_stream([obs], w, cfg, first, n_steps, 0)
    states = np.vstack([rows[0, :, : cfg.n_res].copy() for _, rows in chunks])
    assert states.shape == (480, cfg.n_res)
    assert np.max(np.abs(states)) < 1.0


# --------------------------------------------------------------- training

def test_exact_interpolation_at_lambda_zero():
    cfg = small_cfg(n_res=5, n_out=2, k=1, ridge_lambda=0.0)
    rng = substream(5, 0)
    n = 40
    states = rng.normal(size=(n, 5))
    inputs = rng.normal(size=(n, cfg.n_in))
    true_w = rng.normal(size=(2, 5 + cfg.n_in))
    targets = np.hstack([states, inputs]) @ true_w.T + 0.7
    mask = np.ones((2, 5), dtype=bool)
    w_out = solve_readout(states, inputs, targets, mask, cfg.ridge_lambda)
    feats = np.hstack([states, inputs, np.ones((n, 1))])
    residual = np.linalg.norm(feats @ w_out.T - targets)
    assert residual / np.linalg.norm(targets) < 1e-8


def test_large_lambda_collapses_to_target_mean():
    cfg = small_cfg(n_res=4, ridge_lambda=1e9)
    rng = substream(6, 0)
    n = 60
    states = rng.normal(size=(n, 4))
    inputs = rng.normal(size=(n, cfg.n_in))
    targets = rng.normal(size=(n, 1)) + 2.0
    mask = np.ones((1, 4), dtype=bool)
    w_out = solve_readout(states, inputs, targets, mask, cfg.ridge_lambda)
    assert np.max(np.abs(w_out[0, :-1])) < 1e-6
    assert abs(w_out[0, -1] - targets.mean()) < 1e-3


def test_masked_ridge_matches_deletion_oracle():
    # 10 observations x 4 reservoir nodes, plus a 3-wide window block
    cfg = small_cfg(n_res=4, n_out=2, k=1, ridge_lambda=1e-3)
    rng = substream(7, 0)
    states = rng.normal(size=(10, 4))
    inputs = rng.normal(size=(10, cfg.n_in))
    targets = rng.normal(size=(10, 2))
    mask = np.array([[1, 0, 1, 0], [0, 1, 1, 1]], dtype=bool)
    w_out = solve_readout(states, inputs, targets, mask, cfg.ridge_lambda)
    expected = oracle_masked_ridge(
        np.hstack([states, inputs]), targets, full_width(mask, cfg.n_in), cfg.ridge_lambda
    )
    assert np.max(np.abs(w_out - expected)) < 1e-10


def test_mask_discipline_is_exact():
    cfg = small_cfg(n_res=8, n_out=3, k=1, ridge_lambda=1e-2)
    rng = substream(9, 0)
    states = rng.normal(size=(50, 8))
    inputs = rng.normal(size=(50, cfg.n_in))
    targets = rng.normal(size=(50, 3))
    mask = rng.random((3, 8)) < 0.4
    mask[:, 0] = True  # keep rows non-empty
    w_out = solve_readout(states, inputs, targets, mask, cfg.ridge_lambda)
    assert not w_out[:, :8][~mask].any()
    # and on the full path, against the weights' own mask
    cfg, w, obs, frame = trained_setup(seed=22, n_out=5, washout=10)
    assert w.out_mask.shape == w.w_out.shape
    assert not w.w_out[~w.out_mask].any()


def test_singular_at_lambda_zero_is_rejected():
    cfg = small_cfg(n_res=4, ridge_lambda=0.0)
    rng = substream(10, 0)
    base = rng.normal(size=(12, 1))
    states = np.hstack([base, base, base, base])  # rank 1
    inputs = np.zeros((12, cfg.n_in))
    targets = rng.normal(size=(12, 1))
    mask = np.ones((1, 4), dtype=bool)
    with pytest.raises(ValueError, match="singular"):
        solve_readout(states, inputs, targets, mask, cfg.ridge_lambda)


def test_empty_mask_row_is_rejected():
    # fit_readout refuses weights whose mask row reads no reservoir column
    rng = substream(11, 0)
    cfg = small_cfg(n_res=4, washout=2)
    w = init_weights(cfg)
    mask = w.out_mask
    w.out_mask = mask.copy()
    w.out_mask[:, : cfg.n_res] = False
    obs = make_obs(rng.normal(size=(1, 30)), sps=1)
    frame = make_frame(rng.choice([-3.0, -1.0, 1.0, 3.0], 30))
    with pytest.raises(ValueError, match="empty mask"):
        fit_readout(obs, frame, w, cfg, 0, 30)
    # and a mask that is not the readout's shape, such as the reservoir part alone
    for wrong in (mask[:, : cfg.n_res], mask[:, :-1], np.vstack([mask, mask])):
        w.out_mask = wrong
        with pytest.raises(ValueError, match="out_mask has shape"):
            fit_readout(obs, frame, w, cfg, 0, 30)
    w.out_mask = mask
    assert fit_readout(obs, frame, w, cfg, 0, 30).shape == mask.shape


def test_washout_must_leave_training_rows():
    cfg = small_cfg(washout=12)
    rng = substream(12, 0)
    obs = make_obs(rng.normal(size=(1, 30)), sps=1)
    frame = make_frame(rng.choice([-3.0, -1.0, 1.0, 3.0], 30))
    w = init_weights(cfg)
    # 10 steps in the region
    with pytest.raises(ValueError, match="washout"):
        fit_readout(obs, frame, w, cfg, 10, 20)
    with pytest.raises(ValueError, match="washout"):
        fit_readout(obs, frame, w, cfg, 10, 22)
    assert fit_readout(obs, frame, w, cfg, 10, 23).shape == w.w_out.shape


@given(st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_ridge_residual_monotone_in_lambda(seed):
    rng = substream(seed, 3)
    states = rng.normal(size=(30, 5))
    # k=1, sps=1, num_slices=1 gives the 3-wide window block
    inputs = rng.normal(size=(30, 3))
    targets = rng.normal(size=(30, 1))
    mask = np.ones((1, 5), dtype=bool)
    residuals = []
    for lam in (1e-6, 1e-3, 1e-1, 10.0, 1e3):
        w_out = solve_readout(states, inputs, targets, mask, lam)
        feats = np.hstack([states, inputs, np.ones((30, 1))])
        residuals.append(np.linalg.norm(feats @ w_out.T - targets))
    assert all(b >= a - 1e-9 for a, b in zip(residuals, residuals[1:]))


# ----------------------------------------------------- streaming and reuse

def oracle_w_out(obs, frame, w, cfg, first, last):
    """Readout from the three oracles over a region, washout dropped."""
    n_steps = (last - first) // cfg.n_out
    inputs = oracle_windows(obs, cfg, first, n_steps)
    states = oracle_fold(inputs, w, cfg.leak)
    targets = frame.levels[first : first + n_steps * cfg.n_out].reshape(n_steps, cfg.n_out)
    feats = np.hstack([states, inputs])[cfg.washout :]
    return oracle_masked_ridge(feats, targets[cfg.washout :], w.out_mask, cfg.ridge_lambda)


def test_fit_readout_equals_materialized_training():
    cfg = EsnConfig(n_out=3, washout=20, seed=4)
    w = init_weights(cfg)
    rng = substream(13, 0)
    n_sym = 900
    obs = make_obs(rng.normal(size=(4, n_sym * 2)), sps=2)
    frame = make_frame(rng.choice([-3.0, -1.0, 1.0, 3.0], n_sym))
    first, last = cfg.k, n_sym - cfg.k
    streamed = fit_readout(obs, frame, w, cfg, first, last)
    materialized = oracle_w_out(obs, frame, w, cfg, first, last)
    assert np.max(np.abs(streamed - materialized)) < 1e-9


def test_chunk_boundaries_do_not_change_results(monkeypatch):
    cfg = EsnConfig(n_out=5, washout=10, seed=8)
    w = init_weights(cfg)
    rng = substream(14, 0)
    n_sym = 700
    obs = make_obs(rng.normal(size=(4, n_sym * 2)), sps=2)
    frame = make_frame(rng.choice([-3.0, -1.0, 1.0, 3.0], n_sym))
    first, last = cfg.k, n_sym - cfg.k
    w_big = fit_readout(obs, frame, w, cfg, first, last)
    est_big, _ = equalize(obs, frame, _with_readout(w, w_big), cfg, first, last)
    monkeypatch.setattr(esn, "_CHUNK_STEPS", 7)
    w_small = fit_readout(obs, frame, w, cfg, first, last)
    est_small, _ = equalize(obs, frame, _with_readout(w, w_small), cfg, first, last)
    # summation order inside the normal equations shifts with the chunk
    # size, so equality holds only to solver precision
    assert np.max(np.abs(w_big - w_small)) < 1e-8
    assert np.max(np.abs(est_big - est_small)) < 1e-8


def _with_readout(w: EsnWeights, w_out: np.ndarray) -> EsnWeights:
    return EsnWeights(w_in=w.w_in, w_res=w.w_res, out_mask=w.out_mask, w_out=w_out)


# ---------------------------------------------------------------- equalize

def trained_setup(seed=15, n_sym=1200, n_out=3, washout=15):
    cfg = EsnConfig(n_out=n_out, washout=washout, seed=seed)
    w = init_weights(cfg)
    rng = substream(seed, 0)
    obs = make_obs(rng.normal(size=(4, n_sym * 2)), sps=2)
    frame = make_frame(rng.choice([-3.0, -1.0, 1.0, 3.0], n_sym))
    w.w_out = fit_readout(obs, frame, w, cfg, cfg.k, n_sym // 2)
    return cfg, w, obs, frame


def test_equalize_covers_region_exactly_once():
    cfg, w, obs, frame = trained_setup()
    first_t, last_t = 700, 1100
    est, first = equalize(obs, frame, w, cfg, first_t, last_t)
    assert first == first_t
    assert est.size == ((last_t - first_t) // cfg.n_out) * cfg.n_out


def test_equalize_stride_one_emits_every_symbol():
    cfg, w, obs, frame = trained_setup(n_out=1)
    est, first = equalize(obs, frame, w, cfg, 700, 800)
    assert est.size == 100


def test_equalize_is_deterministic_and_frame_local():
    cfg, w, obs, frame = trained_setup(seed=16)
    cfg2, w2, obs2, frame2 = trained_setup(seed=17)
    a1 = equalize(obs, frame, w, cfg, 700, 1000)[0]
    b1 = equalize(obs2, frame2, w2, cfg2, 700, 1000)[0]
    # opposite processing order
    b2 = equalize(obs2, frame2, w2, cfg2, 700, 1000)[0]
    a2 = equalize(obs, frame, w, cfg, 700, 1000)[0]
    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)


def test_equalize_warm_start_matches_longer_run():
    # the first emitted window must not depend on whether the region
    # boundary sits a few windows earlier: warm-up has absorbed the
    # transient by then
    cfg, w, obs, frame = trained_setup(seed=18, washout=60)
    est_a, first_a = equalize(obs, frame, w, cfg, 702, 1002)
    est_b, first_b = equalize(obs, frame, w, cfg, 702 - 4 * cfg.n_out, 1002)
    overlap = est_b[(first_a - first_b) :]
    assert np.max(np.abs(est_a - overlap[: est_a.size])) < 1e-9


@pytest.mark.parametrize("chunk", [esn._CHUNK_STEPS, 7])
@pytest.mark.parametrize("first", [5, 300])
def test_equalize_warm_up_is_the_stream_before_the_region(monkeypatch, chunk, first):
    # the state folds from zero washout * n_out symbols before the region
    # and the warm-up rows are dropped; at first=5 the warm-up runs off
    # the frame's left edge into zero-padded windows
    monkeypatch.setattr(esn, "_CHUNK_STEPS", chunk)
    cfg = EsnConfig(n_out=3, washout=20, seed=25)
    w = init_weights(cfg)
    rng = substream(25, 0)
    n_sym, n_steps = 600, 40
    obs = make_obs(rng.normal(size=(4, n_sym * 2)), sps=2)
    frame = make_frame(rng.choice([-3.0, -1.0, 1.0, 3.0], n_sym))
    w.w_out = rng.normal(size=w.w_out.shape)
    est, start = equalize(obs, frame, w, cfg, first, first + n_steps * cfg.n_out)
    inputs = oracle_windows(obs, cfg, first - cfg.washout * cfg.n_out, cfg.washout + n_steps)
    states = oracle_fold(inputs, w, cfg.leak)
    design = np.hstack([states, inputs, np.ones((inputs.shape[0], 1))])[cfg.washout :]
    assert start == first
    assert np.max(np.abs(est - (design @ w.w_out.T).ravel())) < 1e-12


def test_equalize_readout_uses_state_window_and_bias():
    cfg, w, obs, frame = trained_setup(seed=19, washout=0)
    inputs = oracle_windows(obs, cfg, 700, 6)
    states = oracle_fold(inputs, w, cfg.leak)
    manual = (
        states @ w.w_out[:, : cfg.n_res].T
        + inputs @ w.w_out[:, cfg.n_res : -1].T
        + w.w_out[:, -1]
    ).ravel()
    est, _ = equalize(obs, frame, w, cfg, 700, 700 + 6 * cfg.n_out)
    assert np.max(np.abs(est - manual)) < 1e-12


# ---------------------------------------------------------------- batching

def test_batched_fold_rows_equal_single_folds():
    # the segmented fold's exactness rests on this: a row of _fold is the
    # row folded alone, bit for bit, whatever the batch's size and layout
    def assert_rows_alone(proj, w_res, leak, x0, out):
        last = esn._fold(proj, w_res, leak, x0.copy(), out)
        for idx in np.ndindex(proj.shape[:-2]):
            alone = np.empty(proj.shape[-2:])
            x = esn._fold(proj[idx].copy(), w_res, leak, x0[idx].copy(), alone)
            assert np.array_equal(out[idx], alone)
            assert np.array_equal(last[idx], x)

    n_steps = 40
    for seed, n_res in ((0, 30), (1, 100), (2, 30)):
        cfg = EsnConfig(n_res=n_res, seed=seed)
        w = init_weights(cfg)
        rng = substream(seed, 5)
        for rows in (1, 2, 7, 24, 57):
            proj = rng.normal(size=(rows, n_steps, n_res))
            x0 = rng.uniform(-0.5, 0.5, (rows, n_res))
            assert_rows_alone(proj, w.w_res, cfg.leak, x0, np.empty_like(proj))
        # (B, S, L, n) segment views of a chunk, writing into the state
        # columns of a (B, T, n_res + n_in + 1) design-row buffer
        batch, segs, span = 3, 4, 10
        buf = np.full((batch, segs * span, cfg.n_res + cfg.n_in + 1), np.nan)
        proj = rng.normal(size=(batch, segs * span, n_res))
        seg_proj = proj.reshape(batch, segs, span, n_res, copy=False)
        seg_out = buf[..., :n_res].reshape(batch, segs, span, n_res, copy=False)
        starts = rng.uniform(-0.5, 0.5, (batch, segs + 1, n_res))
        assert_rows_alone(seg_proj, w.w_res, cfg.leak, starts[:, 1:], seg_out)
        # and the warm-up layout: the last steps of every segment but one
        assert_rows_alone(
            seg_proj[:, :-1, -3:], w.w_res, cfg.leak, starts[:, 2:], seg_out[:, :-1, -3:]
        )


@pytest.mark.parametrize("n_out", [1, 17, 23])
def test_strided_gather_matches_oracle_at_edges_and_warm_up(n_out):
    cfg = EsnConfig(n_out=n_out)
    n_sym = 300
    rng = substream(30 + n_out, 0)
    observations = [make_obs(rng.normal(size=(4, n_sym * 2)), sps=2) for _ in range(2)]
    n_steps = n_sym // n_out
    cases = [
        (0, 0, n_steps),  # the whole frame, both edges zero-padded for n_out < 2k+1
        (40, -12, 0),  # warm-up steps before a region, running off the left edge
        (0, 3, 7),  # a chunk in the middle
        (n_sym - 2 * n_out, 0, 4),  # targets running off the right edge
    ]
    for first, t0, t1 in cases:
        inputs = esn._gather_inputs(observations, cfg, first, t0, t1)
        assert inputs.shape == (2, t1 - t0, cfg.n_in)
        for obs, got in zip(observations, inputs):
            assert np.array_equal(got, oracle_windows(obs, cfg, first + t0 * n_out, t1 - t0))


def test_batch_rows_equal_single_observation_runs(monkeypatch):
    # several chunks, so the carried state and the chunked sums count
    monkeypatch.setattr(esn, "_CHUNK_STEPS", 64)
    cfg = EsnConfig(n_out=3, washout=20, seed=24)
    w = init_weights(cfg)
    rng = substream(24, 0)
    n_sym = 1500
    frame = make_frame(rng.choice([-3.0, -1.0, 1.0, 3.0], n_sym))
    observations = [make_obs(rng.normal(size=(4, n_sym * 2)), sps=2, guard=30) for _ in range(3)]
    w_outs = fit_readout_batch(observations, frame, w, cfg, None, 700)
    assert w_outs.shape == (3,) + w.w_out.shape
    for b, obs in enumerate(observations):
        alone = fit_readout(obs, frame, w, cfg, None, 700)
        assert np.array_equal(w_outs[b], alone)
        est, first = equalize(obs, frame, _with_readout(w, alone), cfg, 720)
        end = first
        for start, chunk in equalize_stream(observations, frame, w, w_outs, cfg, 720):
            assert start == end
            assert np.array_equal(chunk[b], est[start - first : start - first + chunk.shape[1]])
            end += chunk.shape[1]
        assert end == first + est.size


def test_shared_draw_batches_equal_materialised_observations():
    # a frame of several chunks, equalized from its guard so that the
    # washout starts off the frame
    link_cfg = LinkConfig(fiber_length_km=10.0, snr_db=10.0, n_symbols=3 * esn._CHUNK_STEPS)
    rows, frame = detect_frame(link_cfg)
    shared = load_noise_batch(rows, link_cfg, [8.0, 10.0, 12.0])
    # the same samples, each held as one noisy copy of the frame's rows
    copies = [make_obs(obs.data, obs.sps, obs.guard_symbols) for obs in shared]
    cfg = EsnConfig(n_out=1)
    w = init_weights(cfg)
    first, n_steps = esn._target_region(shared, frame, cfg, None, None)
    assert n_steps > esn._CHUNK_STEPS and first < cfg.washout * cfg.n_out
    w_outs = fit_readout_batch(shared, frame, w, cfg, None, 2 * esn._CHUNK_STEPS)
    assert np.array_equal(w_outs, fit_readout_batch(copies, frame, w, cfg, None, 2 * esn._CHUNK_STEPS))
    end = first
    for (start, chunk), (start_copy, chunk_copy) in zip(
        equalize_stream(shared, frame, w, w_outs, cfg), equalize_stream(copies, frame, w, w_outs, cfg)
    ):
        assert start == start_copy == end
        assert np.array_equal(chunk, chunk_copy)
        end += chunk.shape[1]
    assert end == first + n_steps


def test_load_noise_batch_shares_its_rows_and_draw():
    link_cfg = LinkConfig(fiber_length_km=10.0, snr_db=10.0, n_symbols=1024)
    rows, _ = detect_frame(link_cfg)
    before = rows.copy()
    observations = load_noise_batch(rows, link_cfg, [8.0, 10.0, 12.0])
    for obs in observations:
        assert np.shares_memory(obs.rows, rows)
        assert np.shares_memory(obs.noise, observations[0].noise)
        assert not (obs.rows.flags.writeable or obs.noise.flags.writeable)
    assert len({tuple(obs.noise_std) for obs in observations}) == 3
    assert np.array_equal(rows, before)


def test_batch_refuses_mixed_regions_and_empty_batches():
    cfg = small_cfg()
    frame = make_frame(np.ones(20))
    w = init_weights(cfg)
    a = make_obs(np.zeros((1, 20)), sps=1, guard=2)
    b = make_obs(np.zeros((1, 20)), sps=1, guard=3)
    with pytest.raises(ValueError, match="share their target region"):
        fit_readout_batch([a, b], frame, w, cfg)
    with pytest.raises(ValueError, match="at least one"):
        next(equalize_stream([], frame, w, w.w_out[None], cfg))


# ------------------------------------------------------- segmented fold

def _fold_calls(monkeypatch):
    """Record the shape of every projection esn._fold is called on."""
    calls = []
    real = esn._fold

    def recorded(proj, *args):
        calls.append(proj.shape)
        return real(proj, *args)

    monkeypatch.setattr(esn, "_fold", recorded)
    return calls


def _refolds(calls):
    """Segment refolds among recorded _fold calls.

    A segment pass is 4-D and folds _SEGMENT_STEPS steps; without a
    refold the next call is the chunk's tail, shorter than a segment.
    """
    span, count, after_segments = esn._SEGMENT_STEPS, 0, False
    for call in calls:
        refold = after_segments and len(call) == 3 and call[-2] == span
        count += refold
        after_segments = refold or (len(call) == 4 and call[-2] == span)
    return count


@pytest.fixture(scope="module")
def desk():
    """Observations of the 0 and 50 km desk frames at 9, 10 and 11 dB."""
    frames = {}
    for length_km in (0.0, 50.0):
        cfg = LinkConfig(fiber_length_km=length_km, snr_db=10.0, n_symbols=2**15)
        rows, frame = detect_frame(cfg)
        frames[length_km] = load_noise_batch(rows, cfg, [9.0, 10.0, 11.0]), frame
    return frames


def _stream_rows(observations, w, cfg, first, n_steps):
    chunks = esn._step_stream(observations, w, cfg, first, n_steps, cfg.washout)
    return np.concatenate([rows.copy() for _, rows in chunks], axis=1)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("n_out", [1, 17])
@pytest.mark.parametrize("length_km", [0.0, 50.0])
def test_segmented_stream_equals_sequential_fold(monkeypatch, desk, length_km, n_out, batch):
    observations, frame = desk[length_km]
    cfg = EsnConfig(n_out=n_out)
    w = init_weights(cfg)
    first, n_steps = esn._target_region(observations, frame, cfg, None, None)
    calls = _fold_calls(monkeypatch)
    segmented = _stream_rows(observations[:batch], w, cfg, first, n_steps)
    assert any(len(call) == 4 for call in calls)
    # the same stream with every chunk folded as one sequential _fold
    monkeypatch.setattr(esn, "_SPECULATE_MAX_STATE", 0)
    calls.clear()
    sequential = _stream_rows(observations[:batch], w, cfg, first, n_steps)
    assert all(len(call) == 3 for call in calls)
    assert np.array_equal(segmented, sequential)


@pytest.mark.parametrize("n_steps", [2048, 1000, 700, 400])
def test_segmented_fold_equals_fold_at_any_chunk_length(monkeypatch, desk, n_steps):
    # 1000 and 700 leave a tail shorter than a segment; 400 holds one
    # segment, so it folds in one sequential _fold
    observations, frame = desk[50.0]
    cfg = EsnConfig(n_out=1)
    w = init_weights(cfg)
    proj = esn._gather_inputs(observations, cfg, 3000, 0, n_steps) @ w.w_in.T
    x0 = esn._fold(proj[:, :50], w.w_res, cfg.leak, np.zeros((3, cfg.n_res)),
                   np.empty((3, 50, cfg.n_res)))
    expected = np.empty_like(proj)
    last = esn._fold(proj, w.w_res, cfg.leak, x0.copy(), expected)
    calls = _fold_calls(monkeypatch)
    out = np.full((3, n_steps, cfg.n_res + 1), np.nan)
    got, keep = esn._fold_segments(proj, w.w_res, cfg.leak, x0.copy(), out[..., :-1])
    assert np.array_equal(out[..., :-1], expected)
    assert np.array_equal(got, last)
    assert keep and _refolds(calls) == 0
    assert any(len(call) == 4 for call in calls) == (n_steps >= 2 * esn._SEGMENT_STEPS)


@pytest.mark.parametrize("n_res, leak", [(300, 0.7), (30, 0.05)])
def test_segmented_fold_refolds_a_reservoir_that_does_not_forget(monkeypatch, desk, n_res, leak):
    # neither reservoir forgets its start within _WARM_STEPS, so the
    # guesses fail their check and the true states come from refolds
    observations, frame = desk[50.0]
    cfg = EsnConfig(n_out=1, n_res=n_res, leak=leak)
    w = init_weights(cfg)
    n_steps = 4 * esn._SEGMENT_STEPS + 10
    proj = esn._gather_inputs(observations, cfg, 3000, 0, n_steps) @ w.w_in.T
    x0 = np.zeros((3, n_res))
    expected = np.empty_like(proj)
    last = esn._fold(proj, w.w_res, leak, x0.copy(), expected)
    calls = _fold_calls(monkeypatch)
    out = np.empty_like(proj)
    got, keep = esn._fold_segments(proj, w.w_res, leak, x0.copy(), out)
    assert np.array_equal(out, expected)
    assert np.array_equal(got, last)
    assert _refolds(calls) > 0
    assert not keep


def test_stream_falls_back_to_the_sequential_fold(monkeypatch, desk):
    # after a chunk whose guesses mostly failed, the stream folds every
    # later chunk in one sequential _fold, with unchanged states
    observations, frame = desk[50.0]
    cfg = EsnConfig(n_out=1, leak=0.05)
    w = init_weights(cfg)
    first, n_steps = esn._target_region(observations, frame, cfg, None, None)
    calls = _fold_calls(monkeypatch)
    segmented = _stream_rows(observations, w, cfg, first, n_steps)
    refolds = _refolds(calls)
    assert refolds > 0
    # the first chunk: guesses, segments, refolds and its (empty) tail
    assert [len(call) for call in calls[:2]] == [4, 4]
    assert calls[2 + refolds][-2] == 0
    total, chunk = cfg.washout + n_steps, esn._CHUNK_STEPS
    later = [call[-2] for call in calls[3 + refolds :]]
    assert later == [min(chunk, total - t0) for t0 in range(chunk, total, chunk)]
    monkeypatch.setattr(esn, "_SPECULATE_MAX_STATE", 0)
    assert np.array_equal(segmented, _stream_rows(observations, w, cfg, first, n_steps))


def test_default_sweep_folds_in_segments_without_refolds(monkeypatch):
    # at the default equalizer every guess holds: a shorter _WARM_STEPS,
    # or a guard that gives up on segments without need, fails here
    calls = _fold_calls(monkeypatch)
    cfg = ExperimentConfig(
        fiber_length_km=(0.0, 50.0),
        snr_db=(9.0, 10.0, 11.0),
        n_out=(1, 17, 23),
        seeds=(0,),
        total_symbols=2**15,
    )
    records = run_sweep(cfg)
    assert all(rec.ok for rec in records)
    assert _refolds(calls) == 0
    # only a chunk of fewer than two segments folds in one sequential
    # _fold; every other call folds at most one segment
    assert any(len(call) == 4 for call in calls)
    assert max(call[-2] for call in calls) < 2 * esn._SEGMENT_STEPS
