import dataclasses
import io
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seirsde import (BASELINE_PARAMS, ParseError, Path, PositivityError,
                     SimConfig, StateVec, draw_increments, hypothesis_window,
                     path_from_csv, path_to_csv, simulate, simulate_path)
from seirsde.model import PATH_SIMPLEX_TOL
from seirsde.simulate import (_ELEMENT_BUDGET, SCHEME_EULER, SCHEME_MILSTEIN,
                              simulate_batch)

from conftest import (INTERIOR_INIT, as_matrix, one_step, reference_path_csv,
                      sde_drift, stochastic_diffusion)


def cfg_for(params, init, n_steps=47, dt=1e-3, seed=0, **kw):
    return SimConfig(params=params, init=init, dt=dt, n_steps=n_steps,
                     seed=seed, **kw)


def milstein(cfg):
    return dataclasses.replace(cfg, scheme=SCHEME_MILSTEIN)


class TestDrawIncrements:
    def test_empty(self):
        assert len(draw_increments(1, 0, 1e-3)) == 0

    def test_deterministic(self):
        a = draw_increments(42, 100, 1e-3)
        b = draw_increments(42, 100, 1e-3)
        assert np.array_equal(a, b)

    def test_read_only(self):
        with pytest.raises(ValueError):
            draw_increments(42, 10, 1e-3)[0] = 0.0

    def test_law_of_large_numbers_variance(self):
        w = draw_increments(42, 100_000, 1e-3)
        assert abs(w.var() - 1e-3) / 1e-3 < 0.02
        assert abs(w.mean()) < 3 * math.sqrt(1e-3 / 100_000)


class TestStepEm:
    def test_zero_noise_is_explicit_euler(self, params, baseline_init):
        p0 = params.replaced(sigma=0.0)
        cfg = cfg_for(p0, baseline_init)
        out = one_step(baseline_init, dw=0.37, cfg=cfg)
        euler = baseline_init.as_array() + sde_drift(baseline_init, p0) * cfg.dt
        assert np.allclose(out.as_array(), euler, rtol=1e-15)

    def test_component_sum_preserved(self, params):
        rng = np.random.default_rng(4)
        for _ in range(100):
            w = rng.dirichlet(np.ones(5))
            x = StateVec(*w)
            dw = float(rng.normal(0, 0.05))
            cfg = cfg_for(params, x)
            out = one_step(x, dw, cfg)
            assert abs(sum(out.as_array()) - sum(x.as_array())) <= 1e-13

    def test_hand_expanded_one_step(self, params, baseline_init):
        # frozen from a 40-digit decimal expansion of each update line
        # at dW = +0.01, dt = 1e-3
        cfg = cfg_for(params, baseline_init)
        out = one_step(baseline_init, 0.01, cfg)
        assert out.s == pytest.approx(0.9999859453132889, rel=5e-13)
        assert out.e == pytest.approx(7.505764994829614e-06, rel=5e-13)
        assert out.i_a == pytest.approx(3.749854761592166e-06, rel=5e-13)
        assert out.i_s == pytest.approx(2.7981799709848695e-06, rel=5e-13)
        assert out.r == pytest.approx(8.869837481579721e-10, rel=5e-13)

    def test_reject_policy_raises_with_step_index(self, params, baseline_init):
        # dW = +0.5 with sigma = 5 drives E multiplicatively below zero; the
        # thirteen quiet steps before it stay inside the simplex
        cfg = cfg_for(params.replaced(sigma=5.0), baseline_init)
        with pytest.raises(PositivityError) as err:
            one_step(baseline_init, 0.5, cfg, step_index=13)
        assert err.value.step == 13


class TestStepMilstein:
    def test_zero_noise_equals_em(self, params, baseline_init):
        cfg = cfg_for(params.replaced(sigma=0.0), baseline_init)
        a = one_step(baseline_init, 0.2, cfg)
        b = one_step(baseline_init, 0.2, milstein(cfg))
        assert np.array_equal(a.as_array(), b.as_array())

    def test_vanishing_correction_when_dw_squares_to_dt(self, params,
                                                        baseline_init):
        # dt = 2^-12 makes sqrt(dt) = 2^-6 exact, so dW^2 - dt == 0.0
        dt = 2.0**-12
        cfg = cfg_for(params, baseline_init, dt=dt)
        dw = 2.0**-6
        a = one_step(baseline_init, dw, cfg)
        b = one_step(baseline_init, dw, milstein(cfg))
        assert np.array_equal(a.as_array(), b.as_array())

    def test_correction_matches_independent_expression(self, params):
        x = StateVec(0.9, 0.05, 0.02, 0.02, 0.01)
        sig, dw, dt = 0.05, 0.02, 1e-3
        cfg = cfg_for(params.replaced(sigma=sig), x, dt=dt)
        em = one_step(x, dw, cfg).as_array()
        mil = one_step(x, dw, milstein(cfg)).as_array()
        factor = 0.5 * sig**2 * (dw**2 - dt)
        expected = factor * np.array([-(1 - x.s), x.e, x.i_a, x.i_s, x.r])
        assert np.allclose(mil - em, expected, rtol=1e-10)
        assert abs(expected.sum() - factor * (1 - sum(x.as_array()))) <= 1e-18

    def test_frozen_correction_values(self, params, baseline_init):
        # S and E corrections at dW=0.02, sigma=0.05, dt=1e-3, frozen from
        # the decimal evaluation
        cfg = cfg_for(params.replaced(sigma=0.05), baseline_init, dt=1e-3)
        delta = (one_step(baseline_init, 0.02, milstein(cfg)).as_array()
                 - one_step(baseline_init, 0.02, cfg).as_array())
        assert delta[0] == pytest.approx(1.054051025268954e-11, rel=1e-10)
        assert delta[1] == pytest.approx(-5.6294314730176106e-12, rel=1e-10)


class TestStepOracle:
    @settings(max_examples=300, deadline=None)
    @given(weights=st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5),
           sigma=st.floats(0.0, 0.5), dt=st.floats(1e-4, 0.1),
           seed=st.integers(0, 2**32 - 1),
           scheme=st.sampled_from([SCHEME_EULER, SCHEME_MILSTEIN]))
    def test_step_matches_the_expanded_line(self, weights, sigma, dt, seed,
                                            scheme):
        # the simulator evaluates each update in coefficient form; to
        # rounding it is x + drift dt + diffusion dW, plus for Milstein
        # 0.5 b b' (dW^2 - dt) with b' = -sigma in every coordinate
        x = StateVec(*(np.array(weights) / sum(weights)).tolist())
        params = BASELINE_PARAMS.replaced(sigma=sigma)
        dw = float(np.random.default_rng(seed).normal(0.0, math.sqrt(dt)))
        expected = (x.as_array() + sde_drift(x, params) * dt
                    + stochastic_diffusion(x, sigma) * dw)
        if scheme == SCHEME_MILSTEIN:
            expected += 0.5 * sigma**2 * (dw**2 - dt) * np.array(
                [-(1.0 - x.s), x.e, x.i_a, x.i_s, x.r])
        assume(np.all((expected > 1e-12) & (expected < 1.0 - 1e-12)))
        out = one_step(x, dw, cfg_for(params, x, dt=dt, scheme=scheme))
        assert np.abs(out.as_array() - expected).max() <= 1e-15


class TestSimulatePath:
    def test_zero_steps_returns_init_only(self, params, baseline_init):
        path = simulate_path(cfg_for(params, baseline_init, n_steps=0))
        assert len(path) == 1 and len(path.wiener) == 0

    def test_bit_identical_reruns(self, params, baseline_init):
        cfg = cfg_for(params, baseline_init, seed=99)
        a, b = simulate_path(cfg), simulate_path(cfg)
        assert np.array_equal(as_matrix(a), as_matrix(b))
        assert np.array_equal(a.wiener, b.wiener)

    def test_zero_sigma_schemes_coincide(self, params, baseline_init):
        p0 = params.replaced(sigma=0.0)
        a = simulate_path(cfg_for(p0, baseline_init, seed=5))
        b = simulate_path(cfg_for(p0, baseline_init, seed=5,
                                  scheme=SCHEME_MILSTEIN))
        assert np.array_equal(as_matrix(a), as_matrix(b))

    def test_growth_window_holds_for_scanned_seed(self, params, baseline_init):
        # seed 2 was scanned as the first base seed whose sampled path keeps
        # the growth inequalities over the whole 47-step horizon
        path = simulate_path(cfg_for(params, baseline_init, seed=2))
        total = as_matrix(path).sum(axis=1)
        assert np.abs(total - 1.0).max() <= 1e-10
        w = hypothesis_window(path)
        assert w.satisfied and w.t_end == pytest.approx(path.times[-1])

    def test_sum_preserved_along_long_paths(self, params, baseline_init):
        for seed in range(20):
            path = simulate_path(cfg_for(params, baseline_init, n_steps=1000,
                                         seed=seed))
            assert np.abs(as_matrix(path).sum(axis=1) - 1.0).max() <= 1e-9

    def test_positivity_error_carries_step(self, params, interior_init):
        cfg = cfg_for(params.replaced(sigma=30.0), interior_init,
                      n_steps=200, seed=1)
        with pytest.raises(PositivityError) as err:
            simulate_path(cfg)
        assert 0 <= err.value.step < 200

    @pytest.mark.parametrize("scheme", [SCHEME_EULER, SCHEME_MILSTEIN])
    def test_block_size_leaves_the_path_bitwise(self, params, interior_init,
                                                scheme, monkeypatch):
        cfg = cfg_for(params, interior_init, n_steps=300, seed=8,
                      scheme=scheme)
        whole = simulate_path(cfg)
        monkeypatch.setattr(simulate, "_ROWS_PER_BLOCK", 1)
        stepwise = simulate_path(cfg)
        assert bits(as_matrix(stepwise)) == bits(as_matrix(whole))
        assert bits(stepwise.wiener) == bits(whole.wiener)

    def test_caller_increments_are_copied(self, params, interior_init):
        dw = np.array(draw_increments(4, 60, 1e-3))
        path = simulate_path(cfg_for(params, interior_init, n_steps=60), dw)
        assert dw.flags.writeable
        assert not np.shares_memory(dw, path.wiener)
        assert bits(path.wiener) == bits(dw)

    def test_failing_path_is_stepped_to_its_end_without_warning(
            self, params, interior_init):
        # at dt = 0.05 and sigma = 8 every path leaves [0, 1] within a few
        # steps and then overflows; the error still names the first bad
        # step, which an Euler replay from the oracle fields finds
        wild = params.replaced(sigma=8.0)
        for seed in range(8):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(PositivityError) as err:
                    simulate_path(cfg_for(wild, interior_init, n_steps=500,
                                          dt=0.05, seed=seed))
            dw = draw_increments(seed, 500, 0.05)
            x = interior_init
            for k in range(500):
                nxt = (x.as_array() + sde_drift(x, wild) * 0.05
                       + stochastic_diffusion(x, 8.0) * dw[k])
                bad = np.flatnonzero((nxt < 0.0) | (nxt > 1.0))
                if bad.size:
                    break
                x = StateVec(*nxt.tolist())
            assert bad.size
            assert err.value.step == k
            assert err.value.component == ("s", "e", "i_a", "i_s",
                                            "r")[bad[0]]
            assert err.value.value == pytest.approx(nxt[bad[0]], rel=1e-12)


class TestBatchEngine:
    @pytest.mark.parametrize("scheme", [{}, {"scheme": SCHEME_MILSTEIN}],
                             ids=["euler-maruyama", "milstein"])
    def test_batch_matches_scalar(self, params, interior_init, scheme):
        seeds = [3, 11, 42]
        x, dw, failures = simulate_batch(params, interior_init, 1e-3, 50,
                                         seeds, **scheme)
        assert not failures
        for i, seed in enumerate(seeds):
            path = simulate_path(cfg_for(params, interior_init, n_steps=50,
                                         seed=seed, **scheme))
            assert np.array_equal(x[i], as_matrix(path))
            assert np.array_equal(dw[i], path.wiener)

    def test_batch_reports_failures_per_replicate(self, params, interior_init):
        # seed 191 is one of the seeds that leave [0, 1] within 100 steps
        wild = params.replaced(sigma=8.0)
        seeds = [*range(6), 191]
        x, dw, failures = simulate_batch(wild, interior_init, 1e-3, 100,
                                         seeds)
        assert seeds.index(191) in failures
        for idx, exc in failures.items():
            assert isinstance(exc, PositivityError)
            assert 0 <= idx < len(seeds)
            with pytest.raises(PositivityError) as scalar:
                simulate_path(cfg_for(wild, interior_init, n_steps=100,
                                      seed=seeds[idx]))
            assert (exc.step, exc.component, exc.value) == (
                scalar.value.step, scalar.value.component,
                scalar.value.value)
            # frozen from the failing step on
            assert np.all(x[idx, exc.step + 1:] == x[idx, exc.step])
        survivors = [i for i in range(len(seeds)) if i not in failures]
        assert survivors
        for i in survivors:
            path = simulate_path(cfg_for(wild, interior_init, n_steps=100,
                                         seed=seeds[i]))
            assert np.array_equal(x[i], as_matrix(path))
            assert np.array_equal(dw[i], path.wiener)

    def test_failures_across_time_blocks(self, params, interior_init):
        # enough rows for blocks of 16 steps, so that rows fail in several
        # blocks after the first and stay frozen through the blocks after
        block, n_steps = 16, 100
        n_rep = _ELEMENT_BUDGET // block
        wild = params.replaced(sigma=8.0)
        x, dw, failures = simulate_batch(wild, interior_init, 1e-3, n_steps,
                                         range(n_rep))
        n_blocks = math.ceil(n_steps / block)
        blocks = {exc.step // block for exc in failures.values()}
        assert len(blocks - {0}) >= 2
        assert any(0 < b < n_blocks - 1 for b in blocks)
        for i in range(n_rep):
            cfg = cfg_for(wild, interior_init, n_steps=n_steps, seed=i)
            if i not in failures:
                path = simulate_path(cfg)
                assert np.array_equal(x[i], as_matrix(path))
                assert np.array_equal(dw[i], path.wiener)
                continue
            exc = failures[i]
            with pytest.raises(PositivityError) as scalar:
                simulate_path(cfg)
            assert (exc.step, exc.component, exc.value) == (
                scalar.value.step, scalar.value.component,
                scalar.value.value)
            head = simulate_path(dataclasses.replace(cfg, n_steps=exc.step),
                                 dw[i, :exc.step])
            assert np.array_equal(x[i, :exc.step + 1], as_matrix(head))
            assert np.all(x[i, exc.step + 1:] == x[i, exc.step])

    def test_diverging_frozen_rows_leak_no_warning(self, params,
                                                   interior_init):
        # at dt = 0.05 a failed row stepped on through its block overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, _, failures = simulate_batch(params.replaced(sigma=8.0),
                                            interior_init, 0.05, 500,
                                            range(8))
        assert failures
        for i, exc in failures.items():
            assert isinstance(exc, PositivityError)
            assert np.all(x[i, exc.step + 1:] == x[i, exc.step])
        assert np.all(np.isfinite(x))

    @settings(deadline=None)
    @given(sigma=st.floats(0.0, 30.0), seed=st.integers(0, 2**32 - 1),
           n_rep=st.integers(1, 6), n_steps=st.integers(0, 120),
           scheme=st.sampled_from([SCHEME_EULER, SCHEME_MILSTEIN]))
    def test_rows_stay_on_the_simplex(self, sigma, seed, n_rep, n_steps,
                                      scheme):
        # a failed row is frozen at its last state, so it stays there too
        x, _, failures = simulate_batch(
            BASELINE_PARAMS.replaced(sigma=sigma), INTERIOR_INIT, 1e-3,
            n_steps, [seed + i for i in range(n_rep)], scheme=scheme)
        assert np.all((x >= 0.0) & (x <= 1.0))
        assert np.abs(x.sum(axis=2) - 1.0).max() <= PATH_SIMPLEX_TOL
        for i, exc in failures.items():
            assert np.all(x[i, exc.step + 1:] == x[i, exc.step])

    @pytest.mark.parametrize("n_rep,n_steps", [(1, 0), (3, 1), (4, 25)])
    def test_returned_shapes(self, params, interior_init, n_rep, n_steps):
        x, dw, _ = simulate_batch(params, interior_init, 1e-3, n_steps,
                                  range(n_rep))
        assert x.shape == (n_rep, n_steps + 1, 5)
        assert dw.shape == (n_rep, n_steps)

    @pytest.mark.parametrize("bad", [{"scheme": "milstien"},
                                     {"dt": -1e-3}, {"dt": 0.0},
                                     {"n_steps": -1}, {"seeds": []}],
                             ids=["scheme", "negative-dt", "zero-dt",
                                  "negative-n_steps", "no-seeds"])
    def test_rejects_bad_arguments(self, params, interior_init, bad):
        args = {"dt": 1e-3, "n_steps": 10, "seeds": range(3), **bad}
        with pytest.raises(ValueError):
            simulate_batch(params, interior_init, **args)


class TestBatchStorage:
    @pytest.mark.parametrize("sigma,scheme", [
        (None, SCHEME_EULER), (None, SCHEME_MILSTEIN), (8.0, SCHEME_EULER)],
        ids=["euler-maruyama", "milstein", "sigma-8-frozen-rows"])
    def test_reused_storage_leaks_nothing(self, params, interior_init, sigma,
                                          scheme):
        # a NaN fill, then a longer run, then a shorter one: each run into
        # the storage gives what a fresh call gives, bit for bit
        if sigma is not None:
            params = params.replaced(sigma=sigma)
        seeds = range(40)
        storage = simulate._batch_storage(150, len(seeds))
        for flat in storage:
            flat.fill(np.nan)
        for n_steps in (150, 90):
            fresh = simulate_batch(params, interior_init, 1e-3, n_steps,
                                   seeds, scheme)
            reused = simulate_batch(params, interior_init, 1e-3, n_steps,
                                    seeds, scheme, storage=storage)
            for got, want in zip(reused[:2], fresh[:2]):
                assert got.shape == want.shape
                assert bits(got) == bits(want)
            assert {i: (e.step, e.component, e.value)
                    for i, e in reused[2].items()} == {
                i: (e.step, e.component, e.value)
                for i, e in fresh[2].items()}
            assert np.shares_memory(reused[0], storage[1])
            assert np.shares_memory(reused[1], storage[0])
        if sigma is not None:
            assert fresh[2]  # the frozen rows were covered

    def test_short_storage_is_rejected(self, params, interior_init):
        storage = simulate._batch_storage(20, 3)
        with pytest.raises(ValueError):
            simulate_batch(params, interior_init, 1e-3, 21, range(3),
                           storage=storage)


class TestStrongOrder:
    def test_error_decreases_monotonically_under_refinement(self, params,
                                                            interior_init):
        # strong error of the exposed coordinate against a dt/64 reference
        # driven by the same Brownian path, averaged over 50 seeds
        coarse_steps, dt, refine = 64, 1e-3, 64
        noisy = params.replaced(sigma=0.1)
        errs = {("euler-maruyama", lvl): [] for lvl in range(3)}
        errs |= {("milstein", lvl): [] for lvl in range(3)}
        for seed in range(50):
            fine = draw_increments(seed, coarse_steps * refine, dt / refine)
            for scheme in ("euler-maruyama", "milstein"):
                ref = simulate_path(
                    cfg_for(noisy, interior_init, n_steps=coarse_steps * refine,
                            dt=dt / refine, scheme=scheme),
                    increments=fine)
                for lvl, fac in enumerate((1, 2, 4)):
                    grouped = fine.reshape(coarse_steps * fac, -1).sum(axis=1)
                    path = simulate_path(
                        cfg_for(noisy, interior_init, n_steps=coarse_steps * fac,
                                dt=dt / fac, scheme=scheme),
                        increments=grouped)
                    errs[(scheme, lvl)].append(abs(path.e[-1] - ref.e[-1]))
        for scheme in ("euler-maruyama", "milstein"):
            means = [np.mean(errs[(scheme, lvl)]) for lvl in range(3)]
            assert means[0] > means[1] > means[2], (scheme, means)


HEADER = "t,S,E,Ia,Is,R,dW"
ROW = "0.{k},0.9,0.05,0.02,0.02,0.01,{w}"


def csv_text(rows, eol):
    return eol.join([HEADER] + rows) + eol


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def paths(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    cols = [draw(st.lists(finite, min_size=n, max_size=n)) for _ in range(5)]
    wiener = draw(st.none() | st.lists(finite, min_size=n - 1,
                                       max_size=n - 1))
    dt = draw(st.floats(min_value=5e-324, max_value=1e300))
    return Path(0.0, dt, *cols, wiener=wiener, require_simplex=False)


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestPathCsv:
    def test_round_trip_exact(self, params, baseline_init):
        path = simulate_path(cfg_for(params, baseline_init, seed=17))
        buf = io.StringIO()
        path_to_csv(path, buf)
        buf.seek(0)
        back = path_from_csv(buf)
        assert back.t0 == path.t0 and back.dt == path.dt
        assert np.array_equal(as_matrix(back), as_matrix(path))
        assert np.array_equal(back.wiener, path.wiener)

    @settings(max_examples=200, deadline=None)
    @given(paths())
    @example(Path(0.0, 5e-324, [-0.0, 1e308], [5e-324, -1e308],
                  [2.2250738585072014e-308, 1.7976931348623157e308],
                  [-5e-324, 0.1], [1 / 3, -0.0], wiener=[-0.0],
                  require_simplex=False))
    def test_bytes_match_csv_module_and_round_trip_bitwise(self, path):
        buf = io.StringIO()
        path_to_csv(path, buf)
        assert buf.getvalue() == reference_path_csv(path)
        buf.seek(0)
        back = path_from_csv(buf, require_simplex=False)
        assert back.t0 == 0.0 and back.dt == path.dt
        for name in ("s", "e", "i_a", "i_s", "r"):
            assert bits(getattr(back, name)) == bits(getattr(path, name))
        if path.wiener is None:
            assert back.wiener is None
        else:
            assert bits(back.wiener) == bits(path.wiener)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["LF", "CRLF"])
    @pytest.mark.parametrize("blank", [False, True], ids=["packed", "blank"])
    def test_round_trip_without_increments(self, eol, blank):
        path = Path(0.0, 0.5, [0.9, 0.89], [0.05, 0.055], [0.02, 0.022],
                    [0.02, 0.021], [0.01, 0.012])
        buf = io.StringIO()
        path_to_csv(path, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "t,S,E,Ia,Is,R"
        lines = text.splitlines()
        if blank:  # blank lines mid-body and at the end are skipped
            lines[2:2] = [""]
            lines.append("")
        back = path_from_csv(io.StringIO(eol.join(lines) + eol),
                             require_simplex=False)
        assert np.array_equal(as_matrix(back), as_matrix(path))
        assert back.wiener is None

    @pytest.mark.parametrize("name", [str, pathlib.Path],
                             ids=["str", "pathlib"])
    def test_byte_order_mark_is_skipped(self, params, baseline_init,
                                        tmp_path, name):
        # spreadsheet programs often start a UTF-8 file with a BOM
        path = simulate_path(cfg_for(params, baseline_init, seed=17))
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        path_to_csv(path, name(plain))
        assert not plain.read_bytes().startswith(b"\xef\xbb\xbf")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for back in (path_from_csv(name(plain)), path_from_csv(name(marked))):
            assert (back.t0, back.dt) == (path.t0, path.dt)
            assert bits(as_matrix(back)) == bits(as_matrix(path))
            assert bits(back.wiener) == bits(path.wiener)

    def test_bad_header(self):
        for text in ("time,S,E,Ia,Is,R\n", ""):  # a wrong header, and none
            with pytest.raises(ParseError) as err:
                path_from_csv(io.StringIO(text))
            assert err.value.line == 1

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["LF", "CRLF"])
    @pytest.mark.parametrize("rows,line", [
        ([ROW.format(k=0, w=0.1), "0.1,oops,0.05,0.02,0.02,0.01,0.1",
          ROW.format(k=2, w="")], 3),
        ([ROW.format(k=0, w=0.1), ROW.format(k=1, w=0.1),
          "0.2,0.9,0.05,0.02,0.02,0.1", ROW.format(k=3, w="")], 4),
        ([ROW.format(k=0, w=0.1), ROW.format(k=1, w="x"),
          ROW.format(k=2, w="")], 3),
        ([ROW.format(k=0, w=0.1), ROW.format(k=1, w=""),
          ROW.format(k=2, w="")], 3),
        ([ROW.format(k=0, w=0.1), "", ROW.format(k=1, w="0.1,0.1"),
          ROW.format(k=2, w="")], 4),
        ([ROW.format(k=0, w=0.1), ROW.format(k=1, w=0.1),
          "5.0,0.9,0.05,0.02,0.02,0.01,"], 4),
        ([ROW.format(k=0, w=0.1), "0.1,inf,0.05,0.02,0.02,0.01,0.1",
          ROW.format(k=2, w="")], 3),
        # Python's float reads 1_0e-2, numpy's parser does not
        ([ROW.format(k=0, w=0.1), ROW.format(k=1, w=0.1),
          "0.2,0.9,0.05,0.02,0.02,1_0e-2,0.1", ROW.format(k=3, w="")], 4),
        ([], 2),
        # numpy reads these rows, six fields each, without a complaint
        (["0.0,0.9,0.05,0.02,0.02,0.01", "0.1,0.9,0.05,0.02,0.02,0.01"], 2),
    ], ids=["non-numeric-S", "field-count", "non-numeric-dW",
            "empty-dW-before-final", "after-blank", "off-grid-time",
            "infinite-S", "underscore-R", "header-only",
            "field-count-every-row"])
    def test_malformed_line_is_named(self, rows, line, eol):
        with pytest.raises(ParseError) as err:
            path_from_csv(io.StringIO(csv_text(rows, eol)))
        assert err.value.line == line

    def test_single_row_rejected(self):
        with pytest.raises(ParseError):
            path_from_csv(io.StringIO("t,S,E,Ia,Is,R\n0,0.9,0.05,0.02,0.02,0.01\n"))

    @pytest.mark.parametrize("opened", [False, True],
                             ids=["named", "open-file"])
    def test_undecodable_byte_past_the_first_block_is_named(
            self, params, interior_init, tmp_path, opened):
        # past the text decoder's first 8 KiB and the first block of lines
        n = simulate._ROWS_PER_BLOCK + 500
        target = tmp_path / "path.csv"
        path_to_csv(simulate_path(cfg_for(params, interior_init, n_steps=n,
                                          seed=4)), target)
        lines = target.read_bytes().split(b"\r\n")
        lines[n - 9] = lines[n - 9].replace(b",", b",\xe9", 1)
        target.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ParseError) as err:
            if opened:
                with open(target, newline="", encoding="utf-8") as fh:
                    path_from_csv(fh)
            else:
                path_from_csv(target)
        assert str(err.value) == f"line {n - 8}: byte 0xe9 is not utf-8"


class TestPathCsvAtBlockEdges:
    """TestPathCsv's round trips, blank lines, byte-order marks and bad
    lines with blocks of one and of two rows, so that each of them, and
    the final row's missing dW, falls on a block edge."""

    @pytest.fixture(autouse=True, params=[1, 2], ids=["rows1", "rows2"])
    def rows_per_block(self, request, monkeypatch):
        monkeypatch.setattr(simulate, "_ROWS_PER_BLOCK", request.param)

    test_round_trip_exact = TestPathCsv.test_round_trip_exact
    test_round_trip_without_increments = \
        TestPathCsv.test_round_trip_without_increments
    test_byte_order_mark_is_skipped = \
        TestPathCsv.test_byte_order_mark_is_skipped
    test_malformed_line_is_named = TestPathCsv.test_malformed_line_is_named


def traced_peak(call):
    """``call()`` and the peak of the memory it allocated, in bytes, as
    tracemalloc traces it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        return call(), tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestScalarPathMemory:
    """The scalar simulator and the path reader hold one block of rows at a
    time, so their peaks follow the path's arrays, not Python objects per
    row; when they held the whole path the ratios were about 6.0 and 2.4."""

    N_STEPS = 100_000

    def test_simulator_peak_is_under_twice_its_arrays(self, params,
                                                      interior_init):
        cfg = cfg_for(params, interior_init, n_steps=self.N_STEPS, seed=4)
        path, peak = traced_peak(lambda: simulate_path(cfg))
        arrays = sum(a.nbytes for a in (path.s, path.e, path.i_a, path.i_s,
                                        path.r, path.wiener))
        assert peak < 2.0 * arrays

    def test_reader_peak_is_under_one_and_a_half_file_sizes(
            self, params, interior_init, tmp_path):
        target = tmp_path / "path.csv"
        path_to_csv(simulate_path(cfg_for(params, interior_init,
                                          n_steps=self.N_STEPS, seed=4)),
                    target)
        path, peak = traced_peak(lambda: path_from_csv(target))
        assert len(path) == self.N_STEPS + 1
        assert peak < 1.5 * target.stat().st_size
