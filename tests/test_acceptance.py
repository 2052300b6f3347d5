"""End-to-end acceptance checks for the full pipeline.

Each test covers one release gate and prints a single PASS/FAIL line with
the measured numbers, so a log scan shows the whole battery at a glance.
The gates are Monte Carlo properties of the seeded ground-truth simulator
plus closed-form oracles; tolerances are stated inline.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import kendalltau, kstest, ttest_1samp

from mobsynth.copula import KernelPairCopula
from mobsynth.dataio import Corpus, GridTrace, SimulatorParams, simulate_ground_truth
from mobsynth.generators import MarkovGenerator, VineGenerator
from mobsynth.geogrid import GridSpec
from mobsynth.metrics import mi_decay, mmd_test, topn_report
from mobsynth.privacy import membership_attack, run_sequence_attack

pytestmark = pytest.mark.slow

SPEC = GridSpec(45.8, 47.8, 5.9, 10.5, level=8)

# operating point shared by the fidelity gates: one simulated population,
# fresh trajectories per repetition
SIM_PARAMS = SimulatorParams(stay_at_anchor=0.95, stay_elsewhere=0.3,
                             popularity_exponent=1.0)
SIM_USERS = 50
SIM_STEPS = 500
SIM_HOTSPOTS = 286
POP_SEED = 100

VINE_KW = dict(window=4, trunc_level=2, max_scores=25000,
               bandwidth_scale=0.00625, max_rows=25000)

N_REPS = 30


def _announce(capfd, name, ok, detail):
    with capfd.disabled():
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})",
              flush=True)
    assert ok, f"{name}: {detail}"


def _sim(seed, users=SIM_USERS, steps=SIM_STEPS, hotspots=SIM_HOTSPOTS):
    return simulate_ground_truth(SPEC, users, steps, hotspots, seed=seed,
                                 population_seed=POP_SEED, params=SIM_PARAMS)


@pytest.fixture(scope="module")
def fidelity_runs():
    """Per-repetition TV and MMD numbers shared by the two fidelity gates."""
    t0 = time.time()
    rows = []
    for rep in range(N_REPS):
        train = _sim(1000 + rep)
        held = _sim(2000 + rep)
        vine = VineGenerator.fit(train, seed=0, **VINE_KW)
        vine_syn = vine.generate(SIM_USERS, SIM_STEPS, 0, seed=3000 + rep)
        markov = MarkovGenerator.fit(train, order=0)
        markov_syn = markov.generate(SIM_USERS, SIM_STEPS, 0, seed=3000 + rep)
        tv_vine = topn_report(held, vine_syn, n=50).tv_visit
        tv_markov = topn_report(held, markov_syn, n=50).tv_visit
        rng = np.random.default_rng(4000 + rep)
        mmd_vine = mmd_test(held, vine_syn, n_permutations=0,
                            rng=rng).mmd2_unbiased
        mmd_markov = mmd_test(held, markov_syn, n_permutations=0,
                              rng=rng).mmd2_unbiased
        rows.append((tv_vine, tv_markov, mmd_vine, mmd_markov))
    return np.asarray(rows), time.time() - t0


def draw_pairs(c, n, rng):
    """n (u, v) pairs of the pair copula ``c``: v uniform, then u | v by its
    exact conditional draw."""
    v = rng.uniform(size=n)
    p = rng.uniform(size=n)
    return c.sample_u_given_v(p, v), v


class TestCriterion1CopulaCorrectness:
    def test_copula_correctness(self, capfd):
        t0 = time.time()
        rng = np.random.default_rng(42)
        tau_errs = []
        for rho in (0.3, 0.8):
            cov = np.array([[1.0, rho], [rho, 1.0]])
            z = rng.multivariate_normal([0.0, 0.0], cov, size=4000)
            u, v = ndtr(z[:, 0]), ndtr(z[:, 1])
            c = KernelPairCopula.fit(u, v, max_scores=2000, bandwidth_scale=1.0)
            tau_hat = kendalltau(*draw_pairs(c, 4000, np.random.default_rng(7))).statistic
            tau_true = (2.0 / math.pi) * math.asin(rho)
            tau_errs.append(abs(tau_hat - tau_true))
        # h-inverse roundtrip on the last fitted copula
        p = rng.uniform(1e-6, 1.0 - 1e-6, size=500)
        cond = rng.uniform(1e-6, 1.0 - 1e-6, size=500)
        u_inv = c.h_inverse_u_given_v(p, cond)
        roundtrip = float(np.max(np.abs(c.h_u_given_v(u_inv, cond) - p)))
        # Rosenblatt transform of model samples must be uniform
        us, vs = draw_pairs(c, 2000, np.random.default_rng(9))
        pit = c.h_u_given_v(us, vs)
        ks_p = kstest(pit, "uniform").pvalue
        elapsed = time.time() - t0
        ok = (max(tau_errs) < 0.05 and roundtrip < 1e-8
              and ks_p > 0.01 and elapsed < 30.0)
        _announce(capfd, "1 copula-correctness", ok,
                  f"tau_err={max(tau_errs):.4f} roundtrip={roundtrip:.2e} "
                  f"ks_p={ks_p:.3f} {elapsed:.1f}s")


class TestCriterion2GeneratorFidelity:
    def test_topn_tv_beats_markov_baseline(self, capfd, fidelity_runs):
        rows, elapsed = fidelity_runs
        tv_vine, tv_markov = rows[:, 0], rows[:, 1]
        wins = np.sum((tv_vine < 0.15) & (tv_vine < tv_markov))
        ok = wins >= 0.8 * N_REPS and elapsed < 300.0
        _announce(capfd, "2 generator-fidelity", ok,
                  f"wins={wins}/{N_REPS} median_tv_vine={np.median(tv_vine):.3f} "
                  f"median_tv_markov={np.median(tv_markov):.3f} "
                  f"{elapsed:.1f}s for all repetitions")


class TestCriterion3MmdCalibrationOrdering:
    def test_null_rejection_rate(self, capfd):
        # the two null corpora must be exchangeable: simulate one pool and
        # split it, rather than simulating twice with the same pinned users
        # (user-paired corpora make every permutation look more extreme
        # than the observed split, which drives the p-value to 1)
        t0 = time.time()
        rejections = 0
        n_trials = 200
        for trial in range(n_trials):
            pool = _sim(5000 + trial, users=2 * SIM_USERS)
            order = np.random.default_rng(9000 + trial).permutation(
                2 * SIM_USERS)
            half = [
                Corpus(spec=SPEC, traces=[pool.traces[i] for i in part],
                       sampling_period=pool.sampling_period)
                for part in (order[:SIM_USERS], order[SIM_USERS:])]
            res = mmd_test(half[0], half[1], n_permutations=200,
                           rng=np.random.default_rng(trial))
            rejections += res.p_value < 0.05
        rate = rejections / n_trials
        elapsed = time.time() - t0
        ok = abs(rate - 0.05) <= 0.03 and elapsed < 600.0
        _announce(capfd, "3a mmd-null-calibration", ok,
                  f"rejection_rate={rate:.3f} {elapsed:.1f}s")

    def test_vine_mmd_below_markov(self, capfd, fidelity_runs):
        rows, _ = fidelity_runs
        mmd_vine, mmd_markov = rows[:, 2], rows[:, 3]
        wins = int(np.sum(mmd_vine < mmd_markov))
        ok = wins >= 0.8 * N_REPS
        _announce(capfd, "3b mmd-ordering", ok,
                  f"wins={wins}/{N_REPS} median_vine={np.median(mmd_vine):.5f} "
                  f"median_markov={np.median(mmd_markov):.5f}")


def _chain_trace(n, stay, seed, user="u0"):
    rng = np.random.default_rng(seed)
    flips = rng.uniform(size=n) >= stay
    cells = np.bitwise_xor.accumulate(flips.astype(np.int64)) % 2
    ts = np.arange(n, dtype=np.int64) * 600
    return GridTrace(user, cells, ts)


class TestCriterion4MiDecay:
    def test_mi_decay(self, capfd):
        t0 = time.time()
        chain = Corpus(spec=SPEC, traces=[_chain_trace(200_000, 0.9, seed=1)],
                       sampling_period=600)
        curve = mi_decay(chain, tau_max=10)
        mi1_err = abs(curve.mi_bits[0] - 0.531)
        shape_ok = curve.exponential_r2 > curve.powerlaw_r2
        rng = np.random.default_rng(2)
        iid = Corpus(spec=SPEC, sampling_period=600, traces=[
            GridTrace(f"u{i}", rng.integers(0, 6, size=20_000),
                      np.arange(20_000, dtype=np.int64) * 600)
            for i in range(3)])
        iid_max = float(np.max(mi_decay(iid, tau_max=10).mi_bits))
        elapsed = time.time() - t0
        ok = (mi1_err < 0.02 and shape_ok and iid_max < 0.01
              and elapsed < 60.0)
        _announce(capfd, "4 mi-decay", ok,
                  f"I1_err={mi1_err:.4f} exp_r2={curve.exponential_r2:.3f} "
                  f"pow_r2={curve.powerlaw_r2:.3f} iid_max={iid_max:.4f} "
                  f"{elapsed:.1f}s")


class TestCriterion5Privacy:
    def test_privacy_floors_and_signal(self, capfd):
        t0 = time.time()
        m = 8
        rng = np.random.default_rng(5)
        # uniform world: i.i.d. uniform truth, near-uniform markov prior
        uniform_traces = [
            GridTrace(f"u{i}", rng.integers(0, m, size=400),
                      np.arange(400, dtype=np.int64) * 600)
            for i in range(10)]
        truth = Corpus(spec=SPEC, traces=uniform_traces, sampling_period=600)
        prior = MarkovGenerator.fit(truth, order=0, time_buckets=1, alpha=100.0)
        accuracy = run_sequence_attack(truth, prior, p_hide=1.0,
                                       rng=np.random.default_rng(6))
        seq_err = abs(accuracy - 1.0 / m)

        # membership floor: synthetic data independent of the targets; 150
        # targets per class keep the AUC's null standard error (~0.03)
        # well inside the stated 0.07 tolerance
        members = _sim(7000, users=150).traces
        nonmembers = _sim(7001, users=150).traces
        indep_syn = _sim(7002, users=150)
        targets = Corpus(spec=SPEC, traces=members + nonmembers, sampling_period=600)
        auc_floor = membership_attack(indep_syn, targets, len(members),
                                      rng=np.random.default_rng(8)).auc

        # membership signal: generator fitted on the members themselves
        aucs = []
        for rep in range(N_REPS):
            mem = _sim(7100 + rep).traces
            non = _sim(7200 + rep).traces
            gen = MarkovGenerator.fit(Corpus(spec=SPEC, traces=mem,
                                             sampling_period=600), order=1)
            syn = gen.generate(len(mem), SIM_STEPS, 0, seed=rep)
            targets = Corpus(spec=SPEC, traces=mem + non, sampling_period=600)
            aucs.append(membership_attack(syn, targets, len(mem),
                                          rng=np.random.default_rng(rep)).auc)
        aucs = np.asarray(aucs)
        t_res = ttest_1samp(aucs, 0.5, alternative="greater")
        elapsed = time.time() - t0
        ok = (seq_err < 0.02 and abs(auc_floor - 0.5) < 0.07
              and t_res.pvalue < 0.01 and elapsed < 300.0)
        _announce(capfd, "5 privacy", ok,
                  f"seq_err={seq_err:.4f} auc_floor={auc_floor:.3f} "
                  f"member_auc_mean={aucs.mean():.3f} p={t_res.pvalue:.2e} "
                  f"{elapsed:.1f}s")


class TestCriterion6Efficiency:
    def test_fit_generate_runtime(self, capfd):
        corpus = _sim(8000, users=100, steps=1000, hotspots=286)
        t0 = time.time()
        gen = VineGenerator.fit(corpus, seed=0, **VINE_KW)
        gen.generate(100, 1000, 0, seed=1)
        elapsed = time.time() - t0
        ok = elapsed < 60.0
        _announce(capfd, "6a efficiency-runtime", ok, f"{elapsed:.1f}s")

    def test_fit_scales_subquadratically(self, capfd):
        times = []
        sizes = [1_000, 10_000, 100_000]
        for rows in sizes:
            users = max(2, rows // 1000)
            steps = rows // users + 4
            corpus = _sim(8100, users=users, steps=steps, hotspots=286)
            t0 = time.time()
            VineGenerator.fit(corpus, window=4, max_scores=1000,
                              bandwidth_scale=0.1, max_rows=0, seed=0)
            times.append(time.time() - t0)
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        ok = slope < 2.0
        _announce(capfd, "6b efficiency-scaling", ok,
                  f"slope={slope:.2f} times={['%.1fs' % t for t in times]}")


class TestCriterion7Determinism:
    def test_double_run_byte_diff(self, capfd, tmp_path, subprocess_pythonpath):
        def pipeline(root):
            root.mkdir()
            env = dict(os.environ, MOBSYNTH_OUTDIR=str(root / "report"),
                       PYTHONPATH=subprocess_pythonpath)
            def cli(*args):
                cmd = [sys.executable, "-m", "mobsynth.cli", *map(str, args)]
                r = subprocess.run(cmd, cwd=root, env=env,
                                   capture_output=True, text=True)
                assert r.returncode == 0, (
                    f"{' '.join(cmd)} exited {r.returncode} "
                    f"(PYTHONPATH={env['PYTHONPATH']}):\n{r.stderr}")
            cli("--seed", "1", "simulate", "--out", root / "real.csv",
                "--users", "12", "--steps", "120", "--hotspots", "12")
            cli("ingest", "--input", root / "real.csv",
                "--out", root / "ingested.csv")
            cli("--seed", "2", "fit", "--corpus", root / "ingested.csv",
                "--model-type", "vine", "--max-scores", "200",
                "--out", root / "vine.json")
            cli("fit", "--corpus", root / "ingested.csv", "--model-type",
                "markov", "--order", "0", "--out", root / "markov.json")
            cli("--seed", "3", "generate", "--model", root / "vine.json",
                "--out", root / "syn.csv", "--n-traces", "6",
                "--trace-len", "60")
            cli("--seed", "4", "evaluate", "--real", root / "ingested.csv",
                "--syn", root / "syn.csv", "--tau-max", "5",
                "--n-permutations", "20")

        a, b = tmp_path / "a", tmp_path / "b"
        pipeline(a)
        pipeline(b)
        mismatches = []
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        if files_a != files_b:
            mismatches.append("file lists differ")
        for rel in files_a:
            if rel.name == "report.json":
                # wall-clock timings are the one legitimately varying field
                ra = json.loads((a / rel).read_text())
                rb = json.loads((b / rel).read_text())
                ra.pop("timings", None)
                rb.pop("timings", None)
                if ra != rb:
                    mismatches.append(str(rel))
            elif (a / rel).read_bytes() != (b / rel).read_bytes():
                mismatches.append(str(rel))
        ok = not mismatches
        _announce(capfd, "7 determinism", ok,
                  f"{len(files_a)} files compared, mismatches={mismatches}")
