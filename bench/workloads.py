"""Workload definitions and the inputs each one starts from.

Every workload begins with a raw GPS feed written from a simulated training
corpus, plus a labelled targets file for the privacy attack.  The inputs
depend only on the workload and the seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from mobsynth import dataio
from mobsynth.dataio import Corpus, SimulatorParams
from mobsynth.geogrid import GridSpec

# the CLI's default grid: `--bbox 45.8,47.8,5.9,10.5 --level 8`
SPEC = GridSpec(45.8, 47.8, 5.9, 10.5, level=8)
PERIOD = 600
# simulator parameters of the acceptance gates (tests/test_acceptance.py)
SIM_PARAMS = SimulatorParams(stay_at_anchor=0.95, stay_elsewhere=0.3,
                             popularity_exponent=1.0)
POP_SEED = 100

# raw-feed defects; each exercises one branch of dataio.ingest
DUPLICATE_SHARE = 0.05     # decoy row at a true timestamp, written before it
OUT_OF_BOX_SHARE = 0.02    # extra rows outside the bounding box
GAP_SHARE = 0.3            # share of repeat-cell rows left out (carry-forward)
SHORT_USERS = 3            # users with one in-box point, dropped by ingest
JITTER_INSET = 0.02        # jitter stays this share of a cell off its edges


@dataclass(frozen=True)
class Workload:
    name: str
    model_type: str
    users: int
    steps: int
    hotspots: int
    gen_traces: int
    gen_steps: int
    targets: int           # members, and as many non-members
    n_permutations: int
    fit_args: tuple = ()


WORKLOADS = {
    w.name: w for w in (
        # the acceptance operating point: VINE_KW are the CLI fit defaults
        Workload("vine-acceptance", "vine", users=50, steps=500, hotspots=286,
                 gen_traces=50, gen_steps=500, targets=50, n_permutations=500),
        # no copula code; dense V x V Viterbi at V near 700 dominates
        Workload("markov-wide-alphabet", "markov", users=50, steps=500,
                 hotspots=3000, gen_traces=50, gen_steps=500, targets=20,
                 n_permutations=500, fit_args=("--order", "1")),
        # day-long traces, about 1,000 rows per generation step
        Workload("vine-population", "vine", users=200, steps=144, hotspots=286,
                 gen_traces=500, gen_steps=144, targets=20, n_permutations=500),
    )
}


def simulate(w: Workload, seed: int, users: int | None = None):
    return dataio.simulate_ground_truth(
        SPEC, users or w.users, w.steps, w.hotspots, seed=seed,
        sampling_period=PERIOD, population_seed=POP_SEED, params=SIM_PARAMS)


def cell_rows_cols(cells: np.ndarray, level: int):
    """Hilbert index -> (row, col), written apart from mobsynth.geogrid."""
    d = np.asarray(cells, dtype=np.int64).copy()
    x = np.zeros_like(d)
    y = np.zeros_like(d)
    s = 1
    while s < (1 << level):
        rx = 1 & (d // 2)
        ry = 1 & (d ^ rx)
        flip = (ry == 0) & (rx == 1)
        x = np.where(flip, s - 1 - x, x)
        y = np.where(flip, s - 1 - y, y)
        swap = ry == 0
        x, y = np.where(swap, y, x), np.where(swap, x, y)
        x = x + s * rx
        y = y + s * ry
        d //= 4
        s *= 2
    return y, x  # row runs south->north, col west->east


def jittered_points(cells: np.ndarray, rng):
    """Uniform point inside each cell, inset from the cell edges."""
    rows, cols = cell_rows_cols(cells, SPEC.level)
    fy = rng.uniform(JITTER_INSET, 1 - JITTER_INSET, size=rows.size)
    fx = rng.uniform(JITTER_INSET, 1 - JITTER_INSET, size=cols.size)
    lat = SPEC.lat_min + (rows + fy) * SPEC.cell_height
    lon = SPEC.lon_min + (cols + fx) * SPEC.cell_width
    return lat, lon


def write_raw_feed(corpus, path, rng) -> None:
    """The training corpus as a raw feed that ingest must regularize back.

    Rows are shuffled.  Decoy rows share a true timestamp and come earlier in
    the file, so "keep last" restores the true cell.  Repeat-cell rows are
    left out, so carry-forward restores them.  Out-of-box rows and one-point
    users are dropped by ingest.
    """
    early, late = [], []
    for trace in corpus.traces:
        n = len(trace)
        cells, ts = trace.cells, trace.timestamps
        repeat = np.zeros(n, dtype=bool)
        repeat[1:-1] = cells[1:-1] == cells[:-2]
        keep = ~(repeat & (rng.uniform(size=n) < GAP_SHARE))
        lat, lon = jittered_points(cells, rng)
        decoy = keep & (rng.uniform(size=n) < DUPLICATE_SHARE)
        d_lat, d_lon = jittered_points(rng.choice(cells, size=n), rng)
        for i in np.flatnonzero(keep):
            row = [trace.user_id, int(ts[i]), repr(float(lat[i])), repr(float(lon[i]))]
            if decoy[i]:
                early.append([trace.user_id, int(ts[i]), repr(float(d_lat[i])),
                              repr(float(d_lon[i]))])
                late.append(row)
            else:
                (early if rng.uniform() < 0.5 else late).append(row)
        n_oob = int(round(OUT_OF_BOX_SHARE * n))
        oob_ts = rng.integers(0, int(ts[-1]) + 1, size=n_oob)
        for k, t in enumerate(oob_ts):
            lat_o = SPEC.lat_max + 0.5 if k % 2 else SPEC.lat_min - 0.5
            early.append([trace.user_id, int(t), repr(lat_o), repr(SPEC.lon_min + 1.0)])
    for k in range(SHORT_USERS):
        lat, lon = jittered_points(corpus.traces[0].cells[:1], rng)
        early.append([f"short_{k}", 0, repr(float(lat[0])), repr(float(lon[0]))])
        early.append([f"short_{k}", PERIOD, repr(SPEC.lat_max + 1.0), repr(SPEC.lon_min)])
    _write_rows(path, dataio.CSV_HEADER, _shuffled(early, rng) + _shuffled(late, rng))


def write_targets(members, nonmembers, path, rng) -> None:
    """Members are m_<k>, non-members n_<k>: every target id is unique."""
    rows = []
    for prefix, flag, traces in (("m", 1, members), ("n", 0, nonmembers)):
        for k, trace in enumerate(traces):
            lat, lon = jittered_points(trace.cells, rng)
            rows.extend([f"{prefix}_{k}", int(t), repr(float(a)), repr(float(o)), flag]
                        for t, a, o in zip(trace.timestamps, lat, lon))
    _write_rows(path, dataio.CSV_HEADER + ["is_member"], rows)


def _shuffled(rows, rng):
    return [rows[i] for i in rng.permutation(len(rows))]


def _write_rows(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@dataclass
class Inputs:
    train: Corpus          # simulated training corpus (the ingest oracle)
    held: Corpus           # held-out simulation of the same population
    members: list
    nonmembers: list
    raw_path: str
    targets_path: str


def build_inputs(w: Workload, seed: int, workdir: str) -> Inputs:
    """Simulated corpora, raw feed and targets file for one workload/seed."""
    rng = np.random.default_rng([seed, 1])
    train = simulate(w, seed=10_000 + seed)
    held = simulate(w, seed=20_000 + seed, users=max(w.users, w.targets))
    members = train.traces[:w.targets]
    nonmembers = held.traces[:w.targets]
    raw_path = f"{workdir}/raw.csv"
    targets_path = f"{workdir}/targets.csv"
    write_raw_feed(train, raw_path, rng)
    write_targets(members, nonmembers, targets_path, rng)
    return Inputs(train, held, members, nonmembers, raw_path, targets_path)
