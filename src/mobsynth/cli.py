"""Subcommand-driven pipeline: simulate, ingest, fit, generate, evaluate,
attack.  Every command is deterministic given its inputs, config and seed;
errors map to distinct exit codes with one machine-parseable line on stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from datetime import datetime

import numpy as np

from . import dataio, generators, metrics, privacy
from .errors import (DomainError, IncompatibilityError, InsufficientDataError,
                     ParseError)
from .geogrid import GridSpec

logger = logging.getLogger(__name__)

OUTDIR_ENV = "MOBSYNTH_OUTDIR"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INCOMPATIBLE = 4
EXIT_DOMAIN = 5
EXIT_NOT_FOUND = 6

_EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    (IncompatibilityError, EXIT_INCOMPATIBLE),
    (InsufficientDataError, EXIT_DOMAIN),
    (DomainError, EXIT_DOMAIN),
    (FileNotFoundError, EXIT_NOT_FOUND),
)

DEFAULT_BBOX = "45.8,47.8,5.9,10.5"  # roughly a Switzerland-sized box


def read_config(path) -> dict:
    """Flat key=value file; '#' starts a comment.  A line that is not UTF-8
    is a ParseError naming it, as in a CSV file."""
    config = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(dataio.text_lines(fh), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"expected key=value, got {line!r}", line=lineno)
            key, value = line.split("=", 1)
            config[key.strip().replace("-", "_")] = value.strip()
    return config


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser, argv) -> None:
    """Config file fills in the options the command line ``argv`` left out;
    a flag given there wins, even when it equals its default."""
    if not getattr(args, "config", None):
        return
    config = read_config(args.config)
    actions = {}
    stack = [parser]
    while stack:
        p = stack.pop()
        for a in p._actions:
            if isinstance(a, argparse._SubParsersAction):
                stack.extend(a.choices.values())
            else:
                actions.setdefault(a.dest, a)
                a.default = argparse.SUPPRESS
    # with no defaults, parsing argv again keeps only the options it gives
    given = vars(parser.parse_args(argv))
    for key, value in config.items():
        action = actions.get(key)
        if action is None:
            parser.error(f"config key {key!r} names no option of any command")
        if not hasattr(args, key) or key in given:
            continue
        if action.type is not None:  # every int and float option has one
            try:
                value = action.type(value)
            except ValueError as exc:
                raise ParseError(f"config key {key!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise ParseError(f"config key {key!r}: {value!r} is not one of {action.choices}")
        setattr(args, key, value)


def _grid_spec(args) -> GridSpec:
    try:
        lat_min, lat_max, lon_min, lon_max = (float(x) for x in args.bbox.split(","))
    except ValueError as exc:  # not a number, or not four of them
        raise DomainError("--bbox expects lat_min,lat_max,lon_min,lon_max, "
                          f"got {args.bbox!r}") from exc
    return GridSpec(lat_min, lat_max, lon_min, lon_max, level=args.level)


def _require_seed(args) -> int:
    if args.seed is None:
        raise DomainError("--seed is mandatory for this command")
    return _non_negative_seed("--seed", args.seed)


def _non_negative_seed(flag: str, seed: int) -> int:
    if seed < 0:  # numpy seeds its generators with non-negative integers only
        raise DomainError(f"{flag} must be >= 0, got {seed}")
    return int(seed)


def _outdir(args) -> str:
    """The report directory: --outdir or its config key, else $MOBSYNTH_OUTDIR,
    else a new timestamped directory under runs/."""
    outdir = getattr(args, "outdir", None) or os.environ.get(OUTDIR_ENV)
    if not outdir:
        outdir = os.path.join("runs", datetime.now().strftime("run_%Y%m%d_%H%M%S"))
    os.makedirs(outdir, exist_ok=True)
    return outdir


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    spec = _grid_spec(args)
    seed = _require_seed(args)
    if args.population_seed is not None:
        _non_negative_seed("--population-seed", args.population_seed)
    corpus = dataio.simulate_ground_truth(
        spec, n_users=args.users, trace_len=args.steps, n_hotspots=args.hotspots,
        seed=seed, sampling_period=args.period, start_time=args.start_time,
        population_seed=args.population_seed)
    dataio.save_corpus(corpus, args.out)
    print(f"simulated corpus: {len(corpus)} traces x {args.steps} steps -> {args.out}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    spec = _grid_spec(args)
    corpus = dataio.ingest(args.input, spec, args.period)
    dataio.save_corpus(corpus, args.out)
    print(f"ingested {len(corpus)} traces ({corpus.n_points()} points) -> {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    corpus = dataio.load_corpus(args.corpus)
    t0 = time.perf_counter()
    if args.model_type == "vine":
        model = generators.VineGenerator.fit(
            corpus, window=args.window, trunc_level=args.trunc_level,
            max_scores=args.max_scores,
            bandwidth_scale=args.bandwidth_scale, max_rows=args.max_rows,
            seed=_require_seed(args))
    else:  # "markov": argparse and _apply_config admit no other choice
        longest = int(np.diff(corpus.offsets).max(initial=0))
        if 0 < longest <= args.order:
            # the model would hold one count table per order, all past
            # longest - 1 of them empty (an empty corpus fails in fit)
            raise DomainError(f"--order {args.order} must be below the longest trace's "
                              f"length {longest}: no transition of that order exists")
        model = generators.MarkovGenerator.fit(
            corpus, order=args.order, time_buckets=args.time_buckets, alpha=args.alpha)
    fit_seconds = time.perf_counter() - t0
    dataio.save_model(model, args.out)
    print(f"fit {args.model_type} model in {fit_seconds:.2f}s -> {args.out}")
    return EXIT_OK


def cmd_generate(args) -> int:
    model = dataio.load_model(args.model)
    t0 = time.perf_counter()
    corpus = model.generate(args.n_traces, args.trace_len, args.start_time,
                            _require_seed(args))
    gen_seconds = time.perf_counter() - t0
    dataio.save_corpus(corpus, args.out)
    print(f"generated {len(corpus)} traces in {gen_seconds:.2f}s -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    seed = _require_seed(args)
    privacy.check_p_hide(args.p_hide, attack=True)  # before the realism battery runs
    real = dataio.load_corpus(args.real)
    syn = dataio.load_corpus(args.syn, expected_spec=real.spec)
    rng = np.random.default_rng(seed)

    t0 = time.perf_counter()
    top = metrics.topn_report(real, syn, n=args.topn)
    # MI decay draws nothing, so its tau_max check can run before the MMD test
    mi_real = metrics.mi_decay(real, tau_max=args.tau_max)
    mi_syn = metrics.mi_decay(syn, tau_max=args.tau_max)
    mmd = metrics.mmd_test(real, syn, n_permutations=args.n_permutations, rng=rng)

    targets, n_members = (dataio.load_targets(args.targets, real.spec, real.sampling_period)
                          if args.targets else (None, 0))
    priv, mem = privacy.battery(syn, real, args.p_hide, rng, targets, n_members)
    timings = {"evaluate_seconds": time.perf_counter() - t0}
    outdir = _outdir(args)  # only once every metric has run
    if mem is not None:
        _write_membership_csv(os.path.join(outdir, "membership_scores.csv"), mem)

    report = {
        "config": {
            "seed": seed,
            "topn": args.topn,
            "tau_max": args.tau_max,
            "n_permutations": args.n_permutations,
            "p_hide": args.p_hide,
            "grid_spec": real.spec.to_dict(),
            "sampling_period": real.sampling_period,
        },
        "topn": top.to_dict(),
        "mmd": mmd.to_dict(),
        "mi_decay": {"real": mi_real.to_dict(), "synthetic": mi_syn.to_dict()},
        "privacy": priv,
        "timings": timings,
    }
    report_path = os.path.join(outdir, "report.json")
    dataio.write_json(report, report_path, indent=1)
    _write_plotting_csvs(outdir, top, mmd, mi_real, mi_syn)
    print(f"evaluation report -> {report_path}")
    return EXIT_OK


def cmd_attack(args) -> int:
    seed = _require_seed(args)
    privacy.check_p_hide(args.p_hide, attack=True)
    syn = dataio.load_corpus(args.syn)
    targets, n_members = dataio.load_targets(args.targets, syn.spec, syn.sampling_period)
    priv, mem = privacy.battery(syn, targets, args.p_hide, np.random.default_rng(seed),
                                targets, n_members)
    dataio.write_json({"privacy": priv}, args.out, indent=1)
    scores_path = os.path.splitext(args.out)[0] + "_scores.csv"
    _write_membership_csv(scores_path, mem)
    print(f"privacy result -> {args.out}")
    return EXIT_OK


def _write_membership_csv(path, mem):
    rows = [(i, 1, s) for i, s in enumerate(mem.member_scores.tolist())]
    rows += [(i, 0, s) for i, s in enumerate(mem.nonmember_scores.tolist())]
    dataio.write_table(path, ["target_index", "is_member", "score"], rows)


def _write_plotting_csvs(outdir, top, mmd, mi_real, mi_syn):
    dataio.write_table(os.path.join(outdir, "topn.csv"), ["rank", "cell", "real_p", "syn_p"],
                       top.plotting_rows())
    dataio.write_table(os.path.join(outdir, "mmd_permutations.csv"), ["perm_mmd2_unbiased"],
                       zip(mmd.perm_stats.tolist()))
    for name, mi in (("mi_real.csv", mi_real), ("mi_syn.csv", mi_syn)):
        dataio.write_table(os.path.join(outdir, name), ["tau", "mi_bits"],
                           zip(mi.lags.tolist(), mi.mi_bits.tolist()))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mobsynth",
                                     description="copula-based synthetic mobility pipeline")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (mandatory where sampling occurs)")
    parser.add_argument("--config", default=None, help="flat key=value config file; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid(p):
        p.add_argument("--bbox", default=DEFAULT_BBOX, help="lat_min,lat_max,lon_min,lon_max")
        p.add_argument("--level", type=int, default=8, help="grid subdivision level")

    p = sub.add_parser("simulate", help="seeded ground-truth corpus")
    add_grid(p)
    p.add_argument("--out", required=True)
    p.add_argument("--users", type=int, default=50)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--hotspots", type=int, default=286)
    p.add_argument("--period", type=int, default=600)
    p.add_argument("--start-time", type=int, default=0)
    p.add_argument("--population-seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ingest", help="raw CSV -> regularized corpus")
    add_grid(p)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--period", type=int, default=600)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fit", help="fit a generator model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model-type", choices=["vine", "markov"], default="vine")
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=4,
                   help="vine lag window: orders the path and sets the start-window length")
    p.add_argument("--trunc-level", type=int, default=2,
                   help="vine truncation depth k; the D-vine is fitted over the last "
                        "k + 1 path variables")
    p.add_argument("--max-scores", type=int, default=25000,
                   help="cap on kernel centers per pair copula")
    p.add_argument("--bandwidth-scale", type=float, default=0.00625)
    p.add_argument("--max-rows", type=int, default=25000,
                   help="cap on lag rows used for the vine fit")
    p.add_argument("--order", type=int, default=1, help="markov order")
    p.add_argument("--time-buckets", type=int, default=24)
    p.add_argument("--alpha", type=float, default=0.01)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("generate", help="synthesize a corpus from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-traces", type=int, required=True)
    p.add_argument("--trace-len", type=int, required=True)
    p.add_argument("--start-time", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="full metric battery real vs synthetic")
    p.add_argument("--real", required=True)
    p.add_argument("--syn", required=True)
    p.add_argument("--outdir", default=None)
    p.add_argument("--topn", type=int, default=50)
    p.add_argument("--tau-max", type=int, default=20)
    p.add_argument("--n-permutations", type=int, default=500)
    p.add_argument("--p-hide", type=float, default=0.3,
                   help="probability of hiding each point, in (0, 1]")
    p.add_argument("--targets", default=None, help="optional labeled targets CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("attack", help="privacy battery against a synthetic corpus")
    p.add_argument("--syn", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--p-hide", type=float, default=0.3,
                   help="probability of hiding each point, in (0, 1]")
    p.set_defaults(func=cmd_attack)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, parser, argv)
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single CLI error boundary
        for exc_type, code in _EXIT_CODES:
            if isinstance(exc, exc_type):
                print(f"error code={code} type={type(exc).__name__} msg={exc}", file=sys.stderr)
                return code
        print(f"error code={EXIT_ERROR} type={type(exc).__name__} msg={exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
