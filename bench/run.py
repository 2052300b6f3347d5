"""Pipeline benchmark: ingest -> fit -> generate -> evaluate -> attack.

    python3 bench/run.py --workload vine-acceptance --seed 101 --seconds 25 --trace 0

Each stage is one in-process call of ``mobsynth.cli.main`` with the argv a
user would type.  A run builds the workload's inputs from the seed, then
repeats whole passes of the five stages until ``--seconds`` have passed
(at least two passes, whose outputs must be byte-identical), checks the
outputs against computations made apart from the program, and prints one
JSON line last.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
times the calls into each module's entry points and reports per-layer
metrics (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# one process, one BLAS thread: load stays within nproc and runs are steadier
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MOBSYNTH_OUTDIR", None)  # would override --outdir

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

STAGES = ("ingest", "fit", "generate", "evaluate", "attack")
SETUP_REPEATS = 3
MIN_PASSES = 2


def _import_program():
    if not (ROOT / "src" / "mobsynth" / "__init__.py").is_file():
        sys.exit(f"bench: no mobsynth sources under {ROOT / 'src'}; "
                 "run from the root of a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))


def stage_argvs(w, seed: int, inputs, d: Path) -> dict:
    return {
        "ingest": ["ingest", "--input", inputs.raw_path, "--out", f"{d}/train.csv"],
        "fit": ["--seed", str(seed), "fit", "--corpus", f"{d}/train.csv",
                "--model-type", w.model_type, "--out", f"{d}/model.json", *w.fit_args],
        "generate": ["--seed", str(seed + 1), "generate", "--model", f"{d}/model.json",
                     "--out", f"{d}/syn.csv", "--n-traces", str(w.gen_traces),
                     "--trace-len", str(w.gen_steps)],
        "evaluate": ["--seed", str(seed + 2), "evaluate", "--real", f"{d}/train.csv",
                     "--syn", f"{d}/syn.csv", "--outdir", f"{d}/report",
                     "--n-permutations", str(w.n_permutations)],
        "attack": ["--seed", str(seed + 3), "attack", "--syn", f"{d}/syn.csv",
                   "--targets", inputs.targets_path, "--out", f"{d}/priv.json"],
    }


def output_digest(d: Path) -> dict:
    """sha256 of every file a pass writes; report.json without its timings."""
    digests = {}
    for path in sorted(p for p in d.rglob("*") if p.is_file()):
        rel = str(path.relative_to(d))
        if rel in ("raw.csv", "targets.csv"):
            continue
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report.pop("timings", None)
            data = json.dumps(report, sort_keys=True).encode()
        digests[rel] = hashlib.sha256(data).hexdigest()
    return digests


def run_stage(cli, argv, tracer=None):
    """(seconds, exit code) of one CLI call; its stdout is discarded."""
    sink = io.StringIO()
    gc.collect()  # each stage starts without the garbage of the one before
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(sink), span:
        t0 = time.perf_counter()
        code = cli.main(argv)
        return time.perf_counter() - t0, code


def run_pass(cli, argvs, tracer=None):
    """({stage: seconds}, stages failed) of one pass; a failed stage ends the
    pass and the stages it leaves undone count as failed too."""
    times = {}
    for k, stage in enumerate(STAGES):
        times[stage], code = run_stage(cli, argvs[stage], tracer)
        if code != 0:
            print(f"bench: stage {stage} exited {code}", file=sys.stderr)
            return times, len(STAGES) - k
    return times, 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    from mobsynth import cli
    import checks
    from workloads import WORKLOADS, build_inputs

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    workdir = OUT / f"{w.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    tracer = None
    if args.trace:
        from tracer import Tracer, install_entry_points
        tracer = Tracer()

    try:
        if tracer:
            restore = install_entry_points(tracer)
        setup_times = []

        def set_up():
            t0 = time.perf_counter()
            built = build_inputs(w, args.seed, str(workdir))
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                tracer.end_round("setup")
            return built

        for _ in range(SETUP_REPEATS):
            inputs = set_up()
        argvs = stage_argvs(w, args.seed, inputs, workdir)
        # the benchmark's own long-lived objects stay out of the stages' GC passes
        gc.collect()
        gc.freeze()

        attempted = failed = 0
        passes, digests = [], []
        untraced = None
        t_start = time.perf_counter()
        if tracer:
            # one untraced pass gives the tracing overhead
            restore()
            untraced, failed = run_pass(cli, argvs)
            attempted += len(STAGES)
            digests.append(output_digest(workdir))
            restore = install_entry_points(tracer)
        while not failed:
            if passes:
                set_up()  # set-up samples spread over the run, like the passes
            times, failed = run_pass(cli, argvs, tracer)
            attempted += len(STAGES)
            if tracer:
                tracer.end_round("pipeline")
            if failed:
                break
            passes.append(times)
            digests.append(output_digest(workdir))
            print("bench: pass " + " ".join(f"{k}={v:.3f}" for k, v in times.items()),
                  file=sys.stderr)
            if (len(digests) >= MIN_PASSES
                    and time.perf_counter() - t_start >= args.seconds):
                break
        if not passes:
            print("bench: no pass completed", file=sys.stderr)
            return 1
        print("bench: setup " + " ".join(f"{t:.3f}" for t in setup_times), file=sys.stderr)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            restore()

        # byte-identical outputs in every pass of one seed
        for d in digests[1:]:
            attempted += 1
            if d != digests[0]:
                failed += 1
                bad = sorted(k for k in set(d) | set(digests[0]) if d.get(k) != digests[0].get(k))
                print(f"bench: outputs differ between passes: {bad}", file=sys.stderr)

        results = checks.run_all(w, inputs, workdir) if not failed else {}
        attempted += len(results)
        for name, (ok, detail) in results.items():
            print(f"check {name}: {'ok' if ok else 'FAIL'} ({detail})", file=sys.stderr)
            failed += 0 if ok else 1
        correct = bool(results) and all(ok for ok, _ in results.values())

        if tracer:
            metrics = tracer.per_layer_metrics(passes, untraced)
            metrics["dataio.model_mb"] = {
                "value": (workdir / "model.json").stat().st_size / 1e6, "unit": "MB"}
            tracer.write(OUT / f"trace-{w.name}-s{args.seed}.json", metrics)
        else:
            metrics = end_to_end_metrics(passes, setup_times, peak_rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"bench: {w.name} seed={args.seed} passes={len(passes)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def end_to_end_metrics(passes, setup_times, peak_rss_mb) -> dict:
    m = {"setup_s": (statistics.median(setup_times), "s"),
         "pipeline_s": (statistics.median(sum(r.values()) for r in passes), "s"),
         "peak_rss_mb": (peak_rss_mb, "MB")}
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


if __name__ == "__main__":
    sys.exit(main())
