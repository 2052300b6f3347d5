import argparse
import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mobsynth import cli, dataio, generators, metrics
from mobsynth.cli import (EXIT_DOMAIN, EXIT_INCOMPATIBLE, EXIT_NOT_FOUND,
                          EXIT_OK, EXIT_PARSE, EXIT_USAGE, main, read_config)
from mobsynth.errors import ParseError
from mobsynth.geogrid import GridSpec, decode


def run(*argv):
    return main(list(argv))


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "real.csv"
    assert run("--seed", "1", "simulate", "--out", str(path),
               "--users", "8", "--steps", "150", "--hotspots", "10") == EXIT_OK
    return path


@pytest.fixture(scope="module")
def vine_model_text(tmp_path_factory):
    d = tmp_path_factory.mktemp("vine")
    corpus, model = d / "real.csv", d / "vine.json"
    assert run("--seed", "1", "simulate", "--out", str(corpus),
               "--users", "8", "--steps", "150", "--hotspots", "10") == EXIT_OK
    assert run("--seed", "2", "fit", "--corpus", str(corpus), "--max-scores", "150",
               "--out", str(model)) == EXIT_OK
    return model.read_text()


class TestSimulate:
    def test_writes_corpus_and_sidecar(self, corpus_file):
        assert corpus_file.exists()
        assert os.path.exists(f"{corpus_file}.meta.json")
        corpus = dataio.load_corpus(corpus_file)
        assert len(corpus) == 8

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("--seed", "9", "simulate", "--out", str(out),
                       "--users", "4", "--steps", "60", "--hotspots", "8") == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.meta.json").read_bytes() == \
            (tmp_path / "b.csv.meta.json").read_bytes()

    def test_seed_required(self, tmp_path):
        assert run("simulate", "--out", str(tmp_path / "x.csv")) == EXIT_DOMAIN

    def test_no_users_is_domain_error(self, tmp_path):
        assert run("--seed", "1", "simulate", "--out", str(tmp_path / "x.csv"),
                   "--users", "0") == EXIT_DOMAIN

    @pytest.mark.parametrize("period", ["0", "-600"])
    def test_non_positive_period_is_domain_error(self, tmp_path, capsys, period):
        out = tmp_path / "x.csv"
        assert run("--seed", "1", "simulate", "--out", str(out),
                   "--period", period) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "sampling_period" in err and "timestamps" not in err
        assert not out.exists()

    def test_period_past_int64_with_one_step_is_domain_error(self, tmp_path, capsys):
        # one timestamp never reaches the period, which is checked all the same
        out = tmp_path / "x.csv"
        assert run("--seed", "1", "simulate", "--out", str(out), "--steps", "1",
                   "--period", "100000000000000000000") == EXIT_DOMAIN
        assert "sampling_period must be in [1, 2^63 - 1]" in capsys.readouterr().err
        assert not out.exists()

    # the last of 3 timestamps 600 s apart is 393 s past 2^63 - 1
    @pytest.mark.parametrize("start", ["-5", "9223372036854775000"])
    def test_start_time_off_the_int64_grid_is_domain_error(self, tmp_path, capsys, start):
        out = tmp_path / "x.csv"
        assert run("--seed", "1", "simulate", "--out", str(out), f"--start-time={start}",
                   "--users", "2", "--steps", "3", "--hotspots", "3") == EXIT_DOMAIN
        assert "start_time" in capsys.readouterr().err
        assert not out.exists()

    # 74.5 GiB of cells, and more users than a corpus has grid points
    @pytest.mark.parametrize("users, steps", [("100000", "100000"),
                                              ("100000000000000000000", "2")])
    def test_corpus_past_max_grid_points_is_domain_error(self, tmp_path, capsys,
                                                         users, steps):
        out = tmp_path / "x.csv"
        assert run("--seed", "1", "simulate", "--out", str(out), "--users", users,
                   "--steps", steps) == EXIT_DOMAIN
        assert "100000000 grid points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bbox, message", [("-inf,inf,0,1", "need finite lat_min"),
                                               ("0,1,0,nan", "need finite lon_min"),
                                               ("a,b,c,d", "--bbox expects"),
                                               ("0,1,0", "--bbox expects")])
    def test_bad_bbox_is_domain_error(self, tmp_path, capsys, bbox, message):
        out = tmp_path / "x.csv"
        assert run("--seed", "1", "simulate", "--out", str(out), f"--bbox={bbox}",
                   "--users", "2", "--steps", "5", "--hotspots", "3") == EXIT_DOMAIN
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestIngest:
    def test_roundtrip(self, tmp_path, corpus_file):
        out = tmp_path / "ingested.csv"
        assert run("ingest", "--input", str(corpus_file),
                   "--out", str(out)) == EXIT_OK
        assert dataio.load_corpus(out).n_points() == \
            dataio.load_corpus(corpus_file).n_points()

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id,timestamp,lat,lon\nu1,notanumber,46,7\n")
        assert run("ingest", "--input", str(bad),
                   "--out", str(tmp_path / "o.csv")) == EXIT_PARSE

    def test_timestamp_beyond_int64_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id,timestamp,lat,lon\nu1,0,46.0,7.0\n"
                       "u1,100000000000000000000,46.0,7.0\n")
        assert run("ingest", "--input", str(bad),
                   "--out", str(tmp_path / "o.csv")) == EXIT_PARSE
        assert "line 3" in capsys.readouterr().err

    def test_largest_int64_timestamp_stays_on_the_grid(self, tmp_path):
        top = 2 ** 63 - 1
        raw = tmp_path / "raw.csv"
        raw.write_text(f"user_id,timestamp,lat,lon\nu1,{top - 600},46.0,7.0\n"
                       f"u1,{top},46.1,7.0\n")
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no wrapped int64 arithmetic
            assert run("ingest", "--input", str(raw), "--out", str(out)) == EXIT_OK
        trace, = dataio.load_corpus(out).traces
        assert trace.timestamps.tolist() == [top - 600, top]
        assert trace.cells[0] != trace.cells[1]

    def test_absurd_time_span_is_domain_error(self, tmp_path, capsys):
        # 15 quadrillion grid points: refused before any grid is allocated
        raw = tmp_path / "raw.csv"
        raw.write_text("u1,0,46.0,7.0\nu1,9223372036854775000,46.0,7.0\n")
        assert run("ingest", "--input", str(raw),
                   "--out", str(tmp_path / "o.csv")) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "'u1'" in err and "15372286728091292 grid points" in err

    def test_period_past_int64_is_domain_error(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "o.csv"
        assert run("ingest", "--input", str(corpus_file), "--out", str(out),
                   "--period", "100000000000000000000") == EXIT_DOMAIN
        assert "sampling_period must be in [1, 2^63 - 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exit_code(self, tmp_path):
        assert run("ingest", "--input", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o.csv")) == EXIT_NOT_FOUND

    @pytest.mark.parametrize("kind", ["ingest", "corpus", "targets"])
    def test_non_utf8_input_is_parse_error(self, tmp_path, corpus_file, capsys, kind):
        # a Latin-1 e-acute in a user id, on line 4 of the file
        text = corpus_file.read_bytes()
        head = b"".join(text.splitlines(keepends=True)[:3])
        bad = tmp_path / "bad.csv"
        if kind == "targets":
            lines = [line.rstrip(b"\r\n") + b",1\r\n" for line in head.splitlines()[1:]]
            bad.write_bytes(b"user_id,timestamp,lat,lon,is_member\r\n" + b"".join(lines)
                            + b"u\xe9,0,46.0,7.0,1\r\n")
            argv = ["--seed", "9", "attack", "--syn", str(corpus_file), "--targets",
                    str(bad), "--out", str(tmp_path / "p.json")]
        else:
            bad.write_bytes(head + b"u\xe9,0,46.0,7.0\r\n")
            (tmp_path / "bad.csv.meta.json").write_bytes(
                (tmp_path / "real.csv.meta.json").read_bytes())
            argv = (["ingest", "--input", str(bad), "--out", str(tmp_path / "o.csv")]
                    if kind == "ingest" else
                    ["fit", "--corpus", str(bad), "--model-type", "markov",
                     "--out", str(tmp_path / "m.json")])
        assert run(*argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "type=ParseError" in err and "line 4:" in err and "0xe9" in err


class TestFitGenerate:
    def test_markov_pipeline(self, tmp_path, corpus_file):
        model = tmp_path / "markov.json"
        syn = tmp_path / "syn.csv"
        assert run("fit", "--corpus", str(corpus_file), "--model-type",
                   "markov", "--order", "1", "--out", str(model)) == EXIT_OK
        assert run("--seed", "3", "generate", "--model", str(model),
                   "--out", str(syn), "--n-traces", "6",
                   "--trace-len", "80") == EXIT_OK
        out = dataio.load_corpus(syn)
        assert len(out) == 6
        assert all(len(t) == 80 for t in out.traces)

    def test_vine_pipeline(self, tmp_path, corpus_file):
        model = tmp_path / "vine.json"
        syn = tmp_path / "syn.csv"
        assert run("--seed", "2", "fit", "--corpus", str(corpus_file),
                   "--model-type", "vine", "--max-scores", "150",
                   "--out", str(model)) == EXIT_OK
        envelope = json.loads(model.read_text())
        assert envelope["model_type"] == "vine"
        assert run("--seed", "3", "generate", "--model", str(model),
                   "--out", str(syn), "--n-traces", "5",
                   "--trace-len", "40") == EXIT_OK
        assert len(dataio.load_corpus(syn)) == 5

    def test_generation_is_seed_deterministic(self, tmp_path, corpus_file):
        model = tmp_path / "m.json"
        run("fit", "--corpus", str(corpus_file), "--model-type", "markov",
            "--out", str(model))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run("--seed", "4", "generate", "--model", str(model),
                "--out", str(out), "--n-traces", "3", "--trace-len", "50")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("order", ["60", "100000000000000000000"])
    def test_order_past_the_longest_trace_is_domain_error(self, tmp_path, capsys,
                                                          monkeypatch, order):
        # 60 steps hold transitions of order 59 at most; the larger order
        # built one count table per order and ran for minutes
        corpus, model = tmp_path / "real.csv", tmp_path / "m.json"
        assert run("--seed", "1", "simulate", "--out", str(corpus), "--users", "4",
                   "--steps", "60", "--hotspots", "8") == EXIT_OK
        assert run("fit", "--corpus", str(corpus), "--model-type", "markov",
                   "--order", "59", "--out", str(model)) == EXIT_OK
        model.unlink()

        def no_fit(*args, **kwargs):
            raise AssertionError("the order is refused before the fit starts")

        monkeypatch.setattr(generators.MarkovGenerator, "fit", no_fit)
        capsys.readouterr()
        assert run("fit", "--corpus", str(corpus), "--model-type", "markov",
                   "--order", order, "--out", str(model)) == EXIT_DOMAIN
        assert f"--order {order} must be below the longest trace's length 60" in \
            capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("buckets", ["0", "-3"])
    def test_non_positive_time_buckets_is_domain_error(self, tmp_path, corpus_file,
                                                        capsys, buckets):
        model = tmp_path / "m.json"
        assert run("fit", "--corpus", str(corpus_file), "--model-type", "markov",
                   "--time-buckets", buckets, "--out", str(model)) == EXIT_DOMAIN
        assert "time_buckets" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("buckets", ["86401", "100000000000000000000"])
    def test_time_buckets_finer_than_a_second_is_domain_error(self, tmp_path, corpus_file,
                                                              capsys, buckets):
        model = tmp_path / "m.json"
        assert run("fit", "--corpus", str(corpus_file), "--model-type", "markov",
                   "--time-buckets", buckets, "--out", str(model)) == EXIT_DOMAIN
        assert "time_buckets must be in [1, 86400]" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("flags, name", [
        (["--max-scores", "1"], "max_scores"),
        (["--max-rows", "-1"], "max_rows"),
        (["--trunc-level", "0"], "trunc_level"),
        (["--bandwidth-scale", "inf"], "bandwidth"),
        (["--model-type", "markov", "--alpha", "nan"], "alpha"),
        (["--model-type", "markov", "--alpha", "inf"], "alpha"),
        (["--model-type", "markov", "--alpha", "1.7e308"], "alpha"),
    ])
    def test_unusable_fit_flag_is_domain_error(self, tmp_path, corpus_file, capsys,
                                               flags, name):
        model = tmp_path / "m.json"
        assert run("--seed", "2", "fit", "--corpus", str(corpus_file), *flags,
                   "--out", str(model)) == EXIT_DOMAIN
        assert name in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("damage", ["missing_key", "short_array", "wrong_columns",
                                        "symbol_out_of_range", "zero_count",
                                        "repeated_row", "unsorted_rows", "old_layout",
                                        "order_not_integer", "time_buckets_zero",
                                        "alpha_string", "alpha_negative",
                                        "level_string", "sampling_period_string",
                                        "sampling_period_missing", "envelope_list",
                                        "alphabet_2d", "alphabet_float",
                                        "alphabet_unsorted", "alphabet_duplicate",
                                        "alphabet_past_grid", "time_buckets_huge",
                                        "bucket_past_time_buckets", "global_counts_short",
                                        "global_counts_negative", "no_payload",
                                        "no_model_type"])
    def test_malformed_model_is_parse_error(self, tmp_path, corpus_file, damage,
                                            capsys):
        model = tmp_path / "m.json"
        run("fit", "--corpus", str(corpus_file), "--model-type", "markov",
            "--out", str(model))
        envelope = json.loads(model.read_text())
        payload = envelope["payload"]
        order1 = dataio.decode_array(payload["counts"][1])
        alphabet = dataio.decode_array(payload["alphabet"])
        if damage == "missing_key":
            del payload["alphabet"]
        elif damage == "short_array":
            payload["alphabet"]["shape"][0] += 1
        elif damage == "wrong_columns":
            payload["counts"][1] = dataio.encode_array(order1[:, :3])
        elif damage == "symbol_out_of_range":
            order1[0, 1] = 10 ** 6
            payload["counts"][1] = dataio.encode_array(order1)
        elif damage == "zero_count":
            order1[0, -1] = 0
            payload["counts"][1] = dataio.encode_array(order1)
        elif damage == "repeated_row":
            payload["counts"][1] = dataio.encode_array(order1[[0, 0]])
        elif damage == "unsorted_rows":
            payload["counts"][1] = dataio.encode_array(order1[::-1])
        elif damage == "order_not_integer":
            payload["order"] = "one"
        elif damage == "time_buckets_zero":
            payload["time_buckets"] = 0
        elif damage == "time_buckets_huge":
            payload["time_buckets"] = 10 ** 20
        elif damage == "bucket_past_time_buckets":
            order1[-1, 0] = payload["time_buckets"]
            payload["counts"][1] = dataio.encode_array(order1)
        elif damage.startswith("global_counts_"):
            counts = dataio.decode_array(payload["global_counts"])
            if damage == "global_counts_short":
                counts = counts[:-1]
            else:
                counts[0] = -1
            payload["global_counts"] = dataio.encode_array(counts)
        elif damage.startswith("no_"):
            del envelope[damage[3:]]
        elif damage == "alpha_string":
            payload["alpha"] = "0.01"
        elif damage == "alpha_negative":
            payload["alpha"] = -1
        elif damage == "level_string":
            envelope["grid_spec"]["level"] = "x"
        elif damage == "sampling_period_string":
            envelope["sampling_period"] = "abc"
        elif damage == "sampling_period_missing":
            del envelope["sampling_period"]
        elif damage == "envelope_list":
            envelope = [envelope]
        elif damage.startswith("alphabet_"):
            if damage == "alphabet_2d":
                alphabet = alphabet[:, None]
            elif damage == "alphabet_float":
                alphabet = alphabet.astype(float)
            elif damage == "alphabet_unsorted":
                alphabet = alphabet[::-1]
            elif damage == "alphabet_duplicate":
                alphabet[1] = alphabet[0]
            else:
                alphabet[-1] = GridSpec.from_dict(envelope["grid_spec"]).n_cells
            payload["alphabet"] = dataio.encode_array(alphabet)
        else:
            # the per-(bucket, context) entries of the earlier file layout
            payload["counts"] = [[{"bucket": 0, "context": [0] * k,
                                   "counts": payload["global_counts"]}]
                                 for k in range(2)]
        model.write_text(json.dumps(envelope))
        assert run("--seed", "1", "generate", "--model", str(model),
                   "--out", str(tmp_path / "s.csv"), "--n-traces", "2",
                   "--trace-len", "10") == EXIT_PARSE
        field = {"order_not_integer": "payload.order",
                 "time_buckets_zero": "payload.time_buckets",
                 "time_buckets_huge": "payload.time_buckets: expected an integer in [1, 86400]",
                 "bucket_past_time_buckets": "payload.counts[1]: bucket outside [0, 24)",
                 "global_counts_short": "payload.global_counts",
                 "global_counts_negative": "payload.global_counts",
                 "no_payload": "missing key 'payload'",
                 "no_model_type": "missing key 'model_type'",
                 "alpha_string": "payload.alpha", "alpha_negative": "payload.alpha",
                 "level_string": "grid_spec.level",
                 "sampling_period_string": "sampling_period",
                 "sampling_period_missing": "sampling_period",
                 "envelope_list": "JSON object"}.get(damage, "payload.counts")
        if damage.startswith("alphabet_") or damage in ("missing_key", "short_array"):
            field = "payload.alphabet"
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("damage, field", [
        ("bandwidth_string", "payload.trees[0][0].bandwidth"),
        ("bandwidth_negative", "payload.trees[0][1]"),
        ("trees_not_list", "payload.trees"),
        ("tree_short", "payload.trees"),
        ("scores_shape", "payload.trees[1][0].scores"),
        ("scores_3_columns", "payload.trees[0][0]: scores"),
        ("scores_nan", "payload.trees[0][0]: scores"),
        ("scores_no_rows", "payload.trees[0][0]: scores"),
        ("window_string", "payload.window"),
        ("window_9", "payload.start_windows"),
        # once every path variable of the window got a name: 10^20 ran for minutes
        ("window_1e12", "payload.start_windows"),
        ("window_1e20", "payload.start_windows"),
        ("margins_short", "payload.margins"),
        ("margin_nan", "payload.margins[2]"),
        ("var_names_renamed", "payload.var_names"),
        ("var_names_past_window", "payload.var_names"),
        ("var_names_not_a_suffix", "payload.var_names"),
        ("start_windows_1d", "payload.start_windows"),
        ("start_cell_past_grid", "payload.start_windows"),
        ("start_hour_24", "payload.start_windows"),
    ])
    def test_malformed_vine_model_is_parse_error(self, tmp_path, vine_model_text, damage,
                                                 field, capsys):
        envelope = json.loads(vine_model_text)
        payload = envelope["payload"]
        margin = dataio.decode_array(payload["margins"][2])
        starts = dataio.decode_array(payload["start_windows"])
        if damage == "bandwidth_string":
            payload["trees"][0][0]["bandwidth"] = "x"
        elif damage == "bandwidth_negative":
            payload["trees"][0][1]["bandwidth"] = -0.1
        elif damage == "trees_not_list":
            payload["trees"] = 5
        elif damage == "tree_short":
            payload["trees"][1].pop()
        elif damage == "scores_shape":
            edge = payload["trees"][1][0]
            edge["scores"] = dataio.encode_array(dataio.decode_array(edge["scores"]).ravel())
        elif damage.startswith("scores_"):
            edge = payload["trees"][0][0]
            scores = dataio.decode_array(edge["scores"])
            if damage == "scores_3_columns":
                scores = np.column_stack([scores, scores[:, 0]])
            elif damage == "scores_nan":
                scores[0, 1] = np.nan
            else:
                scores = scores[:0]
            edge["scores"] = dataio.encode_array(scores)
        elif damage == "window_string":
            payload["window"] = "a"
        elif damage.startswith("window_"):
            payload["window"] = {"window_9": 9, "window_1e12": 10 ** 12,
                                 "window_1e20": 10 ** 20}[damage]
        elif damage == "margins_short":
            payload["margins"].pop()
        elif damage == "margin_nan":
            margin[5] = np.nan
            payload["margins"][2] = dataio.encode_array(margin)
        elif damage == "var_names_renamed":
            payload["var_names"][0] = "x0"
        elif damage == "var_names_past_window":
            # the 7 names of window 5 are one more than window 4 has
            payload["var_names"] = ["pos_lag5", "pos_lag4", "pos_lag3", "pos_lag2",
                                    "time_of_day", "pos_lag1", "pos"]
        elif damage == "var_names_not_a_suffix":
            payload["var_names"] = ["pos_lag2", "pos_lag1", "pos"]
        elif damage == "start_windows_1d":
            payload["start_windows"] = dataio.encode_array(starts[0])
        else:
            if damage == "start_cell_past_grid":
                starts[0, 0] = GridSpec.from_dict(envelope["grid_spec"]).n_cells
            else:
                starts[0, -1] = 24
            payload["start_windows"] = dataio.encode_array(starts)
        model = tmp_path / "m.json"
        model.write_text(json.dumps(envelope))
        assert run("--seed", "1", "generate", "--model", str(model),
                   "--out", str(tmp_path / "s.csv"), "--n-traces", "2",
                   "--trace-len", "10") == EXIT_PARSE
        assert field in capsys.readouterr().err

    # the last of 6 timestamps 600 s apart is 2,193 s past 2^63 - 1
    @pytest.mark.parametrize("model_type", ["markov", "vine"])
    @pytest.mark.parametrize("start", ["-5", "9223372036854775000"])
    def test_start_time_off_the_int64_grid_is_domain_error(self, tmp_path, corpus_file,
                                                           vine_model_text, capsys,
                                                           model_type, start):
        model, syn = tmp_path / "m.json", tmp_path / "syn.csv"
        if model_type == "vine":
            model.write_text(vine_model_text)
        else:
            assert run("fit", "--corpus", str(corpus_file), "--model-type", "markov",
                       "--out", str(model)) == EXIT_OK
        capsys.readouterr()
        assert run("--seed", "3", "generate", "--model", str(model), "--out", str(syn),
                   "--n-traces", "2", "--trace-len", "6",
                   f"--start-time={start}") == EXIT_DOMAIN
        assert "start_time" in capsys.readouterr().err
        assert not syn.exists()

    # both files once generated a corpus of a few cells and exited 0: every
    # bandwidth at 1e-300 turned the kernel weights NaN, and alpha * V at
    # 1.7e308 overflowed, making every smoothed probability 0
    @pytest.mark.parametrize("model_type, field", [("vine", "payload.trees[0][0]"),
                                                   ("markov", "payload.alpha")])
    def test_model_whose_kernels_overflow_is_parse_error(self, tmp_path, capsys,
                                                         model_type, field):
        corpus, model, syn = tmp_path / "real.csv", tmp_path / "m.json", tmp_path / "syn.csv"
        assert run("--seed", "1", "simulate", "--out", str(corpus), "--users", "6",
                   "--steps", "60", "--hotspots", "10") == EXIT_OK
        assert run("--seed", "2", "fit", "--corpus", str(corpus), "--model-type",
                   model_type, "--out", str(model)) == EXIT_OK
        generate = ("--seed", "3", "generate", "--model", str(model), "--out", str(syn),
                    "--n-traces", "20", "--trace-len", "60")
        assert run(*generate) == EXIT_OK
        syn.unlink()
        envelope = json.loads(model.read_text())
        if model_type == "vine":
            for level in envelope["payload"]["trees"]:
                for edge in level:
                    edge["bandwidth"] = 1e-300
        else:
            envelope["payload"]["alpha"] = 1.7e308
        model.write_text(json.dumps(envelope))
        capsys.readouterr()
        assert run(*generate) == EXIT_PARSE
        assert field in capsys.readouterr().err
        assert not syn.exists()

    @pytest.mark.parametrize("model_type", ["markov", "vine"])
    @pytest.mark.parametrize("n_traces, trace_len", [("1000000", "1000000"),
                                                     ("100000000000000000000", "10")])
    def test_corpus_past_max_grid_points_is_domain_error(self, tmp_path, corpus_file,
                                                         vine_model_text, capsys,
                                                         model_type, n_traces, trace_len):
        model, syn = tmp_path / "m.json", tmp_path / "syn.csv"
        if model_type == "vine":
            model.write_text(vine_model_text)
        else:
            assert run("fit", "--corpus", str(corpus_file), "--model-type", "markov",
                       "--out", str(model)) == EXIT_OK
        capsys.readouterr()
        assert run("--seed", "3", "generate", "--model", str(model), "--out", str(syn),
                   "--n-traces", n_traces, "--trace-len", trace_len) == EXIT_DOMAIN
        assert "100000000 grid points" in capsys.readouterr().err
        assert not syn.exists()

    def test_model_not_found(self, tmp_path):
        assert run("--seed", "1", "generate", "--model",
                   str(tmp_path / "nope.json"), "--out",
                   str(tmp_path / "s.csv"), "--n-traces", "2",
                   "--trace-len", "10") == EXIT_NOT_FOUND


def _make_syn(tmp_path, corpus_file, seed="5"):
    model = tmp_path / "m.json"
    syn = tmp_path / "syn.csv"
    run("fit", "--corpus", str(corpus_file), "--model-type", "markov",
        "--out", str(model))
    run("--seed", seed, "generate", "--model", str(model), "--out", str(syn),
        "--n-traces", "8", "--trace-len", "150")
    return syn


def _targets_file(tmp_path, member_corpus, nonmember_corpus):
    path = tmp_path / "targets.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user_id", "timestamp", "lat", "lon", "is_member"])
        for corpus, flag in ((member_corpus, 1), (nonmember_corpus, 0)):
            loaded = dataio.load_corpus(corpus)
            for trace in loaded.traces:
                lat, lon = decode(loaded.spec, trace.cells)
                for ts, a, o in zip(trace.timestamps.tolist(), lat.tolist(), lon.tolist()):
                    w.writerow([f"{flag}_{trace.user_id}", ts, repr(a), repr(o), flag])
    return path


class TestSeed:
    @pytest.mark.parametrize("command", ["simulate", "population", "fit", "generate",
                                         "evaluate", "attack"])
    def test_negative_seed_is_domain_error(self, tmp_path, corpus_file, vine_model_text,
                                           capsys, command):
        model, out = tmp_path / "vine.json", tmp_path / "out"
        model.write_text(vine_model_text)
        argv = {
            "simulate": ["--seed", "-1", "simulate", "--out", str(out)],
            "population": ["--seed", "1", "simulate", "--out", str(out),
                           "--population-seed", "-1"],
            "fit": ["--seed", "-1", "fit", "--corpus", str(corpus_file), "--out", str(out)],
            "generate": ["--seed", "-1", "generate", "--model", str(model), "--out",
                         str(out), "--n-traces", "2", "--trace-len", "10"],
            "evaluate": ["--seed", "-1", "evaluate", "--real", str(corpus_file), "--syn",
                         str(corpus_file), "--outdir", str(out)],
            "attack": ["--seed", "-1", "attack", "--syn", str(corpus_file), "--targets",
                       str(corpus_file), "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert run(*argv) == EXIT_DOMAIN
        flag = "--population-seed" if command == "population" else "--seed"
        assert f"{flag} must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestCorpusSidecar:
    @pytest.mark.parametrize("damage, field", [
        ("no_grid_spec", "grid_spec"),
        ("no_sampling_period", "sampling_period"),
        ("sampling_period_string", "sampling_period"),
        ("sampling_period_zero", "sampling_period"),
        ("sampling_period_past_int64", "sampling_period: expected an integer in [1, 2^63 - 1]"),
        ("level_string", "grid_spec.level"),
        ("level_too_high", "level must be"),
        ("lat_min_missing", "grid_spec.lat_min"),
        ("not_an_object", "JSON object"),
    ])
    def test_malformed_sidecar_is_parse_error(self, tmp_path, corpus_file, capsys,
                                              damage, field):
        meta_file = tmp_path / "real.csv.meta.json"
        meta = json.loads(meta_file.read_text())
        if damage == "no_grid_spec":
            del meta["grid_spec"]
        elif damage == "no_sampling_period":
            del meta["sampling_period"]
        elif damage == "sampling_period_string":
            meta["sampling_period"] = "abc"
        elif damage == "sampling_period_zero":
            meta["sampling_period"] = 0
        elif damage == "sampling_period_past_int64":
            meta["sampling_period"] = 10 ** 20
        elif damage == "level_string":
            meta["grid_spec"]["level"] = "x"
        elif damage == "level_too_high":
            meta["grid_spec"]["level"] = 17
        elif damage == "lat_min_missing":
            del meta["grid_spec"]["lat_min"]
        else:
            meta = [meta]
        meta_file.write_text(json.dumps(meta))
        assert run("fit", "--corpus", str(corpus_file), "--model-type", "markov",
                   "--out", str(tmp_path / "m.json")) == EXIT_PARSE
        assert field in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


class TestEvaluate:
    def test_report_and_csvs(self, tmp_path, corpus_file, monkeypatch):
        syn = _make_syn(tmp_path, corpus_file)
        outdir = tmp_path / "report"
        monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
        assert run("--seed", "6", "evaluate", "--real", str(corpus_file),
                   "--syn", str(syn), "--outdir", str(outdir),
                   "--topn", "10", "--tau-max", "5",
                   "--n-permutations", "20") == EXIT_OK
        report = json.loads((outdir / "report.json").read_text())
        for block in ("topn", "mmd", "mi_decay", "privacy", "timings"):
            assert block in report
        assert report["privacy"]["membership"] == {"skipped": True}
        for name in ("topn.csv", "mmd_permutations.csv", "mi_real.csv",
                     "mi_syn.csv"):
            assert (outdir / name).exists()

    def test_undefined_metrics_are_null_in_strict_json(self, tmp_path, corpus_file,
                                                       monkeypatch):
        # no permutations leave no p-value, and two lags too few for an MI-decay fit
        syn = _make_syn(tmp_path, corpus_file)
        monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
        assert run("--seed", "6", "evaluate", "--real", str(corpus_file),
                   "--syn", str(syn), "--outdir", str(tmp_path / "report"),
                   "--tau-max", "2", "--n-permutations", "0") == EXIT_OK

        def refuse(name):
            raise ValueError(f"report.json holds the non-standard constant {name}")

        text = (tmp_path / "report" / "report.json").read_text(encoding="utf-8")
        report = json.loads(text, parse_constant=refuse)
        assert report["mmd"]["p_value"] is None
        assert report["mi_decay"]["real"]["exponential_r2"] is None

    @pytest.mark.parametrize("flags, name", [(["--topn", "0"], "topn"),
                                             (["--n-permutations", "-1"], "n_permutations"),
                                             (["--n-permutations", "100000000000000000000"],
                                              "n_permutations must be in [0, 1000000]"),
                                             (["--tau-max", "0"], "tau_max")])
    def test_flag_outside_domain_is_domain_error(self, tmp_path, corpus_file, monkeypatch,
                                                 capsys, flags, name):
        syn = _make_syn(tmp_path, corpus_file)
        outdir = tmp_path / "report"
        monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
        mmd_calls = []
        mmd_test = metrics.mmd_test
        monkeypatch.setattr(metrics, "mmd_test",
                            lambda *a, **k: mmd_calls.append(1) or mmd_test(*a, **k))
        capsys.readouterr()
        assert run("--seed", "6", "evaluate", "--real", str(corpus_file),
                   "--syn", str(syn), "--outdir", str(outdir), *flags) == EXIT_DOMAIN
        assert name in capsys.readouterr().err
        assert not outdir.exists()
        # every check that needs no draw runs before the permutation test
        assert len(mmd_calls) == name.startswith("n_permutations")

    @pytest.mark.parametrize("p_hide", ["1.5", "-0.1", "nan", "0"])
    def test_p_hide_outside_domain_fails_before_any_metric(self, tmp_path, corpus_file,
                                                           monkeypatch, capsys, p_hide):
        syn = _make_syn(tmp_path, corpus_file)
        outdir = tmp_path / "report"
        monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
        capsys.readouterr()
        assert run("--seed", "6", "evaluate", "--real", str(corpus_file),
                   "--syn", str(syn), "--outdir", str(outdir),
                   f"--p-hide={p_hide}") == EXIT_DOMAIN
        assert "p_hide" in capsys.readouterr().err
        # refused before the report directory is made, so before top-N runs
        assert not outdir.exists()

    @pytest.mark.parametrize("side", ["real", "syn"])
    def test_empty_corpus_is_domain_error(self, tmp_path, corpus_file, monkeypatch,
                                          capsys, side):
        # ingest of a header-only file writes a valid corpus with no traces
        raw, empty = tmp_path / "header.csv", tmp_path / "empty.csv"
        raw.write_text("user_id,timestamp,lat,lon\n")
        assert run("ingest", "--input", str(raw), "--out", str(empty)) == EXIT_OK
        corpora = {"real": corpus_file, "syn": _make_syn(tmp_path, corpus_file)}
        corpora[side] = empty
        outdir = tmp_path / "report"
        monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
        capsys.readouterr()
        assert run("--seed", "6", "evaluate", "--real", str(corpora["real"]),
                   "--syn", str(corpora["syn"]), "--outdir", str(outdir)) == EXIT_DOMAIN
        side_name = {"real": "real", "syn": "synthetic"}[side]
        assert f"the {side_name} corpus has no traces" in capsys.readouterr().err
        assert not outdir.exists()

    def test_outdir_env_override(self, tmp_path, corpus_file, monkeypatch):
        syn = _make_syn(tmp_path, corpus_file)
        outdir = tmp_path / "env_out"
        monkeypatch.setenv(cli.OUTDIR_ENV, str(outdir))
        assert run("--seed", "6", "evaluate", "--real", str(corpus_file),
                   "--syn", str(syn), "--tau-max", "4",
                   "--n-permutations", "10") == EXIT_OK
        assert (outdir / "report.json").exists()

    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_outdir_option_wins_over_env(self, tmp_path, corpus_file, monkeypatch, given):
        syn = _make_syn(tmp_path, corpus_file)
        outdir, env_dir = tmp_path / "given", tmp_path / "env_out"
        monkeypatch.setenv(cli.OUTDIR_ENV, str(env_dir))
        argv = ["--seed", "6", "evaluate", "--real", str(corpus_file), "--syn", str(syn),
                "--tau-max", "4", "--n-permutations", "10"]
        if given == "flag":
            argv += ["--outdir", str(outdir)]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"outdir = {outdir}\n")
            argv = ["--config", str(config)] + argv
        assert run(*argv) == EXIT_OK
        assert (outdir / "report.json").exists()
        assert not env_dir.exists()

    def test_spec_mismatch_is_incompatible(self, tmp_path, corpus_file):
        other = tmp_path / "other.csv"
        run("--seed", "1", "simulate", "--out", str(other), "--users", "6",
            "--steps", "100", "--hotspots", "8", "--level", "7")
        assert run("--seed", "2", "evaluate", "--real", str(corpus_file),
                   "--syn", str(other)) == EXIT_INCOMPATIBLE

    def test_membership_with_targets(self, tmp_path, corpus_file, monkeypatch):
        syn = _make_syn(tmp_path, corpus_file)
        other = tmp_path / "other.csv"
        run("--seed", "7", "simulate", "--out", str(other), "--users", "5",
            "--steps", "150", "--hotspots", "10")
        targets = _targets_file(tmp_path, corpus_file, other)
        outdir = tmp_path / "with_targets"
        monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
        assert run("--seed", "8", "evaluate", "--real", str(corpus_file),
                   "--syn", str(syn), "--outdir", str(outdir),
                   "--tau-max", "4", "--n-permutations", "10",
                   "--targets", str(targets)) == EXIT_OK
        report = json.loads((outdir / "report.json").read_text())
        assert "auc" in report["privacy"]["membership"]
        assert (outdir / "membership_scores.csv").exists()


class TestAttack:
    def test_attack_outputs(self, tmp_path, corpus_file):
        syn = _make_syn(tmp_path, corpus_file)
        other = tmp_path / "other.csv"
        run("--seed", "7", "simulate", "--out", str(other), "--users", "5",
            "--steps", "150", "--hotspots", "10")
        targets = _targets_file(tmp_path, corpus_file, other)
        out = tmp_path / "privacy.json"
        assert run("--seed", "9", "attack", "--syn", str(syn), "--targets",
                   str(targets), "--out", str(out)) == EXIT_OK
        result = json.loads(out.read_text())
        priv = result["privacy"]
        assert 0.0 <= priv["membership"]["auc"] <= 1.0
        assert 0.0 <= priv["sequence_attack_accuracy"] <= 1.0
        assert (tmp_path / "privacy_scores.csv").exists()

    @pytest.mark.parametrize("p_hide", ["0", "1.5"])
    def test_p_hide_outside_domain_fails_before_reading_input(self, tmp_path, corpus_file,
                                                              capsys, p_hide):
        out = tmp_path / "privacy.json"
        capsys.readouterr()
        assert run("--seed", "9", "attack", "--syn", str(corpus_file), "--targets",
                   str(tmp_path / "missing.csv"), "--out", str(out),
                   f"--p-hide={p_hide}") == EXIT_DOMAIN
        assert "p_hide" in capsys.readouterr().err
        assert not out.exists()

    def test_privacy_schema_matches_evaluate(self, tmp_path, corpus_file, monkeypatch):
        syn = _make_syn(tmp_path, corpus_file)
        other = tmp_path / "other.csv"
        run("--seed", "7", "simulate", "--out", str(other), "--users", "5",
            "--steps", "150", "--hotspots", "10")
        targets = _targets_file(tmp_path, corpus_file, other)
        outdir = tmp_path / "report"
        monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
        assert run("--seed", "8", "evaluate", "--real", str(corpus_file),
                   "--syn", str(syn), "--outdir", str(outdir),
                   "--tau-max", "4", "--n-permutations", "10",
                   "--targets", str(targets)) == EXIT_OK
        out = tmp_path / "priv.json"
        assert run("--seed", "9", "attack", "--syn", str(syn), "--targets",
                   str(targets), "--out", str(out)) == EXIT_OK
        report = json.loads((outdir / "report.json").read_text())["privacy"]
        priv = json.loads(out.read_text())["privacy"]
        assert set(report) == set(priv)
        assert set(report["membership"]) == set(priv["membership"])

    def test_target_id_with_both_labels_is_parse_error(self, tmp_path, corpus_file,
                                                       capsys):
        syn = _make_syn(tmp_path, corpus_file)
        targets = tmp_path / "targets.csv"
        loaded = dataio.load_corpus(corpus_file)
        with open(targets, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["user_id", "timestamp", "lat", "lon", "is_member"])
            for trace, flag in zip(loaded.traces[:2], (1, 0)):
                lat, lon = decode(loaded.spec, trace.cells)
                for ts, a, o in zip(trace.timestamps.tolist(), lat.tolist(), lon.tolist()):
                    w.writerow(["shared", ts, repr(a), repr(o), flag])
        first_nonmember_line = 2 + len(loaded.traces[0])
        assert run("--seed", "9", "attack", "--syn", str(syn), "--targets",
                   str(targets), "--out", str(tmp_path / "p.json")) == EXIT_PARSE
        assert f"line {first_nonmember_line}:" in capsys.readouterr().err


class TestFileLayer:
    """dataio writes every JSON file and table, and an input it cannot
    decode is a ParseError (exit 3), never exit 1."""

    def test_non_utf8_sidecar_is_parse_error(self, tmp_path, corpus_file, capsys):
        meta = tmp_path / "real.csv.meta.json"
        meta.write_bytes(meta.read_bytes().replace(b'"grid_spec"', b'"grid_sp\xe9c"'))
        assert run("fit", "--corpus", str(corpus_file), "--model-type", "markov",
                   "--out", str(tmp_path / "m.json")) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "type=ParseError" in err and "corrupted corpus metadata" in err

    def test_non_utf8_model_is_parse_error(self, tmp_path, corpus_file, capsys):
        model = tmp_path / "m.json"
        assert run("fit", "--corpus", str(corpus_file), "--model-type", "markov",
                   "--out", str(model)) == EXIT_OK
        model.write_bytes(model.read_bytes().replace(b'"payload"', b'"payl\xe9ad"'))
        assert run("--seed", "1", "generate", "--model", str(model), "--out",
                   str(tmp_path / "s.csv"), "--n-traces", "2",
                   "--trace-len", "10") == EXIT_PARSE
        err = capsys.readouterr().err
        assert "type=ParseError" in err and "corrupted model file" in err

    def test_non_utf8_config_line_is_parse_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"users=7\n# caf\xe9\n")
        out = tmp_path / "c.csv"
        assert run("--seed", "1", "--config", str(cfg), "simulate",
                   "--out", str(out)) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "type=ParseError" in err and "line 2:" in err and "0xe9" in err
        assert not out.exists()

    def test_oversize_field_is_parse_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("user_id,timestamp,lat,lon\nu1,0,46.0,7.0\n"
                       + "u" * 200_000 + ",600,46.0,7.0\n")
        assert run("ingest", "--input", str(raw),
                   "--out", str(tmp_path / "o.csv")) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "type=ParseError" in err and "line 3:" in err and "field limit" in err

    def test_every_json_file_is_written_one_way(self, tmp_path, corpus_file, monkeypatch):
        syn = _make_syn(tmp_path, corpus_file)
        other = tmp_path / "other.csv"
        assert run("--seed", "7", "simulate", "--out", str(other), "--users", "5",
                   "--steps", "150", "--hotspots", "10") == EXIT_OK
        targets = _targets_file(tmp_path, corpus_file, other)
        monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
        assert run("--seed", "8", "evaluate", "--real", str(corpus_file),
                   "--syn", str(syn), "--outdir", str(tmp_path / "report"),
                   "--tau-max", "4", "--n-permutations", "10",
                   "--targets", str(targets)) == EXIT_OK
        assert run("--seed", "9", "attack", "--syn", str(syn), "--targets",
                   str(targets), "--out", str(tmp_path / "priv.json")) == EXIT_OK
        indents = {"real.csv.meta.json": 1, "other.csv.meta.json": 1, "syn.csv.meta.json": 1,
                   "m.json": None, "report.json": 1, "priv.json": 1}
        written = {p.name: p for p in tmp_path.rglob("*.json")}
        assert set(written) == set(indents)
        for name, indent in indents.items():
            text = written[name].read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=indent, sort_keys=True) + "\n"
            assert json.loads(text)["format_version"] == dataio.FORMAT_VERSION
        # tables hold Python floats, never a numpy scalar's repr
        tables = list(tmp_path.rglob("*.csv"))
        assert len(tables) == 10
        assert not any("np." in p.read_text(encoding="utf-8") for p in tables)


class TestConfig:
    def test_read_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("users = 7   # comment\nsteps=90\n\n# full-line comment\n")
        assert read_config(cfg) == {"users": "7", "steps": "90"}

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("users 7\n")
        with pytest.raises(ParseError):
            read_config(cfg)

    @pytest.mark.parametrize("line, command", [
        ("users=abc", ["simulate"]), ("period=6e2", ["simulate"]),
        # a value outside the option's choices, as --model-type foo would be
        ("model_type=foo", ["fit", "--corpus", "missing.csv"])],
        ids=["users=abc", "period=6e2", "model_type=foo"])
    def test_config_value_of_wrong_type_is_parse_error(self, tmp_path, capsys, line, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert run("--seed", "1", "--config", str(cfg), *command,
                   "--out", str(tmp_path / "c.csv")) == EXIT_PARSE
        assert repr(line.split("=")[0]) in capsys.readouterr().err

    def test_config_fills_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("users=7\nsteps=90\n")
        out = tmp_path / "c.csv"
        assert run("--seed", "1", "--config", str(cfg), "simulate",
                   "--out", str(out), "--steps", "60") == EXIT_OK
        corpus = dataio.load_corpus(out)
        assert len(corpus) == 7                      # from config
        assert len(corpus.traces[0]) == 60           # flag beats config
        # a flag equal to its default beats the config too
        cfg.write_text("steps=60\nmodel_type=markov\nmax_scores=150\n")
        long_out, model = tmp_path / "long.csv", tmp_path / "model.json"
        assert run("--seed", "1", "--config", str(cfg), "simulate",
                   "--out", str(long_out), "--steps", "500", "--users", "2") == EXIT_OK
        assert len(dataio.load_corpus(long_out).traces[0]) == 500
        assert run("--seed", "2", "--config", str(cfg), "fit", "--corpus", str(out),
                   "--model-type", "vine", "--out", str(model)) == EXIT_OK
        assert json.loads(model.read_text())["model_type"] == "vine"

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("users=7\ntrace_lenn=30\n")
        with pytest.raises(SystemExit) as err:
            run("--seed", "1", "--config", str(cfg), "simulate",
                "--out", str(tmp_path / "c.csv"))
        assert err.value.code == EXIT_USAGE
        assert "trace_lenn" in capsys.readouterr().err
        # a key of another command is accepted
        cfg.write_text("users=7\nn_traces=30\n")
        assert run("--seed", "1", "--config", str(cfg), "simulate",
                   "--out", str(tmp_path / "c.csv"), "--steps", "20") == EXIT_OK

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["not-a-command"])
        assert err.value.code == 2


class TestFloatingPointErrors:
    def test_pass_raises_no_floating_point_error(self, tmp_path, monkeypatch):
        # underflow is left out: exp() is floored at _EXP_FLOOR on purpose
        monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
        real, other, ingested = (tmp_path / n for n in ("real.csv", "other.csv", "ing.csv"))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert run("--seed", "1", "simulate", "--out", str(real), "--users", "8",
                       "--steps", "150", "--hotspots", "10") == EXIT_OK
            assert run("--seed", "7", "simulate", "--out", str(other), "--users", "5",
                       "--steps", "150", "--hotspots", "10") == EXIT_OK
            assert run("ingest", "--input", str(real), "--out", str(ingested)) == EXIT_OK
            targets = _targets_file(tmp_path, ingested, other)
            for kind, options in (("vine", ["--max-scores", "2000", "--max-rows", "2000"]),
                                  ("markov", [])):
                model, syn = tmp_path / f"{kind}.json", tmp_path / f"{kind}_syn.csv"
                assert run("--seed", "2", "fit", "--corpus", str(ingested), "--model-type",
                           kind, *options, "--out", str(model)) == EXIT_OK
                assert run("--seed", "3", "generate", "--model", str(model), "--out", str(syn),
                           "--n-traces", "8", "--trace-len", "150") == EXIT_OK
                assert run("--seed", "4", "evaluate", "--real", str(ingested), "--syn",
                           str(syn), "--outdir", str(tmp_path / f"{kind}_report"),
                           "--tau-max", "5", "--n-permutations", "20",
                           "--targets", str(targets)) == EXIT_OK
                assert run("--seed", "5", "attack", "--syn", str(syn), "--targets",
                           str(targets), "--out", str(tmp_path / f"{kind}_p.json")) == EXIT_OK


# runs the CLI cases given as JSON on stdin in turn, each under an alarm, in
# an address space capped so that an unguarded allocation fails at once
_CASE_RUNNER = """
import json, resource, signal, sys
from mobsynth import cli

class Timeout(BaseException):
    pass

def on_alarm(signum, frame):
    raise Timeout

cases, seconds, limit = json.load(sys.stdin)
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS,
                   (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))
signal.signal(signal.SIGALRM, on_alarm)
codes = []
for argv in cases:
    signal.alarm(seconds)
    try:
        codes.append(cli.main(argv))
    except SystemExit as exc:  # argparse refusing a value
        codes.append(exc.code)
    except Timeout:
        codes.append("timeout")
    finally:
        signal.alarm(0)
print(json.dumps(codes))
"""

_EXTREME_INTS = ("-1", "0", str(10 ** 20), str(2 ** 63))
_EXTREME_FLOATS = _EXTREME_INTS + ("nan", "inf", "1e-300")

# the values each numeric field of a model file is set to in turn
_FIELD_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-300,
                 1e300, -1e300, sys.float_info.max, -sys.float_info.max]
_FIELD_INTS = [0, -1, 1, 2 ** 31, 2 ** 53, 2 ** 63 - 1, -2 ** 63, 10 ** 20]


def _run_cases(cases, cwd, pythonpath):
    """The exit code of each CLI case, run in turn by one child process whose
    address space is capped at 2 GiB, under a 30 s alarm per case."""
    env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop(cli.OUTDIR_ENV, None)
    r = subprocess.run([sys.executable, "-c", _CASE_RUNNER], env=env, cwd=cwd,
                       input=json.dumps([cases, 30, 2 << 30]), capture_output=True,
                       text=True, timeout=900)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])  # after the commands' own lines


def _field_variants(node):
    """Each copy of the JSON tree ``node`` with one numeric leaf set to an
    extreme: a scalar to each extreme of its type, and the first and the
    last element of an encoded array to each extreme its dtype holds; every
    ``format_version`` stays."""
    if isinstance(node, dict) and {"dtype", "shape", "data"} <= node.keys():
        a = dataio.decode_array(node)
        if a.dtype.kind == "f":
            values = _FIELD_FLOATS
        else:
            info = np.iinfo(a.dtype)
            values = [v for v in _FIELD_INTS if info.min <= v <= info.max]
        for at in sorted({0, a.size - 1}):
            for v in values:
                b = a.copy()
                b.flat[at] = v
                yield dataio.encode_array(b)
    elif isinstance(node, (dict, list)):
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for k in keys:
            if k == "format_version":
                continue
            for variant in _field_variants(node[k]):
                copy = node.copy()
                copy[k] = variant
                yield copy
    elif type(node) is float:
        yield from _FIELD_FLOATS
    elif type(node) is int:
        yield from _FIELD_INTS


class TestBoundedInputs:
    def test_every_numeric_option_at_extremes_exits_with_a_documented_code(
            self, tmp_path, subprocess_pythonpath):
        # a 4-user, 60-step fixture and what each command reads of it
        real, other = tmp_path / "real.csv", tmp_path / "other.csv"
        for seed, path in (("1", real), ("7", other)):
            assert run("--seed", seed, "simulate", "--out", str(path), "--users", "4",
                       "--steps", "60", "--hotspots", "8") == EXIT_OK
        assert run("--seed", "2", "fit", "--corpus", str(real), "--max-scores", "200",
                   "--out", str(tmp_path / "vine.json")) == EXIT_OK
        assert run("fit", "--corpus", str(real), "--model-type", "markov",
                   "--out", str(tmp_path / "markov.json")) == EXIT_OK
        assert run("--seed", "3", "generate", "--model", str(tmp_path / "markov.json"),
                   "--out", str(tmp_path / "syn.csv"), "--n-traces", "4",
                   "--trace-len", "60") == EXIT_OK
        _targets_file(tmp_path, real, other)
        (tmp_path / "out").mkdir()
        # each command's passing call, with paths relative to the cases' directory
        bases = {
            "simulate": [["simulate", "--out", "out/sim.csv", "--users", "4", "--steps", "60",
                          "--hotspots", "8"]],
            "ingest": [["ingest", "--input", "real.csv", "--out", "out/ing.csv"]],
            "fit": [["fit", "--corpus", "real.csv", "--max-scores", "200", "--out", "out/v.json"],
                    ["fit", "--corpus", "real.csv", "--model-type", "markov", "--out",
                     "out/m.json"]],
            "generate": [["generate", "--model", model, "--out", "out/syn.csv", "--n-traces",
                          "4", "--trace-len", "60"] for model in ("vine.json", "markov.json")],
            "evaluate": [["evaluate", "--real", "real.csv", "--syn", "syn.csv", "--outdir",
                          "out/report", "--tau-max", "5", "--n-permutations", "20",
                          "--targets", "targets.csv"]],
            "attack": [["attack", "--syn", "syn.csv", "--targets", "targets.csv", "--out",
                        "out/p.json"]],
        }
        parser = cli.build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        assert set(bases) == set(commands)

        def extremes(p):
            for action in p._actions:
                if action.type in (int, float):
                    values = _EXTREME_INTS if action.type is int else _EXTREME_FLOATS
                    yield from (f"{action.option_strings[-1]}={v}" for v in values)

        cases = []
        for command, argvs in bases.items():
            for argv in argvs:  # a repeated option's last value wins
                cases += [["--seed", "1", value, *argv] for value in extremes(parser)]
                cases += [["--seed", "1", *argv, value] for value in extremes(commands[command])]
        codes = _run_cases(cases, tmp_path, subprocess_pythonpath)
        bad = [(" ".join(case), code) for case, code in zip(cases, codes)
               if code not in (EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_DOMAIN)]
        assert len(codes) == len(cases) > 150 and not bad, bad

    def test_every_model_field_at_extremes_exits_with_a_documented_code(
            self, tmp_path, subprocess_pythonpath):
        # a deterministic sweep: every numeric field of a vine and an order-2
        # Markov model file at every extreme, each copy generated from once
        assert run("--seed", "1", "simulate", "--out", str(tmp_path / "real.csv"), "--users",
                   "6", "--steps", "120", "--hotspots", "20") == EXIT_OK
        assert run("--seed", "2", "fit", "--corpus", str(tmp_path / "real.csv"),
                   "--max-scores", "300", "--max-rows", "600",
                   "--out", str(tmp_path / "vine.json")) == EXIT_OK
        assert run("fit", "--corpus", str(tmp_path / "real.csv"), "--model-type", "markov",
                   "--order", "2", "--out", str(tmp_path / "markov.json")) == EXIT_OK
        (tmp_path / "out").mkdir()
        models, cases = [], []
        for name in ("vine.json", "markov.json"):
            for envelope in _field_variants(json.loads((tmp_path / name).read_text())):
                k = len(models)
                (tmp_path / f"m{k}.json").write_text(json.dumps(envelope))
                models.append(envelope)
                cases.append(["--seed", "1", "generate", "--model", f"m{k}.json", "--out",
                              f"out/s{k}.csv", "--n-traces", "3", "--trace-len", "30"])
        codes = _run_cases(cases, tmp_path, subprocess_pythonpath)
        assert len(codes) == len(cases) > 400
        bad = [(k, code) for k, code in enumerate(codes)
               if code not in (EXIT_OK, EXIT_PARSE, EXIT_DOMAIN)]
        assert not bad, bad
        for k in np.flatnonzero(np.array(codes) == EXIT_OK):
            envelope, syn = models[k], dataio.load_corpus(tmp_path / "out" / f"s{k}.csv")
            assert syn.n_points() == 90, k
            if envelope["model_type"] == "markov":
                assert np.isin(syn.cells, dataio.decode_array(envelope["payload"]["alphabet"])).all(), k
            else:
                assert ((syn.cells >= 0) & (syn.cells < syn.spec.n_cells)).all(), k
