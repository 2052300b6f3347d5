import csv
import json
import os
import warnings

import numpy as np
import pytest

from mobsynth import cli, dataio
from mobsynth.cli import (EXIT_DOMAIN, EXIT_INCOMPATIBLE, EXIT_NOT_FOUND,
                          EXIT_OK, EXIT_PARSE, EXIT_USAGE, main, read_config)
from mobsynth.errors import ParseError
from mobsynth.geogrid import decode


def run(*argv):
    return main(list(argv))


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "real.csv"
    assert run("--seed", "1", "simulate", "--out", str(path),
               "--users", "8", "--steps", "150", "--hotspots", "10") == EXIT_OK
    return path


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

    def test_missing_input_exit_code(self, tmp_path):
        assert run("ingest", "--input", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o.csv")) == EXIT_NOT_FOUND


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

    @pytest.mark.parametrize("buckets", ["0", "-3"])
    def test_non_positive_time_buckets_is_domain_error(self, tmp_path, corpus_file,
                                                        capsys, buckets):
        model = tmp_path / "m.json"
        assert run("fit", "--corpus", str(corpus_file), "--model-type", "markov",
                   "--time-buckets", buckets, "--out", str(model)) == EXIT_DOMAIN
        assert "time_buckets" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("damage", ["missing_key", "short_array", "wrong_columns",
                                        "symbol_out_of_range", "zero_count",
                                        "repeated_row", "unsorted_rows", "old_layout",
                                        "order_not_integer", "time_buckets_zero",
                                        "alpha_string", "alpha_negative",
                                        "level_string", "sampling_period_string",
                                        "sampling_period_missing", "envelope_list"])
    def test_malformed_model_is_parse_error(self, tmp_path, corpus_file, damage,
                                            capsys):
        model = tmp_path / "m.json"
        run("fit", "--corpus", str(corpus_file), "--model-type", "markov",
            "--out", str(model))
        envelope = json.loads(model.read_text())
        payload = envelope["payload"]
        order1 = dataio.decode_array(payload["counts"][1])
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
                 "alpha_string": "payload.alpha", "alpha_negative": "payload.alpha",
                 "level_string": "grid_spec.level",
                 "sampling_period_string": "sampling_period",
                 "sampling_period_missing": "sampling_period",
                 "envelope_list": "JSON object"}.get(damage, "payload.counts")
        if damage not in ("missing_key", "short_array"):
            assert field in capsys.readouterr().err

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


class TestCorpusSidecar:
    @pytest.mark.parametrize("damage, field", [
        ("no_grid_spec", "grid_spec"),
        ("no_sampling_period", "sampling_period"),
        ("sampling_period_string", "sampling_period"),
        ("sampling_period_zero", "sampling_period"),
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

    def test_outdir_env_override(self, tmp_path, corpus_file, monkeypatch):
        syn = _make_syn(tmp_path, corpus_file)
        outdir = tmp_path / "env_out"
        monkeypatch.setenv(cli.OUTDIR_ENV, str(outdir))
        assert run("--seed", "6", "evaluate", "--real", str(corpus_file),
                   "--syn", str(syn), "--tau-max", "4",
                   "--n-permutations", "10") == EXIT_OK
        assert (outdir / "report.json").exists()

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

    @pytest.mark.parametrize("line", ["users=abc", "period=6e2"])
    def test_config_value_of_wrong_type_is_parse_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert run("--seed", "1", "--config", str(cfg), "simulate",
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
