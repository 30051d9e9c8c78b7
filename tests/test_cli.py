"""End-to-end command-line workflows and exit codes."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import socket
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.io.wavfile
from hypothesis import given, settings
from hypothesis import strategies as st

import walkthrough
from mockllm import MockLlmServer
from serhybrid import cli, corpus, reasoning
from serhybrid.audio_io import AudioSignal, save_wav
from serhybrid.errors import ConfigError
from serhybrid.reasoning import default_ruleset


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny synthetic corpus with features and a trained model."""
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = root / "corpus"
    assert cli.main(["synth", "--out-dir", str(corpus_dir), "--n-per-class",
                     "3", "--seed", "5", "--duration-s", "0.8"]) == 0
    manifest = corpus_dir / "manifest.csv"
    features = root / "features.csv"
    stats = root / "stats.json"
    assert cli.main(["features", "--manifest", str(manifest), "--out",
                     str(features), "--stats-out", str(stats)]) == 0
    model = root / "model.json"
    assert cli.main(["train", "--manifest", str(manifest), "--features",
                     str(features), "--model-out", str(model)]) == 0
    return {"root": root, "manifest": str(manifest), "features": str(features),
            "stats": str(stats), "model": str(model)}


class TestExitCodes:
    def test_missing_required_option_is_config_error(self, capsys):
        assert cli.main(["features", "--out", "x.csv"]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "2.5"], "argument --seed: invalid int value: '2.5'"),
        (["--sead", "2"], "unrecognized arguments: --sead 2"),
        (["--seed"], "argument --seed: expected one argument"),
    ], ids=["bad-value", "unknown-flag", "missing-value"])
    def test_usage_error_is_config_error(self, tmp_path, capsys, flags, message):
        # as {"seed": 2.5} in a config file is: one line and exit 1, no
        # usage block, and main returns rather than raising SystemExit
        out_dir = tmp_path / "d"
        capsys.readouterr()
        assert cli.main(["synth", "--out-dir", str(out_dir), *flags]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out_dir.exists()

    def test_missing_subcommand_is_config_error(self, capsys):
        capsys.readouterr()
        assert cli.main([]) == 1
        assert capsys.readouterr().err == (
            "configuration error: the following arguments are required: command\n")

    @pytest.mark.parametrize("argv", [["--help"], ["synth", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: serhybrid") and err == ""

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert cli.main(["features", "--manifest",
                         str(tmp_path / "absent.csv"), "--out",
                         str(tmp_path / "out.csv")]) == 2
        assert "data error" in capsys.readouterr().err

    def test_unknown_version_is_config_error(self, workspace, tmp_path):
        assert cli.main(["predict", "--manifest", workspace["manifest"],
                         "--features", workspace["features"],
                         "--model", workspace["model"],
                         "--stats", workspace["stats"],
                         "--version", "v9_bogus",
                         "--endpoint-url", "http://127.0.0.1:1/v1",
                         "--model-name", "m",
                         "--out", str(tmp_path / "p.jsonl")]) == 1

    @pytest.mark.parametrize("corrupt", [
        lambda doc: json.dumps(dict(doc, schema="serhybrid-svm-v0")),
        lambda doc: json.dumps(dict(doc, scaler={"mean": doc["scaler"]["mean"]})),
        lambda doc: "this is not JSON",
    ], ids=["wrong-schema", "missing-scaler-key", "not-json"])
    def test_malformed_model_is_data_error(self, workspace, tmp_path, capsys,
                                           corrupt):
        with open(workspace["model"]) as fh:
            doc = json.load(fh)
        model = tmp_path / "model.json"
        model.write_text(corrupt(doc))
        assert cli.main(["predict", "--manifest", workspace["manifest"],
                         "--features", workspace["features"],
                         "--model", str(model),
                         "--stats", workspace["stats"],
                         "--version", "v4_hybrid", "--tau", "0",
                         "--endpoint-url", "http://127.0.0.1:1/v1",
                         "--model-name", "m",
                         "--out", str(tmp_path / "p.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unreadable_config_is_config_error(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{broken")
        assert cli.main(["--config", str(bad), "synth", "--out-dir",
                         str(tmp_path / "d")]) == 1

    def test_path_the_os_cannot_encode_is_data_error(self, tmp_path):
        # a lone surrogate once ended in a UnicodeEncodeError traceback
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"manifest": "\ud800", "out": str(tmp_path / "x.csv")}))
        code, err = _run_quietly(["--config", str(config), "features"])
        _assert_one_error_line(code, err)
        assert code == 2 and "can't encode character '\\ud800'" in err
        assert not (tmp_path / "x.csv").exists()

    def test_config_path_the_os_cannot_encode_is_config_error(self, tmp_path):
        code, err = _run_quietly(["--config", "\ud800", "synth", "--out-dir",
                                  str(tmp_path / "d")])
        _assert_one_error_line(code, err)
        assert code == 1 and err.startswith("configuration error: cannot read config ")


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, workspace, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"manifest": workspace["manifest"],
                                   "out": str(out_a)}))
        assert cli.main(["--config", str(cfg), "features"]) == 0
        assert out_a.exists()
        assert cli.main(["--config", str(cfg), "features", "--out",
                         str(out_b)]) == 0
        assert out_b.exists()
        assert out_a.read_text() == out_b.read_text()


def _with_config(tmp_path, doc, argv):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    return ["--config", str(config), *argv]


def _synth(ws, tmp_path):
    return ["synth", "--out-dir", str(tmp_path / "d"), "--n-per-class", "3",
            "--duration-s", "0.8"]


def _predict_v4(ws, tmp_path):
    return ["predict", "--manifest", ws["manifest"], "--features", ws["features"],
            "--model", ws["model"], "--stats", ws["stats"], "--version", "v4_hybrid",
            "--endpoint-url", "http://127.0.0.1:1/v1", "--model-name", "m",
            "--out", str(tmp_path / "p.jsonl")]


def _refine_mine(ws, tmp_path):
    preds, rows = _written_predictions(ws, tmp_path)
    for label in ("angry", "panic"):  # plant one error per class for the miner
        next(r for r in rows if r["label"] == label)["label"] = "calm"
    preds.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return ["refine", "--predictions", str(preds), "--manifest", ws["manifest"],
            "--features", ws["features"], "--stats", ws["stats"],
            "--proposals-out", str(tmp_path / "proposals.json"), "--min-support", "1"]


class TestConfigValues:
    """Config keys are flag names; each value is read as its flag reads its
    text, and a bad key or value is one configuration-error line naming it."""

    @pytest.mark.parametrize("doc, command", [
        ({"overlap": "lots"}, _synth), ({"n_per_clas": 2}, _synth),
        ({"seed": 2.5}, _synth), ({"accept_all": "yes"}, _refine_mine),
        ({"tau": [0.7]}, _predict_v4), ({"manifest": "a\0b"}, _predict_v4),
    ], ids=["overlap-word", "misspelled-key", "seed-fraction", "accept-all-word",
            "tau-list", "path-with-nul"])
    def test_one_configuration_error_line(self, workspace, tmp_path, capsys,
                                          doc, command):
        argv = _with_config(tmp_path, doc, command(workspace, tmp_path))
        capsys.readouterr()
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert next(iter(doc)) in err

    def test_retired_max_passes_is_ignored(self, workspace, tmp_path):
        assert cli.main(_with_config(tmp_path, {"max_passes": 3}, [
            "train", "--manifest", workspace["manifest"],
            "--features", workspace["features"],
            "--model-out", str(tmp_path / "model.json")])) == 0

    def test_other_subcommands_keys_are_ignored(self, workspace, tmp_path):
        preds, _ = _written_predictions(workspace, tmp_path)
        client = {"endpoint_url": "http://127.0.0.1:1/v1", "model_name": "mock",
                  "cache": str(tmp_path / "cache"), "max_in_flight": 2,
                  "retry_backoff_s": 0.02, "tau": 0.7}
        assert cli.main(_with_config(tmp_path, client, [
            "evaluate", "--predictions", str(preds),
            "--manifest", workspace["manifest"]])) == 0

    def test_ignored_keys_stay_out_of_reports(self, workspace, tmp_path):
        report = tmp_path / "report.json"
        argv = _predict_v4(workspace, tmp_path) + ["--report", str(report)]
        assert cli.main(_with_config(tmp_path, {"max_passes": 3, "min_support": 2, "tau": 0},
                                     argv)) == 0
        config = json.loads(report.read_text())["config"]
        assert config["tau"] == 0.0
        assert "max_passes" not in config and "min_support" not in config

    def test_values_read_as_flag_text(self, tmp_path):
        by_flags, by_config = tmp_path / "flags", tmp_path / "config"
        assert cli.main(["synth", "--out-dir", str(by_flags), "--n-per-class", "3",
                         "--seed", "7", "--duration-s", "0.8"]) == 0
        assert cli.main(_with_config(tmp_path, {"n_per_class": "3", "seed": 7,
                                                "duration_s": "0.8"},
                                     ["synth", "--out-dir", str(by_config)])) == 0
        for name in sorted(os.listdir(by_flags)):
            if name.endswith(".wav"):
                assert (by_flags / name).read_bytes() == (by_config / name).read_bytes()

    @pytest.mark.parametrize("rules_version, expected", [(7, 7), (None, 1)],
                             ids=["rules-file", "default-rules"])
    def test_proposals_take_the_rules_version(self, workspace, tmp_path,
                                              rules_version, expected):
        argv = _refine_mine(workspace, tmp_path)
        if rules_version is not None:
            rules = tmp_path / "rules.json"
            dataclasses.replace(default_ruleset(), version=rules_version).save(rules)
            argv += ["--rules", str(rules)]
        assert cli.main(argv) == 0
        proposals = json.loads((tmp_path / "proposals.json").read_text())["proposals"]
        assert proposals and all(p["base_version"] == expected for p in proposals)

    # each removed setting with its former default, which it once accepted
    @pytest.mark.parametrize("key, value", [
        ("energy_floor_db", -40.0), ("hangover_frames", 5), ("max_len_s", 10.0),
        ("min_len_s", 0.5), ("base_version", 1), ("svm_c", 1.0), ("svm_tol", 0.001),
    ], ids=["energy_floor_db", "hangover_frames", "max_len_s", "min_len_s", "base_version",
            "svm_c", "svm_tol"])
    def test_removed_settings_are_unknown_config_keys(self, tmp_path, capsys, key, value):
        out_dir = tmp_path / "out"
        if key == "base_version":
            argv = ["refine", "--apply", str(tmp_path / "proposals.json")]
        elif key.startswith("svm_"):
            argv = ["train", "--manifest", str(tmp_path / "manifest.csv"),
                    "--features", str(tmp_path / "features.csv"), "--model-out", str(out_dir)]
        else:
            argv = ["preprocess", "--in-dir", str(tmp_path), "--out-dir", str(out_dir)]
        capsys.readouterr()
        code = cli.main(_with_config(tmp_path, {key: value}, argv))
        assert code == 1
        assert capsys.readouterr().err == f"configuration error: unknown config key {key!r}\n"
        assert not out_dir.exists()


def _walkthrough_commands():
    """(subcommand, flags) for each serhybrid command in the README walkthrough."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## CLI walkthrough", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = line.split()
        if words[:1] != ["serhybrid"]:
            continue
        if words[1] == "--config":
            words = words[:1] + words[3:]
        commands.append((words[1], [w for w in words[2:] if w.startswith("--")]))
    return commands


def test_walkthrough_flags_are_declared():
    commands = _walkthrough_commands()
    assert len(commands) >= 9 and {sub for sub, _ in commands} <= set(cli.COMMANDS)
    for sub, flags in commands:
        declared = {name for name, _ in cli.COMMANDS[sub][2]}
        assert [f for f in flags if f[2:].replace("-", "_") not in declared] == [], sub


def _tree(root):
    """{relative path: bytes} of every file under root."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def test_walkthrough_warm_reruns_are_byte_identical(tmp_path):
    out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
    with MockLlmServer() as server:
        walkthrough.run(out, cache, server.base_url)
        cold_requests = server.request_count
        warm = []
        for _ in range(2):
            walkthrough.run(out, cache, server.base_url)
            warm.append(_tree(out))
        assert server.request_count == cold_requests > 0
    assert "ablation/compare.json" in warm[0] and "report_text.json" in warm[0]
    assert warm[0] == warm[1]


class TestPredictEvaluate:
    def test_v4_tau_zero_runs_offline(self, workspace, tmp_path):
        # tau 0 answers everything from the classifier: the endpoint is
        # never contacted, so a dead URL must not matter
        out = tmp_path / "preds.jsonl"
        report = tmp_path / "report.json"
        assert cli.main(["predict", "--manifest", workspace["manifest"],
                         "--features", workspace["features"],
                         "--model", workspace["model"],
                         "--stats", workspace["stats"],
                         "--version", "v4_hybrid", "--tau", "0",
                         "--endpoint-url", "http://127.0.0.1:1/v1",
                         "--model-name", "m",
                         "--out", str(out), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["routed_to_llm"] == 0
        assert len(out.read_text().splitlines()) == 9

    def test_v2_against_mock_server(self, workspace, tmp_path):
        out = tmp_path / "preds.jsonl"
        with MockLlmServer() as server:
            assert cli.main(["predict", "--manifest", workspace["manifest"],
                             "--features", workspace["features"],
                             "--model", workspace["model"],
                             "--stats", workspace["stats"],
                             "--version", "v2_rules",
                             "--endpoint-url", server.base_url,
                             "--model-name", "m",
                             "--out", str(out)]) == 0
            assert server.request_count == 9

    def test_evaluate_writes_metrics(self, workspace, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        cli.main(["predict", "--manifest", workspace["manifest"],
                  "--features", workspace["features"],
                  "--model", workspace["model"], "--stats", workspace["stats"],
                  "--version", "v4_hybrid", "--tau", "0",
                  "--endpoint-url", "http://127.0.0.1:1/v1",
                  "--model-name", "m", "--out", str(preds)])
        out = tmp_path / "eval.json"
        capsys.readouterr()
        assert cli.main(["evaluate", "--predictions", str(preds),
                         "--manifest", workspace["manifest"],
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert 0.0 <= doc["metrics"]["accuracy"] <= 1.0
        assert np.array(doc["confusion"]).shape == (3, 3)
        printed = capsys.readouterr().out.splitlines()
        assert "gold \\ pred" in printed[0]
        # the printed table and the written counts are the same matrix
        assert [[int(v) for v in line.split()[1:]] for line in printed[1:4]] == doc["confusion"]
        assert sum(map(sum, doc["confusion"])) == doc["metrics"]["n"] == 9


class TestKappa:
    def test_agreement_report(self, tmp_path, capsys):
        path = tmp_path / "annotations.csv"
        path.write_text("sample_id,annotator_a,annotator_b,annotator_c\n"
                        "s0,calm,calm,calm\n"
                        "s1,angry,angry,panic\n"
                        "s2,panic,panic,panic\n"
                        "s3,calm,angry,calm\n")
        out = tmp_path / "kappa.json"
        assert cli.main(["kappa", "--annotations", str(path),
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_items"] == 4
        assert -1.0 <= doc["fleiss_kappa"] <= 1.0
        assert set(doc["pairwise"]) == {"A-B", "A-C", "B-C"}
        assert "Fleiss kappa" in capsys.readouterr().out

    @pytest.mark.parametrize("table,named", [
        ("sample_id,annotator_a,annotator_b,annotator_c\n"
         "s0,calm,calm,calm\n"
         "s1,angry,furious,panic\n", ["line 3", "s1", "'furious'"]),
        ("sample_id,annotator_a,annotator_b\n"
         "s0,calm,calm\n", ["annotator_c"]),
    ], ids=["unknown-label", "missing-column"])
    def test_bad_annotations_are_data_errors(self, tmp_path, capsys, table,
                                             named):
        path = tmp_path / "annotations.csv"
        path.write_text(table)
        assert cli.main(["kappa", "--annotations", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert all(part in err for part in named)

    def test_repeated_row_and_extra_cell_are_data_errors(self, tmp_path, capsys):
        # the first file once printed "Fleiss kappa: 0.7273" and exited 0,
        # with s1 counted twice and the extra cell on s3 dropped
        path = tmp_path / "annotations.csv"
        header = "sample_id,annotator_a,annotator_b,annotator_c\n"
        extra = "s3,panic,panic,calm,calm\n"
        path.write_text(header + "s0,calm,calm,calm\n" + "s1,angry,angry,angry\n" * 2 + extra)
        assert cli.main(["kappa", "--annotations", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {path} line 4: duplicate sample_id 's1'\n")
        path.write_text(header + "s0,calm,calm,calm\n" + extra)
        assert cli.main(["kappa", "--annotations", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {path} line 3: 5 cells, the header names 4\n")

    def test_empty_annotations_rejected(self, tmp_path, capsys):
        path = tmp_path / "annotations.csv"
        path.write_text("sample_id,annotator_a,annotator_b,annotator_c\n")
        assert cli.main(["kappa", "--annotations", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {path}: kappa needs at least 2 annotated rows, got 0\n")

    def test_one_row_names_the_file(self, tmp_path, capsys):
        # it once ended in "annotation table must be 2-D with >= 2 items",
        # naming neither the file nor the count
        path = tmp_path / "annotations.csv"
        path.write_text("sample_id,annotator_a,annotator_b,annotator_c\n"
                        "s0,calm,calm,angry\n")
        assert cli.main(["kappa", "--annotations", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {path}: kappa needs at least 2 annotated rows, got 1\n")

    def test_closed_stdout_exits_zero_silently(self, tmp_path):
        # `kappa ... | true` once printed "data error: [Errno 32] Broken
        # pipe" and exited 2; the reader chose to stop, and --out is written
        path = tmp_path / "annotations.csv"
        path.write_text("sample_id,annotator_a,annotator_b,annotator_c\n"
                        "s0,calm,calm,calm\n"
                        "s1,angry,angry,panic\n")
        out = tmp_path / "kappa.json"
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the command writes its first line
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "serhybrid.cli", "kappa", "--annotations", str(path),
                 "--out", str(out)],
                env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))),
                stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(out.read_text())["n_items"] == 2


class TestRefine:
    def test_mine_then_apply(self, workspace, tmp_path):
        preds = tmp_path / "preds.jsonl"
        cli.main(["predict", "--manifest", workspace["manifest"],
                  "--features", workspace["features"],
                  "--model", workspace["model"], "--stats", workspace["stats"],
                  "--version", "v4_hybrid", "--tau", "0",
                  "--endpoint-url", "http://127.0.0.1:1/v1",
                  "--model-name", "m", "--out", str(preds)])
        proposals = tmp_path / "proposals.json"
        assert cli.main(["refine", "--predictions", str(preds),
                         "--manifest", workspace["manifest"],
                         "--features", workspace["features"],
                         "--stats", workspace["stats"],
                         "--proposals-out", str(proposals),
                         "--accept-all"]) == 0
        assert proposals.exists()
        rules_in = tmp_path / "rules.json"
        default_ruleset().save(rules_in)
        rules_out = tmp_path / "rules_v2.json"
        assert cli.main(["refine", "--apply", str(proposals),
                         "--rules", str(rules_in),
                         "--rules-out", str(rules_out)]) == 0
        doc = json.loads(rules_out.read_text())
        assert doc["version"] == 2

    def test_flag_does_not_outlive_its_call(self, workspace, tmp_path):
        # main parses every call with the one parser of the process: a flag
        # one call gives is unset in the next call that leaves it out
        argv = _refine_mine(workspace, tmp_path)
        proposals = tmp_path / "proposals.json"

        def statuses():
            return {p["status"] for p in json.loads(proposals.read_text())["proposals"]}

        assert cli.main(argv + ["--accept-all"]) == 0
        assert statuses() == {"accepted"}
        assert cli.main(argv) == 0
        assert statuses() == {"pending"}


def _valid_proposals():
    return {"schema": "serhybrid-proposals-v1", "proposals": [{
        "status": "accepted",
        "base_version": 1,
        "candidate": {
            "id": "refined-panic-vs-angry-pitch_std",
            "statement": "Actual panic mistaken for angry shows high pitch_std.",
            "conditions": [{"dimension": "pitch_std", "comparator": ">=",
                            "threshold_z": 0.5}],
            "implied_label": "panic", "strength": 0.6, "origin": "refined"},
        "pattern": {"gold": "panic", "predicted": "angry", "support": 6,
                    "top_deltas": [{"dimension": "pitch_std",
                                    "effect_size": -1.2, "direction": -1,
                                    "error_median_z": 0.5}]},
    }]}


def _typo_dimension(doc):
    doc["proposals"][0]["candidate"]["conditions"][0]["dimension"] = "pitch_sdt"


def _typo_status(doc):
    doc["proposals"][0]["status"] = "acepted"


def _wrong_schema(doc):
    doc["schema"] = "serhybrid-rules-v1"


def _no_proposals_key(doc):
    del doc["proposals"]


def _no_pattern(doc):
    del doc["proposals"][0]["pattern"]


def _support_infinite(doc):
    doc["proposals"][0]["pattern"]["support"] = float("inf")


class TestProposalValidation:
    """refine --apply validates proposals as strictly as load_rules."""

    def _apply(self, tmp_path, doc):
        proposals = tmp_path / "proposals.json"
        proposals.write_text(json.dumps(doc))
        rules_in = tmp_path / "rules.json"
        default_ruleset().save(rules_in)
        rules_out = tmp_path / "rules_v2.json"
        code = cli.main(["refine", "--apply", str(proposals),
                         "--rules", str(rules_in), "--rules-out", str(rules_out)])
        return code, rules_out

    def test_candidate_accepted_twice_is_config_error(self, tmp_path, capsys):
        # the rule file once written here repeated a rule id, so compare
        # --refined-rules rejected it later
        doc = _valid_proposals()
        doc["proposals"].append(doc["proposals"][0])
        code, rules_out = self._apply(tmp_path, doc)
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("configuration error: rule id "
                       "'refined-panic-vs-angry-pitch_std' already present\n")
        assert not rules_out.exists()

    def test_valid_proposal_applies(self, tmp_path):
        code, rules_out = self._apply(tmp_path, _valid_proposals())
        assert code == 0
        rules = reasoning.load_rules(rules_out)
        assert rules.version == 2
        assert rules.rules[-1].id == "refined-panic-vs-angry-pitch_std"

    @pytest.mark.parametrize("corrupt", [
        _typo_dimension, _typo_status, _wrong_schema, _no_proposals_key,
        _no_pattern, _support_infinite,
    ], ids=["dimension-typo", "status-typo", "wrong-schema",
            "no-proposals-key", "no-pattern", "support-infinite"])
    def test_malformed_proposals_are_config_errors(self, tmp_path, capsys,
                                                   corrupt):
        doc = _valid_proposals()
        corrupt(doc)
        code, rules_out = self._apply(tmp_path, doc)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not rules_out.exists()


def _bad_feature_cell(ws, tmp_path):
    lines = Path(ws["features"]).read_text().splitlines()
    cells = lines[1].split(",")
    cells[5] = "abc"
    lines[1] = ",".join(cells)
    bad = tmp_path / "features.csv"
    bad.write_text("\n".join(lines) + "\n")
    return ["train", "--manifest", ws["manifest"], "--features", str(bad),
            "--model-out", str(tmp_path / "model.json")]


def _predict_with_stats(text):
    def case(ws, tmp_path):
        bad = tmp_path / "stats.json"
        bad.write_text(text(ws))
        return ["predict", "--manifest", ws["manifest"],
                "--features", ws["features"], "--model", ws["model"],
                "--stats", str(bad), "--version", "v4_hybrid", "--tau", "0",
                "--endpoint-url", "http://127.0.0.1:1/v1", "--model-name", "m",
                "--out", str(tmp_path / "p.jsonl")]
    return case


def _stats_without_mean(ws):
    doc = json.loads(Path(ws["stats"]).read_text())
    del doc["mean"]
    return json.dumps(doc)


def _transcripts_without_column(ws, tmp_path):
    bad = tmp_path / "transcripts.csv"
    bad.write_text("sample_id,text\nx,hello\n")
    return ["predict", "--manifest", ws["manifest"], "--version",
            "text_baseline", "--transcripts", str(bad),
            "--endpoint-url", "http://127.0.0.1:1/v1", "--model-name", "m",
            "--out", str(tmp_path / "p.jsonl")]


def _prediction_without_label(ws, tmp_path):
    preds = tmp_path / "preds.jsonl"
    assert cli.main(["predict", "--manifest", ws["manifest"],
                     "--features", ws["features"], "--model", ws["model"],
                     "--stats", ws["stats"], "--version", "v4_hybrid",
                     "--tau", "0", "--endpoint-url", "http://127.0.0.1:1/v1",
                     "--model-name", "m", "--out", str(preds)]) == 0
    rows = [json.loads(line) for line in preds.read_text().splitlines()]
    del rows[2]["label"]
    preds.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return ["evaluate", "--predictions", str(preds), "--manifest", ws["manifest"]]


def _written_predictions(ws, tmp_path):
    """An offline v4 predictions file for the workspace, and its rows."""
    preds = tmp_path / "preds.jsonl"
    assert cli.main(["predict", "--manifest", ws["manifest"],
                     "--features", ws["features"], "--model", ws["model"],
                     "--stats", ws["stats"], "--version", "v4_hybrid",
                     "--tau", "0", "--endpoint-url", "http://127.0.0.1:1/v1",
                     "--model-name", "m", "--out", str(preds)]) == 0
    return preds, [json.loads(line) for line in preds.read_text().splitlines()]


def _evaluate_prediction_with(field, value):
    def case(ws, tmp_path):
        preds, rows = _written_predictions(ws, tmp_path)
        rows[2][field] = value
        preds.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return ["evaluate", "--predictions", str(preds), "--manifest", ws["manifest"]]
    return case


def _features_without_first_row(ws, tmp_path):
    lines = Path(ws["features"]).read_text().splitlines()
    short = tmp_path / "features_short.csv"
    short.write_text("\n".join([lines[0], *lines[2:]]) + "\n")
    return str(short)


def _train_on(ws, tmp_path, features):
    return ["train", "--manifest", ws["manifest"], "--features", features,
            "--model-out", str(tmp_path / "model.json")]


def _train_on_short_features(ws, tmp_path):
    return _train_on(ws, tmp_path, _features_without_first_row(ws, tmp_path))


def _refine_on(ws, tmp_path, features):
    preds = tmp_path / "preds.jsonl"
    assert cli.main(["predict", "--manifest", ws["manifest"],
                     "--features", ws["features"], "--model", ws["model"],
                     "--stats", ws["stats"], "--version", "v4_hybrid",
                     "--tau", "0", "--endpoint-url", "http://127.0.0.1:1/v1",
                     "--model-name", "m", "--out", str(preds)]) == 0
    return ["refine", "--predictions", str(preds), "--manifest", ws["manifest"],
            "--features", features, "--stats", ws["stats"],
            "--proposals-out", str(tmp_path / "proposals.json")]


def _refine_on_short_features(ws, tmp_path):
    return _refine_on(ws, tmp_path, _features_without_first_row(ws, tmp_path))


def _nan_first_row(lines):
    cells = lines[1].split(",")
    lines[1] = ",".join(cells[:2] + ["nan"] * (len(cells) - 2))
    return "line 2: feature vector has non-finite values"


def _first_row_repeated(lines):
    lines.append(lines[1])
    return f"line {len(lines)}: duplicate sample_id {lines[1].split(',')[1]!r}"


def _train_on_empty_split(ws, tmp_path):
    # a synth corpus assigns no split, so set1 selects no rows to train on
    return ["train", "--manifest", ws["manifest"], "--features", ws["features"],
            "--split", "set1", "--model-out", str(tmp_path / "model.json")]


def _rules_file_is_a_list(ws, tmp_path):
    proposals = tmp_path / "proposals.json"
    proposals.write_text(json.dumps(_valid_proposals()))
    rules = tmp_path / "rules.json"
    rules.write_text("[]")
    return ["refine", "--apply", str(proposals), "--rules", str(rules),
            "--rules-out", str(tmp_path / "rules_v2.json")]


def _config_file_is_a_list(ws, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text("[1]")
    return ["--config", str(config), "synth", "--out-dir", str(tmp_path / "d")]


def _features_from_manifest(text):
    def case(ws, tmp_path):
        bad = tmp_path / "manifest.csv"
        bad.write_text(text)
        return ["features", "--manifest", str(bad), "--out", str(tmp_path / "f.csv")]
    return case


def _stats_with(**fields):
    def text(ws):
        doc = json.loads(Path(ws["stats"]).read_text())
        doc.update(fields)
        return json.dumps(doc)
    return text


def _stats_all_std_zero(ws):
    doc = json.loads(Path(ws["stats"]).read_text())
    doc["std"] = {d: 0.0 for d in doc["std"]}
    return json.dumps(doc)


def _features_from_a_directory(ws, tmp_path):
    return ["features", "--manifest", str(tmp_path), "--out", str(tmp_path / "f.csv")]


def _features_into_a_directory(ws, tmp_path):
    return ["features", "--manifest", ws["manifest"], "--out", str(tmp_path)]


def _evaluate_a_directory(ws, tmp_path):
    return ["evaluate", "--predictions", str(tmp_path), "--manifest", ws["manifest"]]


class TestMalformedInputs:
    @pytest.mark.parametrize("case", [
        _bad_feature_cell,
        _predict_with_stats(lambda ws: "{not json"),
        _predict_with_stats(_stats_without_mean),
        _transcripts_without_column,
        _prediction_without_label,
        _evaluate_prediction_with("label", "happy"),
        _train_on_empty_split,
        _evaluate_prediction_with("sample_id", ["calm_000"]),
        _evaluate_prediction_with("ml_evidence", {"label": "calm", "confidence": 10 ** 400,
                                                  "per_class_probs": [], "margins": []}),
        _features_from_manifest("sample_id,mystery\na,1,2\n"),
        _features_from_manifest("sample_id,gold\na,calm,angry\n"),
        _features_from_manifest("sample_id,duration_s\na,abc\n"),
        _features_from_manifest('sample_id,audio_path\na,"x\0\ny.wav"\n'),
        _predict_with_stats(_stats_with(zero_variance=5)),
        _predict_with_stats(_stats_all_std_zero),
        _predict_with_stats(_stats_with(schema="x")),
        _features_from_a_directory,
        _features_into_a_directory,
        _evaluate_a_directory,
    ], ids=["features-cell-abc", "stats-not-json", "stats-without-mean",
            "transcripts-without-column", "prediction-without-label",
            "prediction-label-happy", "train-on-empty-split",
            "prediction-sample-id-a-list", "prediction-confidence-overflows",
            "manifest-unknown-column-long-row", "manifest-long-row",
            "manifest-duration-abc", "manifest-audio-path-nul", "stats-zero-variance-5", "stats-std-zero",
            "stats-schema-x", "manifest-is-a-directory", "features-out-is-a-directory",
            "predictions-is-a-directory"])
    def test_one_line_never_a_traceback(self, workspace, tmp_path, capsys,
                                        case):
        argv = case(workspace, tmp_path)
        capsys.readouterr()
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (1, 2)
        assert err.count("\n") == 1
        assert err.startswith(("configuration error: ", "data error: "))
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [("label", "happy"), ("source", "oracle")])
    def test_prediction_outside_vocabulary_is_data_error(self, workspace, tmp_path,
                                                         capsys, field, value):
        argv = _evaluate_prediction_with(field, value)(workspace, tmp_path)
        capsys.readouterr()
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"data error: {argv[2]} line 3: ")
        assert repr(value) in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["evaluate", "refine"])
    def test_repeated_prediction_id_is_data_error(self, workspace, tmp_path, capsys,
                                                  command):
        # evaluate kept the last line of each id and refine counted every line
        preds, rows = _written_predictions(workspace, tmp_path)
        preds.write_text("".join(json.dumps(r) + "\n" for r in [*rows[:3], rows[0]]))
        argv = [command, "--predictions", str(preds), "--manifest", workspace["manifest"]]
        if command == "refine":
            argv += ["--features", workspace["features"], "--stats", workspace["stats"],
                     "--proposals-out", str(tmp_path / "proposals.json"), "--min-support", "1"]
        capsys.readouterr()
        code = cli.main(argv)
        assert capsys.readouterr().err == (f"data error: {preds} line 4: duplicate sample_id "
                                           f"{rows[0]['sample_id']!r}\n")
        assert code == 2
        assert not (tmp_path / "proposals.json").exists()

    def test_train_on_entries_without_gold_is_data_error(self, workspace, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("sample_id,gold\na,\nb,calm\n")
        argv = ["train", "--manifest", str(manifest), "--features", workspace["features"],
                "--model-out", str(tmp_path / "model.json")]
        capsys.readouterr()
        code = cli.main(argv)
        assert capsys.readouterr().err == "data error: entries without gold labels: ['a']\n"
        assert code == 2
        assert not (tmp_path / "model.json").exists()

    def test_stats_of_no_rows_is_data_error(self, workspace, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(Path(workspace["manifest"]).read_text().splitlines()[0] + "\n")
        stats = tmp_path / "stats.json"
        capsys.readouterr()
        code = cli.main(["features", "--manifest", str(manifest), "--out",
                         str(tmp_path / "f.csv"), "--stats-out", str(stats)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "data error: corpus stats need at least one feature row\n"
        # the features CSV once was written before the stats were computed
        assert not stats.exists() and not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("case", [
        _train_on_short_features, _refine_on_short_features,
    ], ids=["train", "refine"])
    def test_missing_feature_rows_are_data_errors(self, workspace, tmp_path,
                                                  capsys, case):
        argv = case(workspace, tmp_path)
        capsys.readouterr()
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: no feature vectors for samples: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [_train_on, _refine_on], ids=["train", "refine"])
    @pytest.mark.parametrize("edit", [_nan_first_row, _first_row_repeated],
                             ids=["nan-row", "repeated-id"])
    def test_features_csv_rows_are_checked(self, workspace, tmp_path, capsys, command, edit):
        # refine once ended a NaN row in a ValueError traceback, and a
        # repeated id silently kept its last row
        lines = Path(workspace["features"]).read_text().splitlines()
        where = edit(lines)
        features = tmp_path / "features_edited.csv"
        features.write_text("\n".join(lines) + "\n")
        argv = command(workspace, tmp_path, str(features))
        capsys.readouterr()
        code = cli.main(argv)
        assert capsys.readouterr().err == f"data error: {features} {where}\n"
        assert code == 2

    @pytest.mark.parametrize("case", [
        _rules_file_is_a_list, _config_file_is_a_list,
    ], ids=["rules-list", "config-list"])
    def test_non_object_files_are_config_errors(self, workspace, tmp_path,
                                                capsys, case):
        argv = case(workspace, tmp_path)
        capsys.readouterr()
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


def _note_without_text(doc):
    del doc["confusion_notes"][0]["text"]


def _version_word(doc):
    doc["version"] = "two"


def _note_is_a_string(doc):
    doc["confusion_notes"][0] = "angry vs panic: panic varies more"


def _rules_is_a_number(doc):
    doc["rules"] = 5


def _note_labels_a_number(doc):
    doc["confusion_notes"][0]["labels"] = 3


def _dimension_is_a_list(doc):
    doc["rules"][0]["conditions"][0]["dimension"] = []


def _strength_overflows(doc):
    doc["rules"][0]["strength"] = 10 ** 400


def _refine_apply_with_rules(ws, tmp_path, rules):
    proposals = tmp_path / "proposals.json"
    proposals.write_text(json.dumps(_valid_proposals()))
    return ["refine", "--apply", str(proposals), "--rules", str(rules),
            "--rules-out", str(tmp_path / "rules_v2.json")]


def _predict_with_rules(ws, tmp_path, rules):
    return ["predict", "--manifest", ws["manifest"], "--features", ws["features"],
            "--model", ws["model"], "--stats", ws["stats"], "--rules", str(rules),
            "--version", "v2_rules", "--endpoint-url", "http://127.0.0.1:1/v1",
            "--model-name", "m", "--out", str(tmp_path / "p.jsonl")]


class TestMalformedRuleFiles:
    """Every malformed part of a rules object is a one-line configuration
    error, in each command that reads a rules file."""

    @pytest.mark.parametrize("command", [_refine_apply_with_rules, _predict_with_rules],
                             ids=["refine-apply", "predict-rules"])
    @pytest.mark.parametrize("corrupt", [
        _note_without_text, _version_word, _note_is_a_string, _rules_is_a_number,
        _note_labels_a_number, _dimension_is_a_list, _strength_overflows,
    ], ids=["note-without-text", "version-word", "note-is-a-string",
            "rules-is-a-number", "note-labels-a-number", "dimension-is-a-list",
            "strength-overflows"])
    def test_one_configuration_error_line(self, workspace, tmp_path, capsys,
                                          corrupt, command):
        doc = json.loads(default_ruleset().to_json())
        corrupt(doc)
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps(doc))
        argv = command(workspace, tmp_path, rules)
        capsys.readouterr()
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestClientSettings:
    """Bad LLM client settings in a config file are one configuration-error
    line, never a traceback."""

    @pytest.mark.parametrize("settings", [
        {"max_in_flight": 0}, {"timeout_s": "soon"}, {"max_retries": "few"},
        {"max_in_flight": "many"}, {"retry_backoff_s": "later"},
        {"timeout_s": None}, {"timeout_s": 0}, {"max_retries": -1},
        {"retry_backoff_s": -0.5},
        # these two once ended in "OverflowError: timestamp out of range for
        # platform time_t", from the socket and from time.sleep
        {"timeout_s": 1e300}, {"retry_backoff_s": 1e300, "max_retries": 1},
    ], ids=["in-flight-zero", "timeout-word", "retries-word", "in-flight-word",
            "backoff-word", "timeout-null", "timeout-zero", "retries-negative",
            "backoff-negative", "timeout-past-the-clock", "backoff-past-the-clock"])
    def test_one_configuration_error_line(self, workspace, tmp_path, capsys,
                                          settings):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(settings))
        capsys.readouterr()
        code = cli.main(["--config", str(config), "predict",
                         "--manifest", workspace["manifest"],
                         "--features", workspace["features"],
                         "--model", workspace["model"], "--stats", workspace["stats"],
                         "--version", "v4_hybrid", "--tau", "0",
                         "--endpoint-url", "http://127.0.0.1:1/v1",
                         "--model-name", "m", "--out", str(tmp_path / "p.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1
        assert next(iter(settings)) in err

    @staticmethod
    def _text_baseline(workspace, tmp_path):
        transcripts = tmp_path / "transcripts.csv"
        transcripts.write_text("sample_id,transcript\n" + "".join(
            f"{e.sample_id},i am calm\n" for e in corpus.load_manifest(workspace["manifest"])))
        return ["predict", "--version", "text_baseline", "--out", str(tmp_path / "p.jsonl"),
                "--transcripts", str(transcripts)]

    @staticmethod
    def _set_key(monkeypatch, key):
        # os.environ as a dict, so a key the locale cannot encode still
        # reaches the client as the text it is
        monkeypatch.setattr(os, "environ", {**os.environ, "SERHYBRID_API_KEY": key})

    @pytest.mark.parametrize("key", ["sk-abc\n", "sk-\rabc", "sk-abc\x7f", "\x01",
                                     "sk-\u00e9\u0101", "sk-\U0001f511"],
                             ids=["newline", "carriage-return", "delete", "start-of-heading",
                                  "beyond-latin-1", "astral"])
    @pytest.mark.parametrize("command", ["predict", "compare"])
    def test_api_key_a_header_cannot_carry(self, workspace, tmp_path, capsys, monkeypatch,
                                           command, key):
        # a key ending in a newline once ended predict in a traceback that
        # printed it, and one beyond Latin-1 in a data error after the run
        # began; no request is made, and the message never shows the key
        self._set_key(monkeypatch, key)
        argv = (self._text_baseline(workspace, tmp_path) if command == "predict"
                else ["compare", "--features", workspace["features"],
                      "--model", workspace["model"], "--stats", workspace["stats"],
                      "--out-dir", str(tmp_path / "ablation")])
        capsys.readouterr()
        code = cli.main([*argv, "--manifest", workspace["manifest"],
                         "--endpoint-url", "http://127.0.0.1:1/v1", "--model-name", "m"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("configuration error: the API key in $SERHYBRID_API_KEY "
                       "holds a character an HTTP header cannot carry\n")
        assert not os.path.exists(tmp_path / "p.jsonl")
        assert not os.path.exists(tmp_path / "ablation")

    def test_latin_1_api_key_is_sent(self, workspace, tmp_path, monkeypatch):
        self._set_key(monkeypatch, "sk-\u00e9")
        with MockLlmServer() as server:
            assert cli.main([*self._text_baseline(workspace, tmp_path),
                             "--manifest", workspace["manifest"],
                             "--endpoint-url", server.base_url, "--model-name", "m"]) == 0
            assert server.request_count == 1  # nine samples with one transcript text


class TestClientWaitBounds:
    """Client waits that the OS clock cannot hold: a longest backoff above
    threading.TIMEOUT_MAX is a configuration error (TestClientSettings runs
    it and a timeout above it through a config file); at or under the
    bound, the run never ends in a traceback."""

    @staticmethod
    def _predict(workspace, tmp_path, url="http://127.0.0.1:1/v1"):
        return ["predict", "--manifest", workspace["manifest"],
                "--features", workspace["features"], "--model", workspace["model"],
                "--stats", workspace["stats"], "--version", "v1_basic",
                "--endpoint-url", url, "--model-name", "m",
                "--out", str(tmp_path / "p.jsonl")]

    @pytest.mark.parametrize("max_retries, backoff, accepted", [
        (34, math.ldexp(threading.TIMEOUT_MAX, -33), True),
        (34, math.nextafter(math.ldexp(threading.TIMEOUT_MAX, -33), math.inf), False),
        (35, math.ldexp(threading.TIMEOUT_MAX, -33), False),
        (10 ** 400, 5e-324, False),
        (10 ** 400, 0.0, True),
        (0, 1e300, True),
    ], ids=["at-the-bound", "just-above", "one-retry-more", "retries-past-float-range",
            "no-backoff", "no-retry"])
    def test_longest_backoff_bound(self, max_retries, backoff, accepted):
        # retry_backoff_s * 2**(max_retries - 1) against TIMEOUT_MAX, exact
        # and without overflow for any count of retries
        settings = dict(base_url="http://127.0.0.1:1/v1", model_name="m",
                        max_retries=max_retries, retry_backoff_s=backoff)
        if accepted:
            reasoning.LlmEndpointConfig(**settings)
        else:
            with pytest.raises(ConfigError, match="longest backoff"):
                reasoning.LlmEndpointConfig(**settings)

    @pytest.mark.parametrize("flags", [
        ["--max-retries", "1025", "--retry-backoff-s", "0", "--timeout-s", "0.2"],
        ["--timeout-s", str(threading.TIMEOUT_MAX)],
    ], ids=["backoffs-past-float-range", "timeout-at-the-bound"])
    def test_every_prediction_falls_back(self, workspace, tmp_path, flags):
        # 0 * 2**1024 once ended in "OverflowError: int too large to convert
        # to float" at attempt 1,024
        code, err = _run_quietly([*self._predict(workspace, tmp_path), *flags])
        assert (code, err) == (0, "")
        rows = [json.loads(line) for line in (tmp_path / "p.jsonl").read_text().splitlines()]
        assert len(rows) == 9 and {row["source"] for row in rows} == {"fallback_ml"}

    def test_longest_backoff_at_the_bound_is_waited(self, workspace, tmp_path):
        # time.sleep once failed on this wait ("data error: [Errno 22]
        # Invalid argument"), since the clock plus the delay passed what
        # the OS can hold. A server that closes every connection makes each
        # first attempt fail at once; the process must then be waiting.
        with socket.create_server(("127.0.0.1", 0)) as server:
            attempted = threading.Event()

            def refuse():
                with contextlib.suppress(OSError):
                    while True:
                        server.accept()[0].close()
                        attempted.set()

            threading.Thread(target=refuse, daemon=True).start()
            url = f"http://127.0.0.1:{server.getsockname()[1]}/v1"
            proc = subprocess.Popen(
                [sys.executable, "-m", "serhybrid.cli", *self._predict(workspace, tmp_path, url),
                 "--max-retries", "1", "--retry-backoff-s", str(threading.TIMEOUT_MAX),
                 "--timeout-s", "0.2"],
                env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__))),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            try:
                assert attempted.wait(60)
                with pytest.raises(subprocess.TimeoutExpired):
                    proc.wait(1.0)
            finally:
                proc.kill()
                _, err = proc.communicate()
                server.shutdown(socket.SHUT_RDWR)
        assert err == ""
        assert not (tmp_path / "p.jsonl").exists()


class TestPreprocess:
    def test_segments_and_manifest(self, tmp_path, capsys):
        in_dir = tmp_path / "raw"
        os.makedirs(in_dir)
        sr = 16000
        t = np.arange(2 * sr) / sr
        x = np.zeros(3 * sr)
        x[sr // 2:sr // 2 + 2 * sr] = 0.7 * np.sin(2 * np.pi * 150 * t)
        save_wav(in_dir / "take1.wav", AudioSignal(x, sr))
        (in_dir / "broken.wav").write_bytes(b"not audio")
        out_dir = tmp_path / "segments"
        assert cli.main(["preprocess", "--in-dir", str(in_dir),
                         "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "preprocess_report.json").read_text())
        assert report["files"] == 2
        assert report["segments"] >= 1
        assert [e["file"] for e in report["errors"]] == ["broken.wav"]
        assert (out_dir / "manifest.csv").exists()
        assert "1 files failed" in capsys.readouterr().out

    def test_unknown_source_kind_rejected_before_any_file_is_written(self, tmp_path,
                                                                      capsys):
        # it once wrote a manifest that features then rejected
        in_dir = tmp_path / "raw"
        os.makedirs(in_dir)
        save_wav(in_dir / "take1.wav", AudioSignal(np.full(16000, 0.5), 16000))
        out_dir = tmp_path / "segments"
        capsys.readouterr()
        code = cli.main(["preprocess", "--in-dir", str(in_dir), "--out-dir", str(out_dir),
                         "--source-kind", "bogus"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("configuration error: unknown source kind 'bogus'; known kinds: "
                       "movie, entertainment, interview, synthetic\n")
        assert not out_dir.exists()

    def test_file_name_not_utf8_is_one_failed_file(self, tmp_path, capsys):
        # its sample ids once reached the UTF-8 manifest writer, which ended
        # the run in a traceback after the segments were written
        in_dir = tmp_path / "raw"
        os.makedirs(in_dir)
        sr = 16000
        x = np.zeros(3 * sr)
        x[sr // 2:sr // 2 + 2 * sr] = 0.7 * np.sin(2 * np.pi * 150 * np.arange(2 * sr) / sr)
        save_wav(in_dir / "ok.wav", AudioSignal(x, sr))
        with open(os.path.join(os.fsencode(in_dir), b"caf\xe9.wav"), "wb") as fh:
            fh.write((in_dir / "ok.wav").read_bytes())
        out_dir = tmp_path / "segments"
        capsys.readouterr()
        assert cli.main(["preprocess", "--in-dir", str(in_dir),
                         "--out-dir", str(out_dir)]) == 0
        assert "1 files failed" in capsys.readouterr().out
        manifest = (out_dir / "manifest.csv").read_text(encoding="utf-8")
        assert [row["sample_id"] for row in csv.DictReader(io.StringIO(manifest))] == ["ok_0"]
        report = json.loads((out_dir / "preprocess_report.json").read_text())
        assert [e["file"] for e in report["errors"]] == [os.fsdecode(b"caf\xe9.wav")]
        assert sorted(os.listdir(out_dir)) == ["manifest.csv", "ok_0.wav",
                                               "preprocess_report.json"]

    def test_files_sharing_a_stem_keep_the_first(self, tmp_path, capsys):
        # x.WAV and x.wav once both wrote x_0.wav, and the manifest listed x_0
        # twice, which features then rejected
        sr = 16000
        t = np.arange(2 * sr) / sr
        recordings = {}
        for name, freq in (("x.WAV", 150.0), ("x.wav", 220.0)):
            x = np.zeros(3 * sr)
            x[sr // 2:sr // 2 + 2 * sr] = 0.7 * np.sin(2 * np.pi * freq * t)
            recordings[name] = AudioSignal(x, sr)
        in_dir, alone_dir = tmp_path / "raw", tmp_path / "raw-alone"
        os.makedirs(in_dir)
        os.makedirs(alone_dir)
        for name, signal in recordings.items():
            save_wav(in_dir / name, signal)
        save_wav(alone_dir / "x.WAV", recordings["x.WAV"])
        out_dir, alone_out = tmp_path / "segments", tmp_path / "segments-alone"
        capsys.readouterr()
        assert cli.main(["preprocess", "--in-dir", str(in_dir),
                         "--out-dir", str(out_dir)]) == 0
        assert capsys.readouterr().out.endswith("(1 files failed)\n")
        manifest = (out_dir / "manifest.csv").read_text(encoding="utf-8")
        assert [row["sample_id"] for row in csv.DictReader(io.StringIO(manifest))] == ["x_0"]
        report = json.loads((out_dir / "preprocess_report.json").read_text())
        assert report["errors"] == [{
            "file": "x.wav",
            "error": "x.wav has the stem 'x' of x.WAV, whose sample ids it would repeat"}]
        assert cli.main(["preprocess", "--in-dir", str(alone_dir),
                         "--out-dir", str(alone_out)]) == 0
        assert (out_dir / "x_0.wav").read_bytes() == (alone_out / "x_0.wav").read_bytes()
        assert cli.main(["features", "--manifest", str(out_dir / "manifest.csv"),
                         "--out", str(tmp_path / "features.csv")]) == 0

    def test_float_wav_with_a_nan_fails_at_the_clip(self, tmp_path, capsys):
        # features once wrote its NaN row to a CSV that train then rejected
        in_dir = tmp_path / "raw"
        os.makedirs(in_dir)
        x = (0.5 * np.sin(2 * np.pi * 150 * np.arange(16000) / 16000)).astype(np.float32)
        x[100] = np.nan
        scipy.io.wavfile.write(in_dir / "clip.wav", 16000, x)
        corpus.save_manifest(tmp_path / "manifest.csv", [
            corpus.ManifestEntry(sample_id="clip", audio_path=str(in_dir / "clip.wav"))])
        capsys.readouterr()
        code = cli.main(["features", "--manifest", str(tmp_path / "manifest.csv"),
                         "--out", str(tmp_path / "features.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: {in_dir / 'clip.wav'}: non-finite sample value\n")
        assert not (tmp_path / "features.csv").exists()
        assert cli.main(["preprocess", "--in-dir", str(in_dir),
                         "--out-dir", str(tmp_path / "segments")]) == 0
        report = json.loads((tmp_path / "segments" / "preprocess_report.json").read_text())
        assert report["errors"] == [{"file": "clip.wav", "error":
                                     f"{in_dir / 'clip.wav'}: non-finite sample value"}]

    @pytest.mark.parametrize("n_samples, error", [
        (100, "signal has 100 samples, frame needs 400"),
        (0, "cannot standardize an empty signal"),
    ], ids=["shorter-than-a-frame", "empty"])
    def test_a_clip_that_cannot_be_framed_is_named(self, tmp_path, capsys, n_samples, error):
        # features once printed the error alone, with no clip to find
        wav = tmp_path / "short.wav"
        scipy.io.wavfile.write(wav, 16000, np.zeros(n_samples, dtype=np.int16))
        corpus.save_manifest(tmp_path / "manifest.csv", [
            corpus.ManifestEntry(sample_id="short", audio_path=str(wav))])
        capsys.readouterr()
        code = cli.main(["features", "--manifest", str(tmp_path / "manifest.csv"),
                         "--out", str(tmp_path / "features.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"data error: {wav}: {error}\n"


@pytest.mark.parametrize("data", ["int16", "float32", "float32-nan"])
@pytest.mark.parametrize("rate", [0, 1, 7999, 8000, 44100, 384000, 400000])
def test_wav_header_rate_and_samples_never_end_in_a_traceback(tmp_path, rate, data):
    # 64 frames: at rate 1 the parent's resampler made about a million
    # samples, and 400,000 Hz reduces to 1/25
    in_dir = tmp_path / "raw"
    os.makedirs(in_dir)
    x = np.linspace(-0.5, 0.5, 64)
    x = np.round(x * 32767).astype(np.int16) if data == "int16" else x.astype(np.float32)
    if data == "float32-nan":
        x[7] = np.nan
    scipy.io.wavfile.write(in_dir / "clip.wav", rate, x)
    corpus.save_manifest(tmp_path / "manifest.csv", [
        corpus.ManifestEntry(sample_id="clip", audio_path=str(in_dir / "clip.wav"))])
    for argv in (["preprocess", "--in-dir", str(in_dir), "--out-dir", str(tmp_path / "out")],
                 ["features", "--manifest", str(tmp_path / "manifest.csv"),
                  "--out", str(tmp_path / "features.csv")]):
        code, err = _run_quietly(argv)
        assert code in (0, 2) and err.count("\n") <= 1 and "Traceback" not in err, err


class TestSynth:
    @pytest.mark.parametrize("flags, name", [
        (["--overlap", "2"], "overlap"), (["--duration-s", "0"], "duration_s"),
        (["--duration-s", "-1"], "duration_s"), (["--seed", "-1"], "seed"),
    ], ids=["overlap-two", "duration-zero", "duration-negative", "seed-negative"])
    def test_out_of_range_is_one_configuration_error_line(self, tmp_path, capsys,
                                                          flags, name):
        capsys.readouterr()
        code = cli.main(["synth", "--out-dir", str(tmp_path / "d"), "--n-per-class", "1",
                         *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert name in err


def _predict_split(ws, tmp_path, split):
    return ["predict", "--manifest", ws["manifest"], "--features", ws["features"],
            "--model", ws["model"], "--stats", ws["stats"], "--version", "v4_hybrid",
            "--tau", "0", "--split", split, "--endpoint-url", "http://127.0.0.1:1/v1",
            "--model-name", "m", "--out", str(tmp_path / "p.jsonl")]


def _compare_split(ws, tmp_path, split):
    return ["compare", "--manifest", ws["manifest"], "--features", ws["features"],
            "--model", ws["model"], "--stats", ws["stats"], "--split", split,
            "--endpoint-url", "http://127.0.0.1:1/v1", "--model-name", "m",
            "--out-dir", str(tmp_path / "ablation")]


def _train_split(ws, tmp_path, split):
    return ["train", "--manifest", ws["manifest"], "--features", ws["features"],
            "--split", split, "--model-out", str(tmp_path / "model.json")]


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["predict", "compare"])
def test_non_finite_tau_is_one_configuration_error_line(workspace, tmp_path, capsys,
                                                        command, tau):
    # a NaN tau once routed every sample and wrote "tau": NaN, which is not JSON
    argv = (_predict_split if command == "predict" else _compare_split)(
        workspace, tmp_path, "all")
    capsys.readouterr()
    code = cli.main([*argv, f"--tau={tau}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"configuration error: tau must be a finite number, got {float(tau)}\n"
    assert not (tmp_path / "p.jsonl").exists()
    assert not (tmp_path / "ablation").exists() or not os.listdir(tmp_path / "ablation")


@pytest.mark.parametrize("command", [_predict_split, _compare_split],
                         ids=["predict", "compare"])
def test_failed_rule_generation_is_one_data_error_line(workspace, tmp_path, capsys,
                                                       command):
    # v5 needs its generated rules; the request to a closed port fails, and
    # that once ended in an LlmTransportError traceback
    argv = command(workspace, tmp_path, "all")
    if argv[0] == "predict":
        argv += ["--version", "v5_auto"]
    capsys.readouterr()
    code = cli.main([*argv, "--max-retries", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("data error: ") and err.count("\n") == 1, err
    assert "rule generation" in err
    assert not (tmp_path / "p.jsonl").exists()
    # compare once wrote v1-v4's predictions and reports before v5 failed
    assert not (tmp_path / "ablation").exists() or not os.listdir(tmp_path / "ablation")


@pytest.mark.parametrize("split", ["tset", ""], ids=["tset", "empty"])
@pytest.mark.parametrize("command", [_predict_split, _compare_split, _train_split],
                         ids=["predict", "compare", "train"])
def test_unknown_split_is_one_configuration_error_line(workspace, tmp_path, capsys,
                                                       command, split):
    capsys.readouterr()
    code = cli.main(command(workspace, tmp_path, split))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"configuration error: unknown split {split!r}; ")
    assert err.count("\n") == 1 and "set1, set2, set3, test, unassigned, all" in err
    assert not (tmp_path / "p.jsonl").exists() and not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("command", [_predict_split, _compare_split, _train_split],
                         ids=["predict", "compare", "train"])
def test_empty_split_is_one_data_error_line(workspace, tmp_path, capsys, command):
    # a synth corpus assigns no split, so set1 selects nothing; predict once
    # wrote 0 predictions and exited 0, and train and compare failed on
    # the empty selection without naming the split
    capsys.readouterr()
    code = cli.main(command(workspace, tmp_path, "set1"))
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"data error: split 'set1' selects no entries of {workspace['manifest']}\n"
    assert not (tmp_path / "p.jsonl").exists() and not (tmp_path / "model.json").exists()
    assert not (tmp_path / "ablation").exists()


def test_manifest_with_byte_order_mark(workspace, tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(b"\xef\xbb\xbf" + Path(workspace["manifest"]).read_bytes())
    out = tmp_path / "features.csv"
    assert cli.main(["features", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert out.read_bytes() == Path(workspace["features"]).read_bytes()


def test_outputs_are_utf8_whatever_the_locale(workspace, tmp_path):
    # under an ASCII locale the features CSV was once written in the
    # locale's encoding, and a Vietnamese sample id ended in a traceback
    words = {"calm": "bình_tĩnh", "angry": "giận_dữ", "panic": "hoảng_loạn"}
    with open(workspace["manifest"], encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["sample_id"] = f"{words[row['gold']]}_{row['sample_id']}"
    manifest, features = tmp_path / "manifest.csv", tmp_path / "features.csv"
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0")
    proc = subprocess.run([sys.executable, "-m", "serhybrid.cli", "features", "--manifest",
                           str(manifest), "--out", str(features)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    ids = [row[1] for row in csv.reader(io.StringIO(features.read_bytes().decode("utf-8")))]
    assert ids[1:] == [row["sample_id"] for row in rows]
    assert cli.main(["train", "--manifest", str(manifest), "--features", str(features),
                     "--model-out", str(tmp_path / "model.json")]) == 0


def _json_file(doc):
    return json.dumps(doc, indent=2).encode()


@pytest.fixture(scope="module")
def inputs(workspace):
    """A valid file of each of the ten kinds the CLI reads, and a command
    that reads it. Each command's output goes to a directory (synth's to a
    regular file), so a command that gets past its readers still ends in a
    data error: every run exits 1 or 2."""
    root = workspace["root"] / "inputs"
    sink = str(root / "sink")
    os.makedirs(sink)
    sink_file = root / "sink.txt"
    sink_file.write_text("")
    manifest_lines = Path(workspace["manifest"]).read_text().splitlines()
    rows = [line.split(",") for line in manifest_lines[1:]]
    files = {
        "config": _json_file({"n_per_class": 3, "seed": 5, "duration_s": 0.8,
                              "overlap": 0.25}),
        "rules": default_ruleset().to_json().encode(),
        "proposals": _json_file(_valid_proposals()),
        "stats": Path(workspace["stats"]).read_bytes(),
        "model": Path(workspace["model"]).read_bytes(),
        "features": Path(workspace["features"]).read_bytes(),
        "manifest": Path(workspace["manifest"]).read_bytes(),
        "transcripts": ("sample_id,transcript\n"
                        + "".join(f"{r[0]},i am so {r[2]}\n" for r in rows)).encode(),
        "annotations": ("sample_id,annotator_a,annotator_b,annotator_c\n"
                        + "".join(f"{r[0]},{r[2]},{r[2]},calm\n" for r in rows)).encode(),
    }
    paths = {kind: str(root / f"{kind}.valid") for kind in INPUT_KINDS}
    for kind, data in files.items():
        with open(paths[kind], "wb") as fh:
            fh.write(data)
    offline = ("--endpoint-url", "http://127.0.0.1:1/v1", "--model-name", "m",
               "--max-retries", "0")

    def predict(out=sink, **inputs):
        p = {**paths, **inputs}
        return ["predict", "--manifest", p["manifest"], "--features", p["features"],
                "--model", p["model"], "--stats", p["stats"], "--version", "v4_hybrid",
                "--tau", "0", *offline, "--out", out]

    assert cli.main(predict(out=paths["predictions"])) == 0
    files["predictions"] = Path(paths["predictions"]).read_bytes()
    commands = {
        "config": lambda f: ["--config", f, "synth", "--out-dir", str(sink_file)],
        "rules": lambda f: ["refine", "--apply", paths["proposals"], "--rules", f,
                            "--rules-out", sink],
        "proposals": lambda f: ["refine", "--apply", f, "--rules", paths["rules"],
                                "--rules-out", sink],
        "stats": lambda f: predict(stats=f),
        "model": lambda f: predict(model=f),
        "features": lambda f: predict(features=f),
        "manifest": lambda f: ["features", "--manifest", f, "--out", sink],
        "predictions": lambda f: ["evaluate", "--predictions", f,
                                  "--manifest", paths["manifest"], "--out", sink],
        "transcripts": lambda f: ["predict", "--manifest", paths["manifest"],
                                  "--version", "text_baseline", "--transcripts", f,
                                  *offline, "--out", sink],
        "annotations": lambda f: ["kappa", "--annotations", f, "--out", sink],
    }
    configs = _valid_configs(root, {**paths, "sink": sink, "sink_file": str(sink_file)})
    return _Inputs(root=root, files=files, commands=commands, configs=configs)


# a valid value of every setting, by name; where subcommands share a
# name, the value is valid for each of them
def _setting_values(p):
    return {
        "in_dir": str(p["root"]), "out_dir": p["sink_file"], "source_kind": "synthetic",
        "manifest": p["manifest"], "out": p["sink"], "stats_out": p["sink"],
        "features": p["features"], "model_out": p["sink"],
        "split": "all", "model": p["model"],
        "stats": p["stats"], "rules": p["rules"], "version": "v4_hybrid", "tau": 0.0,
        "transcripts": p["transcripts"], "endpoint_url": "http://127.0.0.1:1/v1",
        "model_name": "m", "cache": p["sink"], "max_in_flight": 1, "timeout_s": 1.0,
        "max_retries": 0, "retry_backoff_s": 0.01, "api_key_ref": "SERHYBRID_API_KEY",
        "report": p["sink"], "predictions": p["predictions"],
        "annotations": p["annotations"], "refined_rules": p["rules"],
        "proposals_out": p["sink"], "min_support": 2,
        "accept_all": True, "apply": p["proposals"], "rules_out": p["sink"],
        "n_per_class": 3, "overlap": 0.25, "seed": 5, "duration_s": 0.8,
    }


# settings that are also given as flags, which win over the config: the
# outputs, so a run that gets past its config still ends at the sink
_FLAG_SETTINGS = ("out", "out_dir", "stats_out", "model_out", "report", "proposals_out",
                  "rules_out", "cache")


def _valid_configs(root, paths):
    """For each subcommand of cli.COMMANDS, a config file that gives every
    one of its settings, and a command line that reads it."""
    values = _setting_values({**paths, "root": root})
    configs = {}
    for command, (_, _, settings) in cli.COMMANDS.items():
        doc = {name: values[name] for name, _ in settings}
        flags = [word for name in _FLAG_SETTINGS if name in doc
                 for word in ("--" + name.replace("_", "-"), str(values[name]))]
        configs[command] = (_json_file(doc),
                            lambda f, command=command, flags=flags: ["--config", f, command,
                                                                     *flags])
    return configs


class _Inputs(SimpleNamespace):
    def __repr__(self):  # falsifying examples print this, not ten files
        return "inputs"


# exit code of a file of each kind that its reader rejects
INPUT_KINDS = {"config": 1, "rules": 1, "proposals": 1, "stats": 1, "manifest": 1,
               "model": 2, "predictions": 2, "features": 2, "transcripts": 2,
               "annotations": 2}


def _run_quietly(argv):
    """cli.main's exit code and stderr, its stdout discarded. A warning
    counts as the stderr line that a run outside pytest would print."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, "".join(f"{w.category.__name__}: {w.message}\n" for w in caught) + err.getvalue()


def _assert_one_error_line(code, err):
    assert code in (1, 2), err
    assert err.startswith(("configuration error: ", "data error: ")), err
    assert err.count("\n") == 1 and "Traceback" not in err, err


@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_valid_inputs_end_at_the_output_sink(inputs, kind):
    code, err = _run_quietly(inputs.commands[kind](str(inputs.root / f"{kind}.valid")))
    _assert_one_error_line(code, err)
    assert code == 2 and "sink" in err, err


@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_undecodable_file_keeps_its_exit_code(inputs, kind):
    # a UTF-16 byte-order mark is not UTF-8
    path = inputs.root / f"{kind}.utf16"
    path.write_bytes(b"\xff\xfe" + inputs.files[kind])
    code, err = _run_quietly(inputs.commands[kind](str(path)))
    _assert_one_error_line(code, err)
    assert code == INPUT_KINDS[kind] and f"{path}: not UTF-8 text" in err, err


@pytest.mark.parametrize("case", ["repeated-id", "missing-cell"])
def test_transcripts_name_a_repeated_id_and_a_missing_cell(inputs, case):
    lines = inputs.files["transcripts"].decode().splitlines()
    first = lines[1].split(",")[0]
    if case == "repeated-id":
        lines.append(f"{first},again")
        message = f"line {len(lines)}: duplicate sample_id {first!r}"
    else:
        lines[1] = first
        message = "line 2: 1 cells, the header names 2"
    path = inputs.root / f"transcripts.{case}"
    path.write_text("\n".join(lines) + "\n")
    code, err = _run_quietly(inputs.commands["transcripts"](str(path)))
    assert (code, err) == (2, f"data error: {path} {message}\n")


@pytest.mark.parametrize("kind", ["manifest", "features", "transcripts", "annotations"])
def test_oversized_csv_cell_keeps_its_exit_code(inputs, kind):
    # the csv module refuses a field over 131,072 characters
    rows = list(csv.reader(io.StringIO(inputs.files[kind].decode(), newline="")))
    rows[1][1] = "x" * 200_000
    path = inputs.root / f"{kind}.oversized"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    code, err = _run_quietly(inputs.commands[kind](str(path)))
    _assert_one_error_line(code, err)
    assert code == INPUT_KINDS[kind], err
    assert f"{path} line 2: field larger than field limit (131072)" in err, err


@pytest.mark.parametrize("case", ["extra-cell", "missing-cell", "repeated-column",
                                  "repeated-id"])
@pytest.mark.parametrize("kind", ["manifest", "features", "transcripts", "annotations"])
def test_malformed_csv_row_keeps_its_exit_code(inputs, kind, case):
    # each CSV kind once checked row lengths, repeated columns and repeated
    # sample ids in its own way, and some not at all
    rows = list(csv.reader(io.StringIO(inputs.files[kind].decode(), newline="")))
    path, code, n = inputs.root / f"{kind}.{case}", INPUT_KINDS[kind], len(rows[0])
    if case == "extra-cell":
        rows[1].append("x")
        message = f"{path} line 2: {n + 1} cells, the header names {n}"
    elif case == "missing-cell":
        rows[1].pop()
        message = f"{path} line 2: {n - 1} cells, the header names {n}"
    elif case == "repeated-column":
        rows[0].append(rows[0][0])
        message = f"{path}: the header repeats columns: {rows[0][0]}"
    else:
        rows.append(rows[1])
        sample_id = rows[1][rows[0].index("sample_id")]
        code, message = 2, f"{path} line {len(rows)}: duplicate sample_id {sample_id!r}"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    family = "configuration error" if code == 1 else "data error"
    assert _run_quietly(inputs.commands[kind](str(path))) == (code, f"{family}: {message}\n")


def _retagged_prediction(text, tag):
    lines = [json.loads(line) for line in text.splitlines()]
    if tag is None:
        del lines[1]["schema"]
    else:
        lines[1]["schema"] = tag
    return "".join(json.dumps(line) + "\n" for line in lines)


def _retagged_features(text, tag):
    rows = list(csv.reader(io.StringIO(text, newline="")))
    rows[1][0] = tag or ""
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


@pytest.mark.parametrize("tag", ["x", None], ids=["tag-x", "no-tag"])
@pytest.mark.parametrize("kind, retag, schema", [
    ("predictions", _retagged_prediction, "serhybrid-pred-v1"),
    ("features", _retagged_features, "serhybrid-features-v1"),
])
def test_wrong_schema_tag_is_one_data_error_line(inputs, kind, retag, schema, tag):
    path = inputs.root / f"{kind}.retagged"
    path.write_text(retag(inputs.files[kind].decode(), tag))
    code, err = _run_quietly(inputs.commands[kind](str(path)))
    got = repr(tag) if kind == "predictions" else repr(tag or "")
    assert code == 2
    assert err == f"data error: {path} line 2: expected schema {schema!r}, got {got}\n"


def test_setting_values_cover_the_settings_table():
    values = _setting_values({name: "x" for name in (
        "root", "sink", "sink_file", *INPUT_KINDS)})
    for _, _, settings in cli.COMMANDS.values():
        for name, kind in settings:
            assert isinstance(values[name], kind), name


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_valid_config_of_each_command_ends_at_the_output_sink(inputs, command):
    valid, run = inputs.configs[command]
    path = inputs.root / f"config-{command}.valid"
    path.write_bytes(valid)
    code, err = _run_quietly(run(str(path)))
    _assert_one_error_line(code, err)
    assert code == 2 and "sink" in err, err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                               inner, max_size=3),
    max_leaves=4)


def _json_paths(doc, prefix=()):
    """The key path of every value below ``doc``."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


def _swap_json(doc, data):
    path = data.draw(st.sampled_from(list(_json_paths(doc))))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(_JSON_VALUES)
    return doc


def _swapped(kind, valid, data):
    """``valid`` with one JSON value or CSV cell swapped for an arbitrary one."""
    text = valid.decode()
    if kind == "predictions":
        lines = [json.loads(line) for line in text.splitlines()]
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = _swap_json(lines[i], data)
        return "".join(json.dumps(line) + "\n" for line in lines).encode()
    if kind in ("manifest", "features", "transcripts", "annotations"):
        rows = list(csv.reader(io.StringIO(text, newline="")))
        r = data.draw(st.integers(0, len(rows) - 1))
        rows[r][data.draw(st.integers(0, len(rows[r]) - 1))] = data.draw(st.text())
        out = io.StringIO()
        csv.writer(out).writerows(rows)
        return out.getvalue().encode()
    return json.dumps(_swap_json(json.loads(text), data)).encode()


@pytest.mark.parametrize("kind", INPUT_KINDS)
@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data())
def test_fuzzed_input_is_one_error_line(inputs, kind, data):
    """The CLI fuzz gate: random bytes, a truncation, or one swapped value
    in place of a valid file of each kind end in one error line, never a
    traceback."""
    valid = inputs.files[kind]
    how = data.draw(st.sampled_from(["random bytes", "truncation", "swapped value"]))
    if how == "random bytes":
        mutant = data.draw(st.binary(max_size=200))
    elif how == "truncation":
        mutant = valid[:data.draw(st.integers(0, len(valid) - 1))]
    else:
        mutant = _swapped(kind, valid, data)
    path = inputs.root / f"{kind}.fuzzed"
    path.write_bytes(mutant)
    _assert_one_error_line(*_run_quietly(inputs.commands[kind](str(path))))


_DECLARED = sorted({name for _, _, settings in cli.COMMANDS.values() for name, _ in settings})


@pytest.mark.parametrize("command", cli.COMMANDS)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_fuzzed_config_is_one_error_line(inputs, command, data):
    """The config fuzz gate: a config giving every setting of a subcommand
    with one value swapped for an arbitrary JSON value, or one key renamed
    to another subcommand's setting or to arbitrary text, ends in one error
    line, never a traceback."""
    valid, run = inputs.configs[command]
    doc = json.loads(valid)
    if data.draw(st.booleans()):
        doc[data.draw(st.sampled_from(sorted(doc)))] = data.draw(_JSON_VALUES)
    else:
        key = data.draw(st.sampled_from(sorted(doc)))
        doc[data.draw(st.sampled_from(_DECLARED) | st.text(max_size=8))] = doc.pop(key)
    path = inputs.root / f"config-{command}.fuzzed"
    path.write_text(json.dumps(doc))
    _assert_one_error_line(*_run_quietly(run(str(path))))
