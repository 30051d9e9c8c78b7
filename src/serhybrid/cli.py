"""Command-line entry point wiring the pipeline together.

Subcommands: preprocess, features, train, predict, evaluate, kappa,
refine, synth, compare. A JSON config file can supply defaults for any
flag (flags win); every run report embeds the resolved configuration.
Exit codes: 0 success, 1 configuration error, 2 data error.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import audio_io, classifier, corpus, evaluation, hybrid, refine, reasoning
from .errors import ConfigError, DataError, PipelineError
from .features import (CorpusStats, aggregate, extract_series,
                       read_features_csv, write_features_csv)
from .labels import CLASSES
from .reasoning import HttpLlmClient, LlmEndpointConfig, PromptVersion


def _load_config(path):
    if not path:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(config, dict):
        raise ConfigError(f"config {path}: expected a JSON object, got {type(config).__name__}")
    return config


def _resolved(args, config):
    """Config-file values fill in flags the user left at None; flags win."""
    merged = dict(config)
    for key, value in vars(args).items():
        if value is not None:
            merged[key] = value
    return merged


def _require(cfg, *keys):
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ConfigError(f"missing required options: {', '.join('--' + m.replace('_', '-') for m in missing)}")


# LLM client settings a config file or flag may give; LlmEndpointConfig
# holds their defaults
_CLIENT_SETTINGS = (("timeout_s", float), ("max_retries", int),
                    ("max_in_flight", int), ("retry_backoff_s", float))


def _endpoint(cfg):
    _require(cfg, "endpoint_url", "model_name")
    settings = {}
    for key, kind in _CLIENT_SETTINGS:
        if key not in cfg:
            continue
        try:
            settings[key] = kind(cfg[key])
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be a number, got {cfg[key]!r}")
    try:
        return LlmEndpointConfig(base_url=cfg["endpoint_url"], model_name=cfg["model_name"],
                                 api_key_ref=cfg.get("api_key_ref", "SERHYBRID_API_KEY"),
                                 **settings)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _client(cfg):
    return HttpLlmClient(_endpoint(cfg), cache_dir=cfg.get("cache"))


def _gold_by_id(entries, split=None):
    selected = [e for e in entries if split in (None, "all") or e.split == split]
    missing = [e.sample_id for e in selected if e.gold is None]
    if missing:
        raise DataError(f"entries without gold labels: {missing[:5]}")
    return {e.sample_id: e.gold for e in selected}, selected


def _load_rules_arg(cfg, key="rules"):
    path = cfg.get(key)
    if path:
        return reasoning.load_rules(path)
    return reasoning.default_ruleset()


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_preprocess(cfg):
    _require(cfg, "in_dir", "out_dir")
    in_dir, out_dir = cfg["in_dir"], cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    errors = []
    names = sorted(f for f in os.listdir(in_dir) if f.lower().endswith(".wav"))
    for name in names:
        path = os.path.join(in_dir, name)
        parent_id = os.path.splitext(name)[0]
        try:
            raw = audio_io.load_audio(path)
            std = audio_io.standardize(raw)
            std = audio_io.AudioSignal(std.samples, std.sample_rate,
                                       source_id=parent_id, degenerate=std.degenerate)
            intervals = audio_io.detect_voice_activity(
                std,
                energy_floor_db=float(cfg.get("energy_floor_db", -40.0)),
                hangover_frames=int(cfg.get("hangover_frames", 5)))
            segments = audio_io.segment(std, intervals,
                                        max_len_s=float(cfg.get("max_len_s", 10.0)),
                                        min_len_s=float(cfg.get("min_len_s", 0.5)))
        except PipelineError as exc:
            errors.append({"file": name, "error": str(exc)})
            continue
        for idx, seg in enumerate(segments):
            sample_id = f"{parent_id}_{idx}"
            seg_path = os.path.join(out_dir, sample_id + ".wav")
            audio_io.save_wav(seg_path, seg.signal)
            entries.append(corpus.ManifestEntry(
                sample_id=sample_id, audio_path=seg_path,
                source_kind=cfg.get("source_kind", "synthetic"),
                duration_s=seg.duration_seconds))
    manifest_path = os.path.join(out_dir, "manifest.csv")
    corpus.save_manifest(manifest_path, entries)
    _write_json(os.path.join(out_dir, "preprocess_report.json"),
                {"config": {k: v for k, v in cfg.items() if k != "func"},
                 "files": len(names), "segments": len(entries), "errors": errors})
    print(f"wrote {len(entries)} segments from {len(names)} files to {out_dir}"
          + (f" ({len(errors)} files failed)" if errors else ""))
    return 0


def _extract_manifest_features(entries):
    rows = []
    for entry in entries:
        raw = audio_io.load_audio(entry.audio_path)
        std = audio_io.standardize(raw)
        rows.append((entry.sample_id, aggregate(extract_series(std))))
    return rows


def cmd_features(cfg):
    _require(cfg, "manifest", "out")
    entries = corpus.load_manifest(cfg["manifest"])
    rows = _extract_manifest_features(entries)
    write_features_csv(cfg["out"], rows)
    if cfg.get("stats_out"):
        stats = CorpusStats.from_vectors([v for _, v in rows])
        with open(cfg["stats_out"], "w") as fh:
            fh.write(stats.to_json())
    print(f"extracted features for {len(rows)} samples -> {cfg['out']}")
    return 0


def cmd_train(cfg):
    _require(cfg, "manifest", "features", "model_out")
    entries = corpus.load_manifest(cfg["manifest"])
    gold, selected = _gold_by_id(entries, cfg.get("split"))
    feats = read_features_csv(cfg["features"])
    hybrid.require_all(selected, feats, "feature vectors")
    vectors = [feats[e.sample_id] for e in selected]
    labels = [gold[e.sample_id] for e in selected]
    model = classifier.train(vectors, labels,
                             C=float(cfg.get("svm_c", 1.0)),
                             tol=float(cfg.get("svm_tol", 1e-3)))
    model.save(cfg["model_out"])
    correct = sum(classifier.predict(model, v).label == y
                  for v, y in zip(vectors, labels))
    print(f"trained on {len(vectors)} samples; training accuracy "
          f"{correct / len(vectors):.4f}; model -> {cfg['model_out']}")
    return 0


def _load_transcripts(path):
    out = {}
    if str(path).endswith(".jsonl"):
        with open(path) as fh:
            for n, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    doc = json.loads(line)
                    out[doc["sample_id"]] = doc["transcript"]
                except (KeyError, TypeError, ValueError) as exc:
                    raise DataError(f"{path} line {n}: needs sample_id and "
                                    f"transcript ({type(exc).__name__}: {exc})")
    else:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in ("sample_id", "transcript")
                       if c not in (reader.fieldnames or ())]
            if missing:
                raise DataError(f"{path}: transcripts lack columns: {', '.join(missing)}")
            for row in reader:
                out[row["sample_id"]] = row["transcript"]
    return out


def cmd_predict(cfg):
    _require(cfg, "manifest", "out", "version")
    entries = corpus.load_manifest(cfg["manifest"])
    if cfg.get("split") and cfg["split"] != "all":
        entries = [e for e in entries if e.split == cfg["split"]]
    client = _client(cfg)
    version_name = cfg["version"]
    if version_name == hybrid.TEXT_BASELINE:
        _require(cfg, "transcripts")
        transcripts = _load_transcripts(cfg["transcripts"])
        predictions, report = hybrid.run_text_baseline(entries, transcripts, client)
    else:
        try:
            version = PromptVersion(version_name)
        except ValueError:
            raise ConfigError(f"unknown version {version_name!r}")
        _require(cfg, "features", "model", "stats")
        feats = read_features_csv(cfg["features"])
        model = classifier.SvmModel.load(cfg["model"])
        stats = CorpusStats.load(cfg["stats"])
        rules = _load_rules_arg(cfg)
        predictions, report = hybrid.run_pipeline(
            entries, feats, model, rules, stats, client, version,
            tau=float(cfg.get("tau", hybrid.DEFAULT_TAU)))
    hybrid.write_predictions(cfg["out"], predictions)
    report["config"] = {k: v for k, v in cfg.items() if k != "func"}
    if cfg.get("report"):
        _write_json(cfg["report"], report)
    print(f"wrote {len(predictions)} predictions -> {cfg['out']} "
          f"(routed to LLM: {report['routed_to_llm']})")
    return 0


def cmd_evaluate(cfg):
    _require(cfg, "predictions", "manifest")
    predictions = hybrid.read_predictions(cfg["predictions"])
    entries = corpus.load_manifest(cfg["manifest"])
    gold, _ = _gold_by_id(entries)
    preds = {p.sample_id: p.label for p in predictions}
    gold = {sid: gold[sid] for sid in preds if sid in gold}
    report = evaluation.metrics(preds, gold)
    cm = refine.ConfusionMatrix.from_predictions(
        predictions, {p.sample_id: gold[p.sample_id] for p in predictions})
    print(cm.render())
    print(f"accuracy {report.accuracy:.4f}  macro-F1 {report.macro_f1:.4f}")
    if cfg.get("out"):
        _write_json(cfg["out"], {"metrics": report.to_dict(),
                                 "confusion": cm.counts.tolist(),
                                 "classes": list(CLASSES)})
    return 0


ANNOTATORS = ("annotator_a", "annotator_b", "annotator_c")


def cmd_kappa(cfg):
    _require(cfg, "annotations")
    rows = []
    with open(cfg["annotations"], newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in ANNOTATORS if c not in (reader.fieldnames or ())]
        if missing:
            raise DataError(f"annotation file lacks columns: {', '.join(missing)}")
        for row in reader:
            labels = tuple(row[c] for c in ANNOTATORS)
            for column, label in zip(ANNOTATORS, labels):
                if label not in CLASSES:
                    raise DataError(
                        f"annotation line {reader.line_num} ({row.get('sample_id')}): "
                        f"{column} label {label!r} is not one of {', '.join(CLASSES)}")
            rows.append(labels)
    if not rows:
        raise DataError("annotation file has no rows")
    table = np.zeros((len(rows), len(CLASSES)), dtype=np.int64)
    for i, labels in enumerate(rows):
        for label in labels:
            table[i, CLASSES.index(label)] += 1
    fleiss = evaluation.fleiss_kappa(table)
    pairs = {"A-B": (0, 1), "A-C": (0, 2), "B-C": (1, 2)}
    cohens = {name: evaluation.cohens_kappa([r[i] for r in rows], [r[j] for r in rows])
              for name, (i, j) in pairs.items()}
    numeric = [v for v in cohens.values() if v is not evaluation.UNDEFINED]
    avg = sum(numeric) / len(numeric) if numeric else evaluation.UNDEFINED

    def fmt(v):
        return f"{v:.4f}" if v is not evaluation.UNDEFINED else "UNDEFINED"

    print(f"Fleiss kappa: {fmt(fleiss)}")
    print(f"Avg pairwise Cohen kappa: {fmt(avg)}")
    for name, v in cohens.items():
        print(f"Cohen kappa {name}: {fmt(v)}")
    if cfg.get("out"):
        _write_json(cfg["out"], {
            "fleiss_kappa": None if fleiss is evaluation.UNDEFINED else fleiss,
            "avg_pairwise": None if avg is evaluation.UNDEFINED else avg,
            "pairwise": {k: (None if v is evaluation.UNDEFINED else v)
                         for k, v in cohens.items()},
            "n_items": len(rows)})
    return 0


def cmd_refine(cfg):
    if cfg.get("apply"):
        _require(cfg, "rules", "rules_out")
        rules = reasoning.load_rules(cfg["rules"])
        proposals = refine.read_proposals(cfg["apply"])
        accepted = [p for p in proposals if p.status == "accepted"]
        new_rules = refine.apply_refinement(rules, accepted)
        new_rules.save(cfg["rules_out"])
        print(f"accepted {len(accepted)} proposals; rule set version "
              f"{rules.version} -> {new_rules.version} at {cfg['rules_out']}")
        return 0
    _require(cfg, "predictions", "manifest", "features", "stats", "proposals_out")
    predictions = hybrid.read_predictions(cfg["predictions"])
    entries = corpus.load_manifest(cfg["manifest"])
    gold, _ = _gold_by_id(entries)
    feats = read_features_csv(cfg["features"])
    stats = CorpusStats.load(cfg["stats"])
    hybrid.require_all(predictions, gold, "gold labels")
    hybrid.require_all(predictions, feats, "feature vectors")
    errors, correct = [], []
    for p in predictions:
        g = gold[p.sample_id]
        v = feats[p.sample_id]
        if p.label == g:
            correct.append(refine.CorrectSample(p.sample_id, g, v))
        else:
            errors.append(refine.ErrorSample(p.sample_id, g, p.label, v))
    patterns = refine.mine_error_patterns(errors, correct, stats,
                                          min_support=int(cfg.get("min_support", 5)))
    base_version = int(cfg.get("base_version", 1))
    if cfg.get("rules"):
        base_version = reasoning.load_rules(cfg["rules"]).version
    proposals = refine.propose_rules(patterns, base_version)
    if cfg.get("accept_all"):
        proposals = [refine.RuleProposal(p.candidate, p.pattern, "accepted",
                                         p.base_version) for p in proposals]
    refine.write_proposals(cfg["proposals_out"], proposals)
    for pattern in patterns:
        top = pattern.top_deltas[0]
        print(f"pattern {pattern.gold}->{pattern.predicted} (support "
              f"{pattern.support}): top delta {top.dimension} d={top.effect_size:+.2f}")
    print(f"{len(proposals)} proposals -> {cfg['proposals_out']} "
          "(edit status to 'accepted', then rerun with --apply)")
    return 0


def cmd_synth(cfg):
    _require(cfg, "out_dir")
    recipe = corpus.SynthRecipe(
        overlap=float(cfg.get("overlap", 0.0)),
        seed=int(cfg.get("seed", 0)),
        duration_s=float(cfg.get("duration_s", 2.0)),
        n_per_class=int(cfg.get("n_per_class", 50)))
    entries = corpus.generate_synthetic_corpus(recipe, cfg["out_dir"])
    print(f"generated {len(entries)} samples -> {cfg['out_dir']}/manifest.csv")
    return 0


def cmd_compare(cfg):
    _require(cfg, "manifest", "features", "model", "stats", "out_dir")
    os.makedirs(cfg["out_dir"], exist_ok=True)
    entries = corpus.load_manifest(cfg["manifest"])
    if cfg.get("split") and cfg["split"] != "all":
        entries = [e for e in entries if e.split == cfg["split"]]
    gold, _ = _gold_by_id(entries)
    feats = read_features_csv(cfg["features"])
    model = classifier.SvmModel.load(cfg["model"])
    stats = CorpusStats.load(cfg["stats"])
    seed_rules = _load_rules_arg(cfg, "rules")
    refined_rules = (reasoning.load_rules(cfg["refined_rules"])
                     if cfg.get("refined_rules") else seed_rules)
    client = _client(cfg)
    tau = float(cfg.get("tau", hybrid.DEFAULT_TAU))
    rules_for = {
        PromptVersion.v1_basic: seed_rules,
        PromptVersion.v2_rules: seed_rules,
        PromptVersion.v3_refined: refined_rules,
        PromptVersion.v4_hybrid: refined_rules,
        PromptVersion.v5_auto: seed_rules,  # replaced by auto-generated rules
    }
    runs = []
    for version in PromptVersion:
        predictions, report = hybrid.run_pipeline(
            entries, feats, model, rules_for[version], stats, client, version,
            tau=tau)
        hybrid.write_predictions(
            os.path.join(cfg["out_dir"], f"predictions_{version.value}.jsonl"),
            predictions)
        rep = evaluation.metrics({p.sample_id: p.label for p in predictions}, gold)
        report["metrics"] = rep.to_dict()
        _write_json(os.path.join(cfg["out_dir"], f"report_{version.value}.json"),
                    report)
        runs.append((version.value, rep))
    text, doc = evaluation.compare_report(runs)
    doc["config"] = {k: v for k, v in cfg.items() if k != "func"}
    with open(os.path.join(cfg["out_dir"], "compare.txt"), "w") as fh:
        fh.write(text + "\n")
    _write_json(os.path.join(cfg["out_dir"], "compare.json"), doc)
    print(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="serhybrid",
        description="Hybrid speech emotion recognition pipeline")
    parser.add_argument("--config", help="JSON config file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="standardize, VAD-filter and segment raw WAVs")
    p.add_argument("--in-dir", dest="in_dir")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--energy-floor-db", dest="energy_floor_db", type=float)
    p.add_argument("--hangover-frames", dest="hangover_frames", type=int)
    p.add_argument("--max-len-s", dest="max_len_s", type=float)
    p.add_argument("--min-len-s", dest="min_len_s", type=float)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("features", help="extract feature vectors for a manifest")
    p.add_argument("--manifest")
    p.add_argument("--out")
    p.add_argument("--stats-out", dest="stats_out")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train the SVM classifier")
    p.add_argument("--manifest")
    p.add_argument("--features")
    p.add_argument("--model-out", dest="model_out")
    p.add_argument("--split")
    p.add_argument("--svm-c", dest="svm_c", type=float)
    p.add_argument("--svm-tol", dest="svm_tol", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="run inference over a manifest")
    p.add_argument("--manifest")
    p.add_argument("--features")
    p.add_argument("--model")
    p.add_argument("--stats")
    p.add_argument("--rules")
    p.add_argument("--version")
    p.add_argument("--tau", type=float)
    p.add_argument("--split")
    p.add_argument("--transcripts")
    p.add_argument("--endpoint-url", dest="endpoint_url")
    p.add_argument("--model-name", dest="model_name")
    p.add_argument("--cache")
    p.add_argument("--max-in-flight", dest="max_in_flight", type=int)
    p.add_argument("--timeout-s", dest="timeout_s", type=float)
    p.add_argument("--max-retries", dest="max_retries", type=int)
    p.add_argument("--out")
    p.add_argument("--report")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a predictions file against gold labels")
    p.add_argument("--predictions")
    p.add_argument("--manifest")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("kappa", help="inter-annotator agreement statistics")
    p.add_argument("--annotations")
    p.add_argument("--out")
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("refine", help="mine error patterns and manage rule proposals")
    p.add_argument("--predictions")
    p.add_argument("--manifest")
    p.add_argument("--features")
    p.add_argument("--stats")
    p.add_argument("--rules")
    p.add_argument("--proposals-out", dest="proposals_out")
    p.add_argument("--min-support", dest="min_support", type=int)
    p.add_argument("--accept-all", dest="accept_all", action="store_const", const=True)
    p.add_argument("--apply", help="proposals file with statuses to apply")
    p.add_argument("--rules-out", dest="rules_out")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("synth", help="generate the synthetic tone corpus")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--n-per-class", dest="n_per_class", type=int)
    p.add_argument("--overlap", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--duration-s", dest="duration_s", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("compare", help="run v1-v5 and emit the comparison table")
    p.add_argument("--manifest")
    p.add_argument("--features")
    p.add_argument("--model")
    p.add_argument("--stats")
    p.add_argument("--rules")
    p.add_argument("--refined-rules", dest="refined_rules")
    p.add_argument("--split")
    p.add_argument("--tau", type=float)
    p.add_argument("--endpoint-url", dest="endpoint_url")
    p.add_argument("--model-name", dest="model_name")
    p.add_argument("--cache")
    p.add_argument("--max-in-flight", dest="max_in_flight", type=int)
    p.add_argument("--timeout-s", dest="timeout_s", type=float)
    p.add_argument("--max-retries", dest="max_retries", type=int)
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        cfg = _resolved(args, config)
        return args.func(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
