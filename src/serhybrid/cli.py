"""Command-line entry point wiring the pipeline together.

Subcommands: preprocess, features, train, predict, evaluate, kappa,
refine, synth, compare. ``COMMANDS`` declares each one's settings once:
the parser makes a flag of each, and a JSON config file may give any of
them, read as its flag reads its text (flags win). Settings left unset
keep the library's defaults; every run report embeds the resolved
configuration. Exit codes: 0 success (also when the reader of stdout
stops reading), 1 configuration error (a usage error too), 2 data error.
"""

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import (audio_io, classifier, corpus, evaluation, hybrid, parallel, refine,
               reasoning)
from .errors import ConfigError, DataError, parse_json, read_csv, read_text, write_text
from .features import (CorpusStats, aggregate, extract_series,
                       read_features_csv, write_features_csv)
from .labels import CLASSES
from .reasoning import HttpLlmClient, LlmEndpointConfig, PromptVersion


def _load_config(path):
    if not path:
        return {}
    try:
        return parse_json(read_text(path, ConfigError), path, ConfigError, None)
    except (OSError, UnicodeEncodeError) as exc:  # the latter: a path the OS cannot encode
        raise ConfigError(f"cannot read config {path}: {exc}")


def _read_setting(key, value, kind):
    """A config value read as its flag reads its text: a bool setting takes
    a JSON boolean, any other a string or a number passed through str."""
    if kind is bool:
        if isinstance(value, bool):
            return value
    elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
        if "\0" in str(value):  # no command line holds one, and no path may
            raise ConfigError(f"config key {key!r}: {json.dumps(value)} holds a NUL byte")
        try:
            return kind(str(value))
        except ValueError:
            pass
    raise ConfigError(f"config key {key!r}: expected {kind.__name__}, got {json.dumps(value)}")


def _resolved(args, config):
    """Config-file values fill in flags the user left at None; flags win.

    A key no subcommand declares is an error, except ``max_passes``, which
    the SVM no longer reads; it and another subcommand's keys are dropped.
    """
    own = dict(COMMANDS[args.command][2])
    declared = {name for _, _, settings in COMMANDS.values() for name, _ in settings}
    merged = {}
    for key, value in config.items():
        if key in own:
            merged[key] = _read_setting(key, value, own[key])
        elif key not in declared and key != "max_passes":
            raise ConfigError(f"unknown config key {key!r}")
    for key, value in vars(args).items():
        if value is not None:
            merged[key] = value
    return merged


def _given(cfg, *names):
    """The named settings that are set, as keyword arguments; unset ones
    keep the library default."""
    return {name: cfg[name] for name in names if name in cfg}


def _require(cfg, *keys):
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ConfigError(f"missing required options: {', '.join('--' + m.replace('_', '-') for m in missing)}")


def _endpoint(cfg):
    _require(cfg, "endpoint_url", "model_name")
    return LlmEndpointConfig(base_url=cfg["endpoint_url"], model_name=cfg["model_name"],
                             **_given(cfg, "api_key_ref", "timeout_s", "max_retries",
                                      "max_in_flight", "retry_backoff_s"))


def _client(cfg):
    return HttpLlmClient(_endpoint(cfg), cache_dir=cfg.get("cache"))


def _in_split(cfg):
    """The manifest's entries in ``--split``: all of them when it is unset
    or "all", and a data error when a named split selects none."""
    split = cfg.get("split")
    if split not in (None, "all", *corpus.SPLITS):
        raise ConfigError(f"unknown split {split!r}; known splits: "
                          f"{', '.join(corpus.SPLITS)}, all")
    entries = [e for e in corpus.load_manifest(cfg["manifest"])
               if split in (None, "all") or e.split == split]
    if not entries and split not in (None, "all"):
        raise DataError(f"split {split!r} selects no entries of {cfg['manifest']}")
    return entries


def _gold_by_id(entries):
    corpus.require_labels(entries)
    return {e.sample_id: e.gold for e in entries}


def _load_rules_arg(cfg):
    path = cfg.get("rules")
    if path:
        return reasoning.load_rules(path)
    return reasoning.default_ruleset()


def _write_json(path, doc):
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _segment_file(cfg, in_dir, out_dir, first_with_stem, name):
    """One recording standardized, VAD-filtered and segmented, its segments
    written as <name stem>_<k>.wav under ``out_dir``. Returns their manifest
    entries, or the DataError that rejected the file. ``first_with_stem``
    maps each stem to the first file name that has it; a later file with
    that stem is rejected."""
    try:
        name.encode("utf-8")  # its segments' sample ids go into a UTF-8 manifest
    except UnicodeEncodeError:
        return DataError(f"file name {name!r} cannot be encoded as UTF-8")
    parent_id = os.path.splitext(name)[0]
    if first_with_stem[parent_id] != name:
        # its segment WAVs and sample ids would be those of the first file
        return DataError(f"{name} has the stem {parent_id!r} of "
                         f"{first_with_stem[parent_id]}, whose sample ids it would repeat")
    try:
        std = audio_io.standardize(audio_io.load_audio(os.path.join(in_dir, name)))
        segments = audio_io.segment(std, audio_io.detect_voice_activity(std))
    except DataError as exc:
        return exc
    entries = []
    for idx, seg in enumerate(segments):
        sample_id = f"{parent_id}_{idx}"
        seg_path = os.path.join(out_dir, sample_id + ".wav")
        audio_io.save_wav(seg_path, seg)
        entries.append(corpus.ManifestEntry(
            sample_id=sample_id, audio_path=seg_path,
            duration_s=seg.duration_seconds, **_given(cfg, "source_kind")))
    return entries


def cmd_preprocess(cfg):
    _require(cfg, "in_dir", "out_dir")
    if "source_kind" in cfg and cfg["source_kind"] not in corpus.SOURCE_KINDS:
        raise ConfigError(f"unknown source kind {cfg['source_kind']!r}; known kinds: "
                          f"{', '.join(corpus.SOURCE_KINDS)}")
    in_dir, out_dir = cfg["in_dir"], cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    errors = []
    names = sorted(f for f in os.listdir(in_dir) if f.lower().endswith(".wav"))
    first_with_stem = {}
    for name in names:
        first_with_stem.setdefault(os.path.splitext(name)[0], name)
    results = parallel.ordered_map(
        functools.partial(_segment_file, cfg, in_dir, out_dir, first_with_stem), names)
    for name, result in zip(names, results):
        if isinstance(result, DataError):
            errors.append({"file": name, "error": str(result)})
        else:
            entries.extend(result)
    manifest_path = os.path.join(out_dir, "manifest.csv")
    corpus.save_manifest(manifest_path, entries)
    _write_json(os.path.join(out_dir, "preprocess_report.json"),
                {"config": cfg,
                 "files": len(names), "segments": len(entries), "errors": errors})
    print(f"wrote {len(entries)} segments from {len(names)} files to {out_dir}"
          + (f" ({len(errors)} files failed)" if errors else ""))
    return 0


def _clip_features(entry):
    signal = audio_io.load_audio(entry.audio_path)  # its errors name the path
    try:
        return entry.sample_id, aggregate(*extract_series(audio_io.standardize(signal)))
    except DataError as exc:
        raise DataError(f"{entry.audio_path}: {exc}") from None


def cmd_features(cfg):
    _require(cfg, "manifest", "out")
    entries = corpus.load_manifest(cfg["manifest"])
    rows = list(parallel.ordered_map(_clip_features, entries))
    stats = CorpusStats.from_vectors([v for _, v in rows]) if cfg.get("stats_out") else None
    write_features_csv(cfg["out"], rows)
    if stats is not None:
        write_text(cfg["stats_out"], stats.to_json())
    print(f"extracted features for {len(rows)} samples -> {cfg['out']}")
    return 0


def cmd_train(cfg):
    _require(cfg, "manifest", "features", "model_out")
    # in sample_id order, so the model does not depend on the manifest's row order
    gold = _gold_by_id(sorted(_in_split(cfg), key=lambda e: e.sample_id))
    feats = read_features_csv(cfg["features"])
    hybrid.require_all(gold, feats, "feature vectors")
    vectors = [feats[i] for i in gold]
    labels = list(gold.values())
    model = classifier.train(vectors, labels)
    correct = sum(ml.label == y for ml, y in zip(classifier.predict(model, vectors), labels))
    model.save(cfg["model_out"])
    print(f"trained on {len(vectors)} samples; training accuracy "
          f"{correct / len(vectors):.4f}; model -> {cfg['model_out']}")
    return 0


def _load_transcripts(path):
    header, rows = read_csv(path, DataError, ("sample_id", "transcript"))
    sample_id, transcript = header.index("sample_id"), header.index("transcript")
    return {cells[sample_id]: cells[transcript] for _, cells in rows}


def cmd_predict(cfg):
    _require(cfg, "manifest", "out", "version")
    entries = _in_split(cfg)
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
            entries, feats, model, rules, stats, client, version, **_given(cfg, "tau"))
    hybrid.write_predictions(cfg["out"], predictions)
    report["config"] = cfg
    if cfg.get("report"):
        _write_json(cfg["report"], report)
    print(f"wrote {len(predictions)} predictions -> {cfg['out']} "
          f"(routed to LLM: {report['routed_to_llm']})")
    return 0


def _labelled_run(cfg):
    """The predictions file read against the manifest's gold labels: the
    sample ids in prediction order, with the gold and predicted label of each."""
    predictions = hybrid.read_predictions(cfg["predictions"])
    gold = _gold_by_id(corpus.load_manifest(cfg["manifest"]))
    ids = [p.sample_id for p in predictions]
    hybrid.require_all(ids, gold, "gold labels")
    return ids, [gold[i] for i in ids], [p.label for p in predictions]


def cmd_evaluate(cfg):
    _require(cfg, "predictions", "manifest")
    _, gold, predicted = _labelled_run(cfg)
    report = evaluation.metrics(predicted, gold)
    if cfg.get("out"):
        _write_json(cfg["out"], {"metrics": report.to_dict(),
                                 "confusion": report.confusion.tolist(),
                                 "classes": list(CLASSES)})
    print(report.render_confusion())
    print(f"accuracy {report.accuracy:.4f}  macro-F1 {report.macro_f1:.4f}")
    return 0


def cmd_kappa(cfg):
    _require(cfg, "manifest")
    entries = corpus.load_manifest(cfg["manifest"])
    corpus.require_labels(entries, corpus.VOTES)
    rows = [tuple(getattr(e, c) for c in corpus.VOTES) for e in entries]
    if len(rows) < 2:
        raise DataError(f"{cfg['manifest']}: kappa needs at least 2 annotated rows, "
                        f"got {len(rows)}")
    fleiss = evaluation.fleiss_kappa(
        np.array([[labels.count(c) for c in CLASSES] for labels in rows], dtype=np.int64))
    pairs = {"A-B": (0, 1), "A-C": (0, 2), "B-C": (1, 2)}
    cohens = {name: evaluation.cohens_kappa([r[i] for r in rows], [r[j] for r in rows])
              for name, (i, j) in pairs.items()}
    numeric = [v for v in cohens.values() if v is not None]
    avg = sum(numeric) / len(numeric) if numeric else None

    def fmt(v):
        return f"{v:.4f}" if v is not None else "UNDEFINED"

    if cfg.get("out"):
        _write_json(cfg["out"], {
            "fleiss_kappa": fleiss, "avg_pairwise": avg, "pairwise": cohens,
            "n_items": len(rows)})
    print(f"Fleiss kappa: {fmt(fleiss)}")
    print(f"Avg pairwise Cohen kappa: {fmt(avg)}")
    for name, v in cohens.items():
        print(f"Cohen kappa {name}: {fmt(v)}")
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
    ids, gold, predicted = _labelled_run(cfg)
    feats = read_features_csv(cfg["features"])
    stats = CorpusStats.load(cfg["stats"])
    hybrid.require_all(ids, feats, "feature vectors")
    patterns = refine.mine_error_patterns(gold, predicted, [feats[i] for i in ids],
                                          stats, **_given(cfg, "min_support"))
    proposals = refine.propose_rules(patterns, _load_rules_arg(cfg).version)
    if cfg.get("accept_all"):
        proposals = [replace(p, status="accepted") for p in proposals]
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
    recipe = corpus.SynthRecipe(**_given(cfg, "overlap", "seed", "duration_s", "n_per_class"))
    entries = corpus.generate_synthetic_corpus(recipe, cfg["out_dir"])
    print(f"generated {len(entries)} samples -> {cfg['out_dir']}/manifest.csv")
    return 0


def cmd_compare(cfg):
    _require(cfg, "manifest", "features", "model", "stats", "out_dir")
    entries = _in_split(cfg)
    gold = list(_gold_by_id(entries).values())  # in manifest order, as predictions are
    feats = read_features_csv(cfg["features"])
    model = classifier.SvmModel.load(cfg["model"])
    stats = CorpusStats.load(cfg["stats"])
    seed_rules = _load_rules_arg(cfg)
    refined_rules = (reasoning.load_rules(cfg["refined_rules"])
                     if cfg.get("refined_rules") else seed_rules)
    client = _client(cfg)
    # made before the first request, so an unusable --out-dir fails fast
    os.makedirs(cfg["out_dir"], exist_ok=True)
    rules_for = {
        PromptVersion.v1_basic: seed_rules,
        PromptVersion.v2_rules: seed_rules,
        PromptVersion.v3_refined: refined_rules,
        PromptVersion.v4_hybrid: refined_rules,
        PromptVersion.v5_auto: seed_rules,  # replaced by auto-generated rules
    }
    runs, outputs = [], []
    for version in PromptVersion:
        predictions, report = hybrid.run_pipeline(
            entries, feats, model, rules_for[version], stats, client, version,
            **_given(cfg, "tau"))
        rep = evaluation.metrics([p.label for p in predictions], gold)
        report["metrics"] = rep.to_dict()
        runs.append((version.value, rep))
        outputs.append((version.value, predictions, report))
    text, doc = evaluation.compare_report(runs)
    doc["config"] = cfg
    # all five versions run before the first file is written, so a failed one leaves none
    out_dir = cfg["out_dir"]
    for name, predictions, report in outputs:
        hybrid.write_predictions(os.path.join(out_dir, f"predictions_{name}.jsonl"),
                                 predictions)
        _write_json(os.path.join(out_dir, f"report_{name}.json"), report)
    write_text(os.path.join(out_dir, "compare.txt"), text + "\n")
    _write_json(os.path.join(out_dir, "compare.json"), doc)
    print(text)
    return 0


# LLM client settings, shared by predict and compare
_CLIENT = (("endpoint_url", str), ("model_name", str), ("cache", str),
           ("max_in_flight", int), ("timeout_s", float), ("max_retries", int),
           ("retry_backoff_s", float), ("api_key_ref", str))

# subcommand -> (handler, help, settings); a setting is (name, type), and
# a bool one is a flag that takes no value
COMMANDS = {
    "preprocess": (cmd_preprocess, "standardize, VAD-filter and segment raw WAVs", (
        ("in_dir", str), ("out_dir", str), ("source_kind", str))),
    "features": (cmd_features, "extract feature vectors for a manifest", (
        ("manifest", str), ("out", str), ("stats_out", str))),
    "train": (cmd_train, "train the SVM classifier", (
        ("manifest", str), ("features", str), ("model_out", str), ("split", str))),
    "predict": (cmd_predict, "run inference over a manifest", (
        ("manifest", str), ("features", str), ("model", str), ("stats", str),
        ("rules", str), ("version", str), ("tau", float), ("split", str),
        ("transcripts", str), *_CLIENT, ("out", str), ("report", str))),
    "evaluate": (cmd_evaluate, "score a predictions file against gold labels", (
        ("predictions", str), ("manifest", str), ("out", str))),
    "kappa": (cmd_kappa, "inter-annotator agreement statistics", (
        ("manifest", str), ("out", str))),
    "refine": (cmd_refine, "mine error patterns and manage rule proposals", (
        ("predictions", str), ("manifest", str), ("features", str), ("stats", str),
        ("rules", str), ("proposals_out", str), ("min_support", int),
        ("accept_all", bool), ("apply", str), ("rules_out", str))),
    "synth": (cmd_synth, "generate the synthetic tone corpus", (
        ("out_dir", str), ("n_per_class", int), ("overlap", float), ("seed", int),
        ("duration_s", float))),
    "compare": (cmd_compare, "run v1-v5 and emit the comparison table", (
        ("manifest", str), ("features", str), ("model", str), ("stats", str),
        ("rules", str), ("refined_rules", str), ("split", str), ("tau", float),
        *_CLIENT, ("out_dir", str))),
}


class _Parser(argparse.ArgumentParser):
    """A usage error (a bad or unknown flag, a missing value or subcommand)
    is a configuration error, as the same mistake in a config file is; the
    subcommand parsers are made of this class too."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser():
    """The one parser of the process; each parse makes a new namespace."""
    parser = _Parser(
        prog="serhybrid",
        description="Hybrid speech emotion recognition pipeline")
    parser.add_argument("--config", help="JSON config file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, settings) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, kind in settings:
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, type=kind)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg = _resolved(args, _load_config(args.config))
        code = COMMANDS[args.command][0](cfg)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout stopped reading: every output file is
        # written, and what is left for stdout goes to the null device, so
        # the flush at exit cannot fail again
        with contextlib.suppress(OSError, ValueError):  # stdout has no descriptor
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        return 0
    except (DataError, OSError, UnicodeEncodeError) as exc:
        # a path the OS cannot encode fails as one it cannot open
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
