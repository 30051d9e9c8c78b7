"""Acceptance suite: one test per criterion, one PASS line per criterion.

Paper-scale numbers are not reproducible without the private corpus and a
live LLM, so every criterion is checked as a property on synthetic
corpora with scripted mocks (see mockllm). Each test prints a single
``criterion NN PASS`` line on success; pytest reports the fail otherwise.
"""

from fractions import Fraction

import numpy as np

import mockllm
import oracles
from conftest import train_on
from serhybrid import cli
from serhybrid.audio_io import AudioSignal
from serhybrid.classifier import predict
from serhybrid.corpus import ManifestEntry, stratified_split
from serhybrid.evaluation import cohens_kappa, fleiss_kappa, metrics
from serhybrid.features import frame_signal, estimate_pitch, mfcc, rms_energy
from serhybrid.hybrid import run_pipeline, write_predictions, read_predictions
from serhybrid.labels import CLASSES
from serhybrid.reasoning import PromptVersion, default_ruleset
from serhybrid.refine import (RuleProposal, apply_refinement, mine_error_patterns,
                              propose_rules)

SR = 16000

# recipe-implied rule directions per class: which (dimension, comparator)
# pairs a proposed rule may use and still be consistent with how the
# synthetic classes are actually constructed (panic = most modulated,
# angry = loudest with raised pitch, calm = quiet and stable)
ORACLE_CONSISTENT = {
    "panic": {"pitch_std": ">=", "energy_std": ">="},
    "angry": {"energy_mean": ">=", "pitch_mean": ">="},
    "calm": {"pitch_std": "<=", "energy_std": "<=", "energy_mean": "<="},
}


def _accuracy(predictions, gold):
    return float(np.mean([p.label == gold[p.sample_id] for p in predictions]))


def _oracle_consistent_proposals(predictions, bundle, rules, pair=None):
    """Mine refinement proposals from predictions and keep only the ones
    whose direction matches the corpus recipes (the human-review stand-in)."""
    patterns = mine_error_patterns([bundle.gold[p.sample_id] for p in predictions],
                                   [p.label for p in predictions],
                                   [bundle.features[p.sample_id] for p in predictions],
                                   bundle.stats, min_support=5)
    accepted = []
    for proposal in propose_rules(patterns, rules.version):
        if pair and (proposal.pattern.gold, proposal.pattern.predicted) != pair:
            continue
        cond = proposal.candidate.conditions[0]
        wanted = ORACLE_CONSISTENT.get(proposal.candidate.implied_label, {})
        if wanted.get(cond.dimension) == cond.comparator:
            accepted.append(RuleProposal(proposal.candidate, proposal.pattern,
                                         "accepted", proposal.base_version))
    return patterns, accepted


def test_criterion_01_kappa_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        # 100 items, 3 raters, 3 categories
        table = np.zeros((100, 3), dtype=np.int64)
        for i in range(100):
            ratings = rng.integers(0, 3, size=3)
            for r in ratings:
                table[i, r] += 1
        ours = fleiss_kappa(table)
        reference = oracles.fleiss_kappa_direct(table.tolist())
        worst = max(worst, abs(ours - reference))
    assert worst < 1e-10

    # unanimous per item across two categories: perfect agreement
    unanimous = np.array([[3, 0, 0]] * 50 + [[0, 3, 0]] * 50)
    assert fleiss_kappa(unanimous) == 1.0

    a = ["calm", "calm", "angry", "angry", "panic", "calm"]
    b = ["calm", "angry", "angry", "angry", "panic", "calm"]
    # by hand: p_o = 5/6, p_e = (3*2 + 2*3 + 1*1)/36 = 13/36 -> 17/23
    expected = float((Fraction(5, 6) - Fraction(13, 36))
                     / (1 - Fraction(13, 36)))
    assert expected == float(Fraction(17, 23))
    assert abs(cohens_kappa(a, b) - expected) < 1e-12
    assert abs(cohens_kappa(a, b) - oracles.cohens_kappa_direct(a, b)) < 1e-12
    print(f"\ncriterion 01 PASS - fleiss max |delta| {worst:.2e} over 50 tables; "
          "unanimous = 1.0; cohen fixture = 17/23")


def test_criterion_02_metric_identities():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 200))
        gold = [CLASSES[i] for i in rng.integers(0, 3, size=n)]
        preds = [CLASSES[i] for i in rng.integers(0, 3, size=n)]
        ids = [f"s{i}" for i in range(n)]
        report = metrics(dict(zip(ids, preds)), dict(zip(ids, gold)))
        reference = oracles.macro_f1_direct(preds, gold, CLASSES)
        mean_of_f1 = sum(m.f1 for m in report.per_class.values()) / len(CLASSES)
        worst = max(worst, abs(report.macro_f1 - reference),
                    abs(report.macro_f1 - mean_of_f1))
    assert worst < 1e-12

    # circulant confusion: every class 85 correct, 15 into the next class,
    # so per-class precision = recall = 0.85 and F1 = 0.85
    gold, preds = [], []
    for k, label in enumerate(CLASSES):
        gold += [label] * 100
        preds += [label] * 85 + [CLASSES[(k + 1) % 3]] * 15
    ids = [f"s{i}" for i in range(len(gold))]
    report = metrics(dict(zip(ids, preds)), dict(zip(ids, gold)))
    for m in report.per_class.values():
        assert m.precision == 0.85 and m.recall == 0.85
        assert abs(m.f1 - 0.85) < 1e-12
    assert abs(report.macro_f1 - 0.85) < 1e-12
    print(f"\ncriterion 02 PASS - macro-F1 identity max |delta| {worst:.2e}; "
          "P=R=0.85 fixture gives F1=0.85")


def test_criterion_03_dsp_oracles():
    t = np.arange(int(0.5 * SR)) / SR
    hit_rates = {}
    for f0 in (80.0, 150.0, 220.0, 350.0):
        x = 0.5 * np.sin(2 * np.pi * f0 * t)
        frames = frame_signal(AudioSignal(x, SR))
        estimates = estimate_pitch(frames, SR)
        voiced = estimates[~np.isnan(estimates)]
        assert voiced.size == len(frames)  # a pure tone is voiced throughout
        hit_rates[f0] = float(np.mean(np.abs(voiced - f0) <= 2.0))
        assert hit_rates[f0] >= 0.95

    # constant log-mel energies (all-zero frame hits the log floor in every
    # band) must have zero energy in DCT coefficients 1..12
    coeffs = mfcc(np.zeros(400), SR)
    assert np.all(np.abs(coeffs[1:]) < 1e-9)

    amp = 0.5
    x = amp * np.sin(2 * np.pi * 80.0 * t)  # integer number of periods
    assert abs(rms_energy([x])[0] - amp / np.sqrt(2.0)) < 1e-3
    rates = ", ".join(f"{f:.0f}Hz {r:.0%}" for f, r in hit_rates.items())
    print(f"\ncriterion 03 PASS - pitch hits: {rates}; MFCC 1-12 at log floor "
          "< 1e-9; RMS oracle within 1e-3")


def test_criterion_04_classifier_separable(separable_corpus, separable_model):
    bundle, model = separable_corpus, separable_model
    correct = 0
    for entry in bundle.entries:
        evidence = predict(model, bundle.features[entry.sample_id])
        assert abs(float(evidence.per_class_probs.sum()) - 1.0) < 1e-9
        correct += evidence.label == bundle.gold[entry.sample_id]
    assert correct == len(bundle.entries)

    retrained = train_on(bundle)
    assert retrained.to_json() == model.to_json()
    print(f"\ncriterion 04 PASS - training accuracy {correct}/"
          f"{len(bundle.entries)}; probs sum to 1; retrain bit-identical")


def test_criterion_05_routing_boundaries(overlap_corpus, overlap_model):
    bundle = overlap_corpus
    rules = default_ruleset()
    n = len(bundle.entries)
    fractions = []
    for tau in (0.0, 0.4, 0.6, 0.7, 0.8, 0.9, 1.01):
        client = mockllm.RulesLiteralClient()
        _, report = run_pipeline(bundle.entries, bundle.features, overlap_model,
                                 rules, bundle.stats, client,
                                 PromptVersion.v4_hybrid, tau=tau)
        assert client.calls == report["routed_to_llm"]
        fractions.append(report["routed_fraction"])
        if tau == 0.0:
            assert client.calls == 0
        if tau == 1.01:
            assert client.calls == n
    assert all(a <= b for a, b in zip(fractions, fractions[1:]))
    print(f"\ncriterion 05 PASS - routed fractions {['%.2f' % f for f in fractions]} "
          "nondecreasing; tau 0 -> 0 calls, tau 1.01 -> all")


def test_criterion_06_hybrid_dominance(overlap_corpus, overlap_model):
    bundle, model = overlap_corpus, overlap_model
    rules = default_ruleset()
    client = mockllm.RulesLiteralClient()
    acc = {}
    p1, _ = run_pipeline(bundle.entries, bundle.features, model, rules,
                         bundle.stats, client, PromptVersion.v1_basic)
    p2, _ = run_pipeline(bundle.entries, bundle.features, model, rules,
                         bundle.stats, client, PromptVersion.v2_rules)
    acc["v1"], acc["v2"] = _accuracy(p1, bundle.gold), _accuracy(p2, bundle.gold)

    _, accepted = _oracle_consistent_proposals(p2, bundle, rules)
    refined = apply_refinement(rules, accepted)
    p3, _ = run_pipeline(bundle.entries, bundle.features, model, refined,
                         bundle.stats, client, PromptVersion.v3_refined)
    p4, _ = run_pipeline(bundle.entries, bundle.features, model, refined,
                         bundle.stats, client, PromptVersion.v4_hybrid, tau=0.7)
    acc["v3"], acc["v4"] = _accuracy(p3, bundle.gold), _accuracy(p4, bundle.gold)
    assert acc["v4"] > acc["v3"] >= acc["v2"] > acc["v1"]

    ml_acc = float(np.mean([predict(model, bundle.features[e.sample_id]).label
                            == bundle.gold[e.sample_id] for e in bundle.entries]))
    oracle = mockllm.OracleClient(bundle.gold)
    p4o, _ = run_pipeline(bundle.entries, bundle.features, model, refined,
                          bundle.stats, oracle, PromptVersion.v4_hybrid, tau=0.7)
    acc["v4_oracle"] = _accuracy(p4o, bundle.gold)
    assert acc["v4_oracle"] >= ml_acc
    routed_ml_wrong = sum(1 for p in p4 if p.source != "ml_direct"
                          and p.ml_evidence.label != bundle.gold[p.sample_id])
    if routed_ml_wrong:
        assert acc["v4_oracle"] > ml_acc
    summary = " ".join(f"{k}={v:.3f}" for k, v in acc.items())
    print(f"\ncriterion 06 PASS - {summary} ml={ml_acc:.3f} "
          f"(routed ML-errors: {routed_ml_wrong})")


def test_criterion_07_fallback_totality(overlap_corpus, overlap_model, tmp_path):
    bundle = overlap_corpus
    client = mockllm.TimeoutClient()
    predictions, report = run_pipeline(bundle.entries, bundle.features,
                                       overlap_model, default_ruleset(),
                                       bundle.stats, client,
                                       PromptVersion.v4_hybrid, tau=0.7)
    path = tmp_path / "predictions.jsonl"
    write_predictions(path, predictions)
    loaded = read_predictions(path)
    assert len(loaded) == len(bundle.entries)
    routed = [p for p in loaded if p.source != "ml_direct"]
    assert len(routed) == report["routed_to_llm"] > 0
    assert all(p.source.startswith("fallback_") for p in routed)
    assert all(p.label in CLASSES for p in loaded)
    assert len(report["failures"]) == len(routed)
    print(f"\ncriterion 07 PASS - {len(loaded)} predictions complete with "
          f"{len(routed)} fallbacks under total LLM timeout")


def test_criterion_08_split_reproduction():
    counts = {"calm": 942, "angry": 980, "panic": 842}
    entries = [ManifestEntry(sample_id=f"{label}_{i}", gold=label)
               for label, n in counts.items() for i in range(n)]
    split = stratified_split(entries, seed=0)
    sizes = {name: sum(1 for e in split if e.split == name)
             for name in ("set1", "set2", "set3", "test")}
    expected = {"set1": 706, "set2": 691, "set3": 696, "test": 671}
    assert sum(sizes.values()) == 2764
    for name, want in expected.items():
        assert abs(sizes[name] - want) <= 2
    print(f"\ncriterion 08 PASS - split sizes {sizes} vs published {expected}")


def test_criterion_09_refinement_loop(planted_corpus):
    bundle = planted_corpus
    rules = default_ruleset()
    model = train_on(bundle)
    client = mockllm.RulesLiteralClient()
    p2, _ = run_pipeline(bundle.entries, bundle.features, model, rules,
                         bundle.stats, client, PromptVersion.v2_rules)
    acc_v2 = _accuracy(p2, bundle.gold)

    patterns, accepted = _oracle_consistent_proposals(p2, bundle, rules,
                                                      pair=("panic", "angry"))
    pattern = next(p for p in patterns
                   if (p.gold, p.predicted) == ("panic", "angry"))
    assert pattern.support >= 5
    top = pattern.top_deltas[0]
    assert top.dimension == "pitch_std"
    assert top.effect_size < 0  # planted errors sit below correct panic

    assert len(accepted) == 1
    refined = apply_refinement(rules, accepted)
    p3, _ = run_pipeline(bundle.entries, bundle.features, model, refined,
                         bundle.stats, client, PromptVersion.v3_refined)
    acc_v3 = _accuracy(p3, bundle.gold)
    assert acc_v3 >= acc_v2
    print(f"\ncriterion 09 PASS - panic->angry support {pattern.support}, top "
          f"delta pitch_std d={top.effect_size:+.2f}; accuracy "
          f"{acc_v2:.3f} -> {acc_v3:.3f} after one refinement round")


def test_criterion_10_end_to_end_reproducibility(tmp_path):
    corpus_dir = tmp_path / "corpus"
    out_dir = tmp_path / "compare"
    cache_dir = tmp_path / "cache"
    features = tmp_path / "features.csv"
    stats = tmp_path / "stats.json"
    model = tmp_path / "model.json"
    manifest = corpus_dir / "manifest.csv"

    assert cli.main(["synth", "--out-dir", str(corpus_dir), "--n-per-class",
                     "12", "--overlap", "0.25", "--seed", "5"]) == 0
    assert cli.main(["features", "--manifest", str(manifest), "--out",
                     str(features), "--stats-out", str(stats)]) == 0
    assert cli.main(["train", "--manifest", str(manifest), "--features",
                     str(features), "--model-out", str(model)]) == 0

    with mockllm.MockLlmServer() as server:
        compare_args = ["compare", "--manifest", str(manifest),
                        "--features", str(features), "--model", str(model),
                        "--stats", str(stats), "--out-dir", str(out_dir),
                        "--endpoint-url", server.base_url,
                        "--model-name", "mock", "--cache", str(cache_dir)]

        def snapshot():
            return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}

        assert cli.main(compare_args) == 0  # cold run primes the cache
        assert cli.main(compare_args) == 0
        first = snapshot()
        assert cli.main(compare_args) == 0
        second = snapshot()
    assert set(first) == set(second)
    mismatched = [name for name in first if first[name] != second[name]]
    assert mismatched == []
    expected_files = {f"predictions_{v.value}.jsonl" for v in PromptVersion}
    expected_files |= {f"report_{v.value}.json" for v in PromptVersion}
    expected_files |= {"compare.txt", "compare.json"}
    assert set(first) == expected_files
    print(f"\ncriterion 10 PASS - {len(first)} compare artifacts byte-identical "
          "across consecutive warm-cache runs")
