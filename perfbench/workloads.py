"""The benchmark's workloads: set-up, one measured round, output checks.

Every workload drives the program the way a user's batch does: the
subcommands run in-process through ``serhybrid.cli.main``, one after the
other, and each must exit with code 0. A round is the fixed list of
commands a workload times; the runner repeats whole rounds. Checks run
after the timed rounds and compare the outputs with what ``reference``
computes apart from the program.
"""

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import time
import urllib.request

import numpy as np
import scipy.io.wavfile

import reference
from spans import Tracer, merge

HERE = os.path.dirname(os.path.abspath(__file__))

# the overlap_corpus test fixture: 40% of angry/panic blended, 100 per class
FIXTURE_SEED = 11
OVERLAP = 0.4
N_PER_CLASS = 100
# the held-out corpus follows the same recipe with another seed, at 30 per
# class so that its feature extraction stays a small part of set-up
HELDOUT_PER_CLASS = 30

VERSIONS = ("v1_basic", "v2_rules", "v3_refined", "v4_hybrid", "v5_auto")
TAU = 0.7
RETRY_BACKOFF_S = 0.01

# preprocess defaults at 16 kHz: 25 ms frames, 10 ms hop, 5 hangover frames
FRAME, HOP, HANGOVER = 400, 160, 5
# a VAD boundary may sit up to one frame before an onset (the first frame
# that touches it) and a frame plus the hangover after an offset
BOUNDARY_TOL = FRAME + HOP + HANGOVER * HOP


def corpus_seed(seed, stream):
    """A corpus seed for workload seed ``seed``; never the fixture's."""
    value = int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])
    return value if value != FIXTURE_SEED else value + 1


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_features(path):
    """{sample_id: row dict of floats} from a features CSV, by the benchmark."""
    out = {}
    for row in read_csv(path):
        out[row["sample_id"]] = {k: float(v) for k, v in row.items()
                                 if k not in ("schema", "sample_id")}
    return out


def run_cli(argv):
    """Run one subcommand in this process; stdout is captured and dropped."""
    from serhybrid import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def features_worker(argv):
    """Body of a set-up worker process: the features subcommand on each
    (manifest, out_csv) pair in ``argv[1:]``, in order. Unless ``argv[0]`` is
    "-", the worker traces itself and writes its span aggregate there as JSON.
    Returns the first non-zero exit code, or 0."""
    spans_out, pairs = argv[0], argv[1:]
    tracer = Tracer() if spans_out != "-" else None
    if tracer:
        tracer.install()
    code = 0
    for manifest, out_csv in zip(pairs[::2], pairs[1::2]):
        code = run_cli(["features", "--manifest", manifest, "--out", out_csv])
        if code != 0:
            break
    if tracer:
        tracer.uninstall()
        with open(spans_out, "w") as fh:
            json.dump(tracer.aggregate(), fh)
    return code


class Workload:
    """Base: bookkeeping shared by the three workloads."""

    setup_repeats = 1
    warmup_rounds = 0   # untimed rounds before the timed ones

    def __init__(self, work, seed, tracer, workers):
        self.work = work
        self.seed = seed
        self.tracer = tracer
        self.workers = workers
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup_agg = {}   # span aggregates from set-up worker processes
        self.layer_values = {}  # per-layer figures the workload measures itself
        self.n_rounds = 0

    def cli(self, *argv):
        """One measured operation."""
        self.attempted += 1
        code = run_cli(argv)
        if code != 0:
            self.failed += 1
            self.problems.append(f"{argv[0] if argv[0] != '--config' else argv[2]} exited {code}")

    def setup_cli(self, *argv):
        code = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"set-up command {argv} exited {code}")

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)

    def phase(self, name):
        """Label the spans that follow; returns the previous label."""
        if self.tracer:
            previous, self.tracer.phase = self.tracer.phase, name
            return previous
        return name

    def synth_with_features(self, *corpora):
        """Set-up for overlap corpora given as (directory, seed, per class):
        cli synth for each in this process, then the features subcommand in
        worker processes, each corpus's manifest dealt out over the workers;
        the parts' CSVs are joined back in manifest order into
        <directory>/features.csv with the program's own CSV reader and
        writer, so the file is the one a single features run writes.
        Splitting halves set-up on two cores; see README "Set-up"."""
        from serhybrid.features import read_features_csv, write_features_csv
        for corpus_dir, seed, n_per_class in corpora:
            self.setup_cli("synth", "--out-dir", corpus_dir, "--n-per-class", n_per_class,
                           "--overlap", OVERLAP, "--seed", seed)
            with open(os.path.join(corpus_dir, "manifest.csv")) as fh:
                header, *lines = fh.readlines()
            for h in range(self.workers):
                part = os.path.join(corpus_dir, f"part{h}")
                os.makedirs(part)
                with open(os.path.join(part, "manifest.csv"), "w") as fh:
                    fh.writelines([header, *lines[h::self.workers]])
        # plain child processes, each waited for: a multiprocessing pool
        # would also start a resource tracker that outlives this process
        procs = []
        try:
            for h in range(self.workers):
                spans_out = (os.path.join(self.work, f"setup_spans{h}.json")
                             if self.tracer else "-")
                pairs = [os.path.join(corpus_dir, f"part{h}", name)
                         for corpus_dir, _, _ in corpora
                         for name in ("manifest.csv", "features.csv")]
                procs.append(subprocess.Popen([sys.executable, os.path.abspath(__file__),
                                               spans_out, *pairs]))
            codes = [proc.wait() for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        if any(codes):
            raise RuntimeError(f"set-up features workers exited {codes}")
        if self.tracer:
            for h in range(self.workers):
                with open(os.path.join(self.work, f"setup_spans{h}.json")) as fh:
                    merge(self.setup_agg, json.load(fh))
        for corpus_dir, _, _ in corpora:
            rows = {}
            for h in range(self.workers):
                rows.update(read_features_csv(os.path.join(corpus_dir, f"part{h}", "features.csv")))
            order = [r["sample_id"] for r in read_csv(os.path.join(corpus_dir, "manifest.csv"))]
            write_features_csv(os.path.join(corpus_dir, "features.csv"),
                               [(sid, rows[sid]) for sid in order])

    def close(self):
        pass


# -- extract -------------------------------------------------------------------

class Extract(Workload):
    """Raw 44.1 kHz stereo recordings -> preprocess -> features."""

    setup_repeats = 5
    warmup_rounds = 1
    RECORDINGS = 3
    UTTERANCES = 6   # per recording, from the synthetic tone corpus
    TONES = 2        # steady tones of known pitch per recording
    RATE = 44100

    def setup(self, k):
        from serhybrid import corpus
        base = os.path.join(self.work, f"setup{k}")
        clips = corpus.generate_synthetic_corpus(
            corpus.SynthRecipe(seed=corpus_seed(self.seed, 1), overlap=OVERLAP,
                               n_per_class=self.RECORDINGS * self.UTTERANCES // 3,
                               sample_rate=self.RATE),
            os.path.join(base, "clips"))
        rng = np.random.default_rng([self.seed, 2])
        order = rng.permutation(len(clips))
        self.rec_dir = os.path.join(base, "recordings")
        os.makedirs(self.rec_dir)
        self.layout = {}
        for r in range(self.RECORDINGS):
            items = []
            for idx in order[r * self.UTTERANCES:(r + 1) * self.UTTERANCES]:
                pcm = scipy.io.wavfile.read(clips[idx].audio_path)[1]
                items.append(("utterance", pcm / 32768.0, None))
            for _ in range(self.TONES):
                freq = float(rng.uniform(100.0, 300.0))
                t = np.arange(int(2.0 * self.RATE)) / self.RATE
                fade = np.minimum(1.0, np.minimum(t, t[-1] - t) / 0.01)
                items.append(("tone", 0.3 * fade * np.sin(2 * np.pi * freq * t), freq))
            items = [items[i] for i in rng.permutation(len(items))]
            gaps = rng.uniform(0.4, 0.8, size=len(items) + 1)
            gaps[0] = gaps[-1] = 0.3
            total = int(sum(gaps) * self.RATE) + sum(len(x) for _, x, _ in items) + len(items)
            mono = rng.normal(0.0, 1e-4, size=total)
            pos = int(gaps[0] * self.RATE)
            planted = []
            for (kind, x, freq), gap in zip(items, gaps[1:]):
                mono[pos:pos + len(x)] += x
                planted.append((kind, pos, pos + len(x), freq))
                pos += len(x) + int(gap * self.RATE)
            gains = rng.uniform(0.6, 1.0, size=2)
            stereo = np.clip(np.stack([mono * gains[0], mono * gains[1]], axis=1), -1, 1)
            name = f"rec{r}"
            scipy.io.wavfile.write(os.path.join(self.rec_dir, name + ".wav"), self.RATE,
                                   np.round(stereo * 32767).astype(np.int16))
            self.layout[name] = (len(mono), planted)

    def round(self):
        out = os.path.join(self.work, f"round{self.n_rounds}")
        seg_dir = os.path.join(out, "segments")
        t0 = time.perf_counter()
        self.cli("preprocess", "--in-dir", self.rec_dir, "--out-dir", seg_dir)
        self.cli("features", "--manifest", os.path.join(seg_dir, "manifest.csv"),
                 "--out", os.path.join(out, "features.csv"),
                 "--stats-out", os.path.join(out, "stats.json"))
        elapsed = time.perf_counter() - t0
        with open(os.path.join(out, "features.csv"), "rb") as fh:
            produced = fh.read()
        if self.n_rounds == 0:
            self.first_features = produced  # round0 stays for verify()
        else:
            self.check(produced == self.first_features,
                       "features.csv differs between rounds on the same recordings")
            shutil.rmtree(out)
        self.n_rounds += 1
        return elapsed

    def verify(self):
        from serhybrid import audio_io, features
        first = os.path.join(self.work, "round0")
        seg_dir = os.path.join(first, "segments")
        with open(os.path.join(seg_dir, "preprocess_report.json")) as fh:
            report = json.load(fh)
        n_planted = sum(len(p) for _, p in self.layout.values())
        self.check(report["errors"] == [], f"preprocess reported errors {report['errors']}")
        self.check(report["segments"] == n_planted,
                   f"{report['segments']} segments for {n_planted} planted items")
        rows = {row["sample_id"]: row for row in read_csv(os.path.join(seg_dir, "manifest.csv"))}
        feats = read_features(os.path.join(first, "features.csv"))
        self.check(set(feats) == set(rows), "features.csv ids differ from the segment manifest")
        rng = np.random.default_rng([self.seed, 3])
        utterance_ids = []
        for name, (n44, planted) in self.layout.items():
            ids = [f"{name}_{k}" for k in range(len(planted))]
            self.check(set(ids) <= set(rows) and
                       sum(1 for s in rows if s.startswith(name + "_")) == len(planted),
                       f"{name}: segments do not match the {len(planted)} planted items")
            std = audio_io.standardize(audio_io.load_audio(os.path.join(self.rec_dir, name + ".wav")))
            expected_len = reference.resampled_length(n44, self.RATE, 16000)
            self.check(std.samples.ndim == 1 and std.sample_rate == 16000
                       and len(std.samples) == expected_len,
                       f"{name}: standardized to {std.samples.shape} at {std.sample_rate} Hz, "
                       f"expected {expected_len} mono samples at 16 kHz")
            self.check(float(np.max(np.abs(std.samples))) == 0.95,
                       f"{name}: standardized peak {float(np.max(np.abs(std.samples)))!r} != 0.95")
            quantized = np.round(np.clip(std.samples, -1, 1) * 32767).astype(np.int16)
            for sid, (kind, start, end, freq) in zip(ids, planted):
                if sid not in rows:
                    continue
                self._check_boundaries(sid, quantized, rows[sid], start * 16000 / self.RATE,
                                       end * 16000 / self.RATE)
                if kind == "tone":
                    f = feats[sid]
                    self.check(abs(f["pitch_mean"] - freq) <= 0.01 * freq,
                               f"{sid}: tone at {freq:.2f} Hz measured {f['pitch_mean']:.2f} Hz")
                    self.check(f["voiced_ratio"] >= 0.95,
                               f"{sid}: tone voiced_ratio {f['voiced_ratio']:.3f} < 0.95")
                else:
                    utterance_ids.append(sid)
        for sid in rng.choice(utterance_ids, size=2, replace=False):
            self._check_mfcc(sid, rows[sid], feats[sid], rng, features)

    def _check_boundaries(self, sid, quantized, row, start, end):
        pcm = scipy.io.wavfile.read(row["audio_path"])[1]
        probe = min(256, len(pcm))
        lo = max(0, int(start) - BOUNDARY_TOL - 1)
        hi = min(len(quantized) - probe, int(start) + BOUNDARY_TOL + 1)
        windows = np.lib.stride_tricks.sliding_window_view(quantized[lo:hi + probe], probe)
        hits = np.flatnonzero((windows == pcm[:probe]).all(axis=1))
        if not hits.size:
            self.problems.append(f"{sid}: segment not found near its planted onset")
            return
        seg_lo = lo + int(hits[0])
        seg_hi = seg_lo + len(pcm)
        self.check(np.array_equal(quantized[seg_lo:seg_hi], pcm),
                   f"{sid}: segment is not a slice of the standardized recording")
        self.check(abs(seg_lo - start) <= BOUNDARY_TOL and abs(seg_hi - end) <= BOUNDARY_TOL,
                   f"{sid}: segment [{seg_lo}, {seg_hi}) vs planted [{start:.0f}, {end:.0f})")

    def _check_mfcc(self, sid, row, feat, rng, features):
        x = scipy.io.wavfile.read(row["audio_path"])[1] / 32768.0
        x = (x / np.max(np.abs(x))) * 0.95
        frames = reference.frames_of(x, FRAME, HOP)
        ref = reference.mfcc_reference(frames, 16000)
        for i in range(ref.shape[1]):
            for stat, value in (("mean", ref[:, i].mean()), ("std", ref[:, i].std())):
                got = feat[f"mfcc{i}_{stat}"]
                self.check(abs(got - value) <= 1e-7 * (1.0 + abs(value)),
                           f"{sid}: mfcc{i}_{stat} {got!r} vs reference {float(value)!r}")
        window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME) / (FRAME - 1))
        for j in rng.choice(len(frames), size=3, replace=False):
            got = features.mfcc(frames[j] * window, 16000)
            self.check(np.allclose(got, ref[j], rtol=1e-7, atol=1e-7),
                       f"{sid}: mfcc of frame {j} differs from the reference")


# -- train -----------------------------------------------------------------------

class Train(Workload):
    """train on the overlap fixture corpus; scored on a held-out corpus."""

    OBJECTIVE_RTOL = 0.005
    OBJECTIVE_ATOL = 0.005
    F1_SLACK = 0.05

    def setup(self, k):
        self.train_dir = os.path.join(self.work, "train")
        self.heldout_dir = os.path.join(self.work, "heldout")
        self.synth_with_features((self.train_dir, FIXTURE_SEED, N_PER_CLASS),
                                 (self.heldout_dir, corpus_seed(self.seed, 2), HELDOUT_PER_CLASS))

    def round(self):
        model = os.path.join(self.work, "model.json")
        t0 = time.perf_counter()
        self.cli("train", "--manifest", os.path.join(self.train_dir, "manifest.csv"),
                 "--features", os.path.join(self.train_dir, "features.csv"),
                 "--model-out", model)
        elapsed = time.perf_counter() - t0
        with open(model, "rb") as fh:
            produced = fh.read()
        if self.n_rounds == 0:
            self.first_model = produced
        else:
            self.check(produced == self.first_model, "retraining changed model.json")
        self.n_rounds += 1
        return elapsed

    def _matrix(self, directory):
        gold = {r["sample_id"]: r["gold"] for r in read_csv(os.path.join(directory, "manifest.csv"))}
        feats = read_features(os.path.join(directory, "features.csv"))
        ids = list(gold)
        columns = list(next(iter(feats.values())))
        return ids, np.array([[feats[s][c] for c in columns] for s in ids]), gold

    def verify(self):
        from serhybrid import classifier
        from serhybrid.features import FeatureVector
        doc = json.loads(self.first_model)
        W = np.array([[float(v) for v in row] for row in doc["weights"]])
        b = np.array([float(v) for v in doc["biases"]])
        pa = np.array([float(v) for v in doc["platt_a"]])
        pb = np.array([float(v) for v in doc["platt_b"]])
        mean = np.array([float(v) for v in doc["scaler"]["mean"]])
        std = np.array([float(v) for v in doc["scaler"]["std"]])
        C = float(doc["meta"]["C"])
        self.check(tuple(doc["classes"]) == reference.CLASSES, f"classes {doc['classes']}")

        ids, X, gold = self._matrix(self.train_dir)
        my_mean, my_std = X.mean(axis=0), np.maximum(X.std(axis=0), 1e-8)
        self.check(np.allclose(mean, my_mean, rtol=1e-12, atol=1e-12)
                   and np.allclose(std, my_std, rtol=1e-12, atol=0),
                   "model scaler differs from the column means/stds of the training features")
        Xs = (X - my_mean) / my_std
        labels = np.array([gold[s] for s in ids])
        ref_W, ref_b = np.zeros_like(W), np.zeros_like(b)
        excess = 0.0
        for k, cls in enumerate(reference.CLASSES):
            y = np.where(labels == cls, 1.0, -1.0)
            ref_W[k], ref_b[k], primal, dual = reference.svm_reference(Xs, y, C)
            self.check(primal <= dual * (1 + 1e-5) + 1e-7,
                       f"{cls}: reference solver gap {primal - dual:.3g}")
            got = reference.primal_objective(W[k], b[k], Xs, y, C)
            self.check(got <= primal * (1 + self.OBJECTIVE_RTOL) + self.OBJECTIVE_ATOL,
                       f"{cls}: primal objective {got:.6f} vs optimum {primal:.6f}")
            excess += got - primal

        h_ids, H, h_gold = self._matrix(self.heldout_dir)
        Hs = (H - my_mean) / my_std
        with np.errstate(over="ignore"):
            probs = reference.platt_probabilities(Hs @ W.T + b, pa, pb)
        mine = {s: reference.CLASSES[int(np.argmax(p))] for s, p in zip(h_ids, probs)}
        model = classifier.SvmModel.from_json(self.first_model.decode())
        for s, row, p in zip(h_ids, H, probs):
            ev = classifier.predict(model, FeatureVector(row))
            self.check(abs(float(ev.per_class_probs.sum()) - 1.0) <= 1e-12,
                       f"{s}: probabilities sum to {ev.per_class_probs.sum()!r}")
            self.check(np.allclose(ev.per_class_probs, p, rtol=1e-9, atol=1e-12)
                       and ev.label == mine[s], f"{s}: predict disagrees with model.json")
        f1 = reference.macro_f1(mine, h_gold)
        ref_labels = {s: reference.CLASSES[int(np.argmax(m))]
                      for s, m in zip(h_ids, Hs @ ref_W.T + ref_b)}
        ref_f1 = reference.macro_f1(ref_labels, h_gold)
        self.check(f1 >= ref_f1 - self.F1_SLACK,
                   f"held-out macro-F1 {f1:.4f} vs reference SVM {ref_f1:.4f}")
        self.layer_values["classifier.heldout_macro_f1"] = f1
        self.layer_values["classifier.objective_excess"] = excess


# -- compare ----------------------------------------------------------------------

NEUTRAL = ("the train was late again", "we should order more paper",
           "the meeting moved to thursday", "please send me the report",
           "it is raining outside", "the printer is out of toner")
EMOTIVE = {"calm": ("i am calm about it", "stay calm and wait"),
           "angry": ("i am angry about this", "this makes me angry"),
           "panic": ("i panic when this happens", "do not panic now")}


class Compare(Workload):
    """predict v2 -> evaluate -> refine -> refine --apply -> compare v1-v5 ->
    text-baseline predict, against the mock endpoint with a cold cache and
    then twice with the warm cache."""

    def setup(self, k):
        from serhybrid import reasoning
        from serhybrid.features import CorpusStats, read_features_csv
        self.server = subprocess.Popen([sys.executable, os.path.join(HERE, "mockserver.py")],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.base = f"http://127.0.0.1:{int(self.server.stdout.readline())}"
        corpus_dir = os.path.join(self.work, "corpus")
        self.manifest = os.path.join(corpus_dir, "manifest.csv")
        self.synth_with_features((corpus_dir, corpus_seed(self.seed, 3), N_PER_CLASS))
        self.features = os.path.join(corpus_dir, "features.csv")
        feats = read_features_csv(self.features)
        self.gold = {r["sample_id"]: r["gold"] for r in read_csv(self.manifest)}
        self.ids = list(self.gold)
        self.stats = os.path.join(self.work, "stats.json")
        with open(self.stats, "w") as fh:
            fh.write(CorpusStats.from_vectors([feats[s] for s in self.ids]).to_json())
        # a short solver run: the model only steers routing here, and the
        # solver at its defaults is what the train workload measures
        train_cfg = os.path.join(self.work, "train_config.json")
        with open(train_cfg, "w") as fh:
            json.dump({"max_passes": 3}, fh)
        self.model = os.path.join(self.work, "model.json")
        self.setup_cli("--config", train_cfg, "train", "--manifest", self.manifest,
                       "--features", self.features, "--model-out", self.model)
        self.rules = os.path.join(self.work, "rules.json")
        reasoning.default_ruleset().save(self.rules)
        rng = np.random.default_rng([self.seed, 4])
        self.transcripts = os.path.join(self.work, "transcripts.csv")
        with open(self.transcripts, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", "transcript"])
            for sid in self.ids:
                mode = rng.uniform()
                if mode < 0.5:
                    pool = EMOTIVE[self.gold[sid]]
                elif mode < 0.75:
                    pool = EMOTIVE[reference.CLASSES[int(rng.integers(3))]]
                else:
                    pool = NEUTRAL
                writer.writerow([sid, f"({sid}) {pool[int(rng.integers(len(pool)))]}"])
        self.cache = os.path.join(self.work, "cache")
        self.config = os.path.join(self.work, "client_config.json")
        with open(self.config, "w") as fh:
            json.dump({"endpoint_url": self.base + "/v1", "model_name": "mock",
                       "cache": self.cache, "max_in_flight": self.workers,
                       "retry_backoff_s": RETRY_BACKOFF_S, "tau": TAU}, fh)
        self.out = os.path.join(self.work, "out")
        self.rounds_warm = None
        self.cold_stats = []

    def _server(self, path, method="GET"):
        req = urllib.request.Request(self.base + path, method=method,
                                     data=b"" if method == "POST" else None)
        with urllib.request.urlopen(req, timeout=30) as resp:
            return json.loads(resp.read())

    def _pass(self, phase):
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        o = lambda name: os.path.join(self.out, name)  # noqa: E731
        cfg = ("--config", self.config)
        common = ("--manifest", self.manifest, "--features", self.features,
                  "--model", self.model, "--stats", self.stats)
        outer = self.phase(phase)
        t0 = time.perf_counter()
        self.cli(*cfg, "predict", *common, "--rules", self.rules, "--version", "v2_rules",
                 "--out", o("pred_v2.jsonl"), "--report", o("report_v2.json"))
        self.cli(*cfg, "evaluate", "--predictions", o("pred_v2.jsonl"),
                 "--manifest", self.manifest, "--out", o("eval_v2.json"))
        self.cli(*cfg, "refine", "--predictions", o("pred_v2.jsonl"), "--manifest", self.manifest,
                 "--features", self.features, "--stats", self.stats, "--rules", self.rules,
                 "--proposals-out", o("proposals.json"), "--accept-all")
        self.cli(*cfg, "refine", "--apply", o("proposals.json"), "--rules", self.rules,
                 "--rules-out", o("rules_v2.json"))
        self.cli(*cfg, "compare", *common, "--rules", self.rules,
                 "--refined-rules", o("rules_v2.json"), "--out-dir", o("ablation"))
        self.cli(*cfg, "predict", "--manifest", self.manifest, "--version", "text_baseline",
                 "--transcripts", self.transcripts, "--out", o("pred_text.jsonl"),
                 "--report", o("report_text.json"))
        elapsed = time.perf_counter() - t0
        self.phase(outer)
        files = {}
        for dirpath, _, names in os.walk(self.out):
            for name in names:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, self.out)] = fh.read()
        return elapsed, files

    def round(self):
        shutil.rmtree(self.cache, ignore_errors=True)
        self._server("/reset", "POST")
        cold_s, cold = self._pass("cold")
        stats = self._server("/stats")
        self.cold_stats.append(stats)
        self._server("/reset", "POST")
        warm1_s, warm1 = self._pass("warm")
        warm2_s, warm2 = self._pass("warm")
        warm_stats = self._server("/stats")
        self.check(stats["requests"] == stats["distinct_answered"] + stats["retries"]
                   and stats["retries"] == stats["errors_503"] and stats["distinct_answered"] > 0,
                   f"cold pass sent duplicates or left refusals unretried: {stats}")
        self.check(warm_stats["requests"] == 0,
                   f"warm passes sent {warm_stats['requests']} requests")
        self.check(warm1 == warm2, "warm-cache reruns are not byte-identical: "
                   + ", ".join(sorted(k for k in warm1 if warm1.get(k) != warm2.get(k))))
        self.check(_masked(cold) == _masked(warm1),
                   "cold and warm artifacts differ beyond latency_ms and cache_hits")
        if self.rounds_warm is None:
            self.rounds_warm = warm1
        else:
            self.check(warm1 == self.rounds_warm, "artifacts changed between rounds")
        self.n_rounds += 1
        return cold_s + warm1_s + warm2_s

    def verify(self):
        files = self.rounds_warm
        preds = {}
        for v in VERSIONS:
            preds[v] = _jsonl(files[os.path.join("ablation", f"predictions_{v}.jsonl")])
        preds["predict_v2"] = _jsonl(files["pred_v2.jsonl"])
        preds["text_baseline"] = _jsonl(files["pred_text.jsonl"])
        labels = {}
        for name, rows in preds.items():
            ids = [p["sample_id"] for p in rows]
            self.check(len(ids) == len(self.ids) and set(ids) == set(self.ids),
                       f"{name}: not exactly one prediction per sample")
            fallbacks = [p["sample_id"] for p in rows if p["source"] not in ("ml_direct", "llm_reasoned")]
            self.check(not fallbacks, f"{name}: fallback predictions for {fallbacks[:5]}")
            wrong = [p["sample_id"] for p in rows if p["source"] == "llm_reasoned"
                     and reference.answered_label(p["rationale"]) != p["label"]]
            self.check(not wrong, f"{name}: labels disagree with their rationale for {wrong[:5]}")
            labels[name] = {p["sample_id"]: p["label"] for p in rows}
        off = [p["sample_id"] for p in preds["v4_hybrid"]
               if (p["source"] == "ml_direct") != (float(p["ml_evidence"]["confidence"]) >= TAU)]
        self.check(not off, f"v4_hybrid: routing disagrees with tau={TAU} for {off[:5]}")
        f1 = {name: reference.macro_f1(lab, self.gold) for name, lab in labels.items()}
        doc = json.loads(files[os.path.join("ablation", "compare.json")])
        self.check([r["version"] for r in doc["rows"]] == list(VERSIONS), "compare.json rows")
        for row in doc["rows"]:
            mine = f1[row["version"]]
            self.check(abs(row["full"]["macro_f1"] - mine) <= 1e-12 and row["f1"] == round(mine, 3),
                       f"compare.json {row['version']} macro-F1 {row['full']['macro_f1']!r} "
                       f"vs recount {mine!r}")
        evaluated = json.loads(files["eval_v2.json"])["metrics"]["macro_f1"]
        self.check(abs(evaluated - f1["predict_v2"]) <= 1e-12,
                   f"eval_v2.json macro-F1 {evaluated!r} vs recount {f1['predict_v2']!r}")
        for name, blob in files.items():
            if os.path.basename(name).startswith("report_"):
                failures = json.loads(blob).get("failures")
                self.check(failures == [], f"{name}: failures {failures}")
        report_v4 = json.loads(files[os.path.join("ablation", "report_v4_hybrid.json")])
        requests = [s["requests"] for s in self.cold_stats]
        self.check(len(set(requests)) == 1, f"cold passes sent {requests} requests")
        s = self.cold_stats[0]
        self.layer_values.update({
            "reasoning.requests_sent": s["requests"],
            "reasoning.retries": s["retries"],
            "reasoning.useful_request_ratio": s["distinct_answered"] / s["requests"],
            "hybrid.routed_to_llm": report_v4["routed_to_llm"],
            "hybrid.v4_macro_f1": f1["v4_hybrid"],
        })

    def close(self):
        server = getattr(self, "server", None)
        if server is None:
            return
        server.stdin.close()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()


def _jsonl(blob):
    return [json.loads(line) for line in blob.decode().splitlines() if line.strip()]


def _masked(files):
    """Artifacts with the per-request fields that legitimately differ between a
    cold and a warm pass removed: ``latency_ms`` in predictions (0.0 on a
    cache hit) and ``cache_hits`` in run reports."""
    out = {}
    for name, blob in files.items():
        if name.endswith(".jsonl"):
            rows = _jsonl(blob)
            for row in rows:
                row.pop("latency_ms", None)
            out[name] = rows
        elif os.path.basename(name).startswith("report_"):
            doc = json.loads(blob)
            doc.pop("cache_hits", None)
            out[name] = doc
        else:
            out[name] = blob
    return out


WORKLOADS = {"extract": Extract, "train": Train, "compare": Compare}


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.exit(features_worker(sys.argv[1:]))
