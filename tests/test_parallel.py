"""The shared thread pool: ordered results, abort on the first error in
input order, and commands whose outputs do not depend on its size."""

import contextlib
import io
import os
import shutil
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.io.wavfile

import oracles
from conftest import planted_recipe
from serhybrid import audio_io, cli, corpus, features, parallel


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n): the next command runs on a fresh pool sized as on a machine
    with n usable CPUs. Pools made here are shut down afterwards."""
    original = parallel._shared

    def shut_own():
        if parallel._shared not in (None, original):
            parallel._shared[0].shutdown(wait=True)

    def use(n):
        shut_own()
        monkeypatch.setattr(parallel, "usable_cpus", lambda: n)
        monkeypatch.setattr(parallel, "_shared", None)

    yield use
    shut_own()


def _quiet(argv):
    """cli.main's exit code and stderr, its stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


@contextlib.contextmanager
def _contended():
    """Cold shared caches, and threads switched every 10 microseconds, so
    that threads race to fill the caches the per-file work shares."""
    audio_io._polyphase_bank.cache_clear()
    features._shared_mel_filterbank.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _tree(root):
    """{relative path: bytes} of every file under root."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestOrderedMap:
    @pytest.mark.parametrize("n", [1, 2])
    def test_results_in_input_order(self, cpus, n):
        cpus(n)

        def slow_early(i):  # later items finish first
            time.sleep(0.002 * (10 - i))
            return i * i

        assert list(parallel.ordered_map(slow_early, range(10))) == [i * i for i in range(10)]

    @pytest.mark.parametrize("n", [1, 2])
    def test_first_error_in_input_order_is_raised_unchanged(self, cpus, n):
        cpus(n)
        first, later = ValueError("item 1"), KeyError("item 2")

        def fn(i):
            if i == 1:
                time.sleep(0.05)  # fails after item 2 has
                raise first
            if i == 2:
                raise later
            return i

        with pytest.raises(ValueError) as caught:
            list(parallel.ordered_map(fn, range(6)))
        assert caught.value is first

    @pytest.mark.parametrize("n", [1, 2])
    def test_no_item_starts_after_an_abort(self, cpus, n):
        cpus(n)
        lock = threading.Lock()
        started, finished = [], []

        def fn(i):
            with lock:
                started.append(i)
            if i == 3:
                raise RuntimeError("abort")
            time.sleep(0.005)
            with lock:
                finished.append(i)
            return i

        with pytest.raises(RuntimeError):
            list(parallel.ordered_map(fn, range(50)))
        with lock:
            seen = sorted(started)
            # every item that started, bar the failing one, had finished
            assert sorted(finished) == [i for i in seen if i != 3]
        # only the window submitted before item 3 was read may have started
        assert max(seen) <= 3 + 2 * n - 1
        time.sleep(0.05)
        assert sorted(started) == seen

    @pytest.mark.parametrize("n", [1, 2])
    def test_window_is_twice_the_threads(self, cpus, n):
        cpus(n)
        started = []
        results = parallel.ordered_map(started.append, range(50))
        next(results)
        time.sleep(0.05)
        # items 0 .. 2n - 1 submitted up front, and one more after item 0
        assert sorted(started) == list(range(2 * n + 1))
        results.close()
        time.sleep(0.05)
        assert len(started) == 2 * n + 1

    def test_default_size_is_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel, "_shared", None)
        try:
            names = set(parallel.ordered_map(
                lambda _: (time.sleep(0.01), threading.current_thread().name)[1], range(20)))
            _, window = parallel._shared
            assert window == 2 * len(os.sched_getaffinity(0))
            assert len(names) <= len(os.sched_getaffinity(0))
        finally:
            parallel._shared[0].shutdown(wait=True)


@pytest.fixture(scope="module")
def recordings(tmp_path_factory):
    """Three 44.1 kHz stereo recordings of tones between pauses, and one
    file that is not audio."""
    root = tmp_path_factory.mktemp("recordings")
    rate = 44100
    rng = np.random.default_rng(7)
    for r in range(3):
        x = rng.normal(0.0, 1e-4, size=4 * rate)
        for k, start in enumerate((0.3, 1.6, 2.9)):
            t = np.arange(int(0.8 * rate)) / rate
            lo = int(start * rate)
            x[lo:lo + len(t)] += 0.3 * np.sin(2 * np.pi * (120 + 40 * r + 30 * k) * t)
        stereo = np.stack([x * 0.9, x * 0.7], axis=1)
        scipy.io.wavfile.write(root / f"rec{r}.wav", rate,
                               np.round(stereo * 32767).astype(np.int16))
    (root / "broken.wav").write_bytes(b"not audio")
    return root


@pytest.fixture(scope="module")
def clips(tmp_path_factory):
    root = tmp_path_factory.mktemp("clips")
    assert cli.main(["synth", "--out-dir", str(root), "--n-per-class", "3",
                     "--seed", "5", "--duration-s", "0.8"]) == 0
    return root / "manifest.csv"


class TestCommandsOnTheSharedPool:
    def test_preprocess_is_byte_identical_on_any_pool(self, cpus, recordings, tmp_path):
        out = tmp_path / "segments"
        trees = []
        for n in (1, 2, 8):
            cpus(n)
            with _contended():
                code = _quiet(["preprocess", "--in-dir", recordings, "--out-dir", out])
            assert code == (0, "")
            trees.append(_tree(out))
            for name in os.listdir(out):
                os.remove(out / name)
        assert trees[0] == trees[1] == trees[2]
        assert sum(name.endswith(".wav") for name in trees[0]) == 9
        assert {"manifest.csv", "preprocess_report.json"} <= set(trees[0])
        assert b'"file": "broken.wav"' in trees[0]["preprocess_report.json"]

    def test_features_are_byte_identical_on_any_pool(self, cpus, clips, tmp_path):
        trees = []
        for n in (1, 2, 8):
            cpus(n)
            with _contended():
                code = _quiet(["features", "--manifest", clips, "--out", tmp_path / "f.csv",
                               "--stats-out", tmp_path / "stats.json"])
            assert code == (0, "")
            trees.append(_tree(tmp_path))
        assert trees[0] == trees[1] == trees[2]

    @pytest.mark.parametrize("recipe", [
        corpus.SynthRecipe(seed=3, n_per_class=4, duration_s=0.5, overlap=0.5),
        replace(planted_recipe(), n_per_class=5, duration_s=0.5),
    ], ids=["overlap", "planted-flat"])
    def test_synth_is_the_serial_corpus_on_any_pool(self, cpus, tmp_path, recipe):
        # the planted recipe has flat-waveform panic and planted variants
        out = tmp_path / "corpus"
        expected = oracles.synthetic_corpus_serial(recipe, str(out))
        serial = _tree(out)
        for n in (1, 2, 8):
            shutil.rmtree(out)
            cpus(n)
            with _contended():
                assert corpus.generate_synthetic_corpus(recipe, str(out)) == expected
            assert _tree(out) == serial
        assert len(serial) == 3 * recipe.n_per_class + 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_missing_clip_is_the_serial_error(self, cpus, clips, tmp_path, n):
        cpus(n)
        lines = clips.read_text().splitlines()[:6]  # the header and 5 clips
        missing = str(tmp_path / "gone.wav")
        cells = lines[2].split(",")
        cells[1] = missing
        lines[2] = ",".join(cells)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n")
        code, err = _quiet(["features", "--manifest", manifest, "--out", tmp_path / "f.csv"])
        assert (code, err) == (2, f"data error: [Errno 2] No such file or directory: "
                                  f"{missing!r}\n")
        assert not (tmp_path / "f.csv").exists()

    def test_thread_count_stays_flat_over_commands(self, cpus, clips, recordings, tmp_path):
        cpus(2)
        counts = []
        for k in range(20):
            if k % 2:
                argv = ["features", "--manifest", clips, "--out", tmp_path / "f.csv"]
            else:
                argv = ["preprocess", "--in-dir", recordings, "--out-dir", tmp_path / "seg"]
            assert _quiet(argv)[0] == 0
            counts.append(threading.active_count())
        assert len(set(counts)) == 1, counts
