"""Shared corpora fixtures.

The three synthetic corpora used across the suite are generated once per
session (audio synthesis plus feature extraction is the expensive part):

* separable: overlap 0, cleanly separated classes; the classifier fixture.
* overlap:   40% of angry/panic samples blended halfway toward the other
             class; the routing/ablation fixture.
* planted:   a fifth of the panic class is synthesized with angry-level
             pitch modulation but loud, angry-like energy, so a literal
             reading of the seed rules mislabels exactly those samples as
             angry, with pitch_std as the known separating dimension.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from serhybrid.audio_io import load_audio, standardize
from serhybrid.classifier import train
from serhybrid.corpus import (DEFAULT_CLASS_RECIPES, ClassRecipe, SynthRecipe,
                              generate_synthetic_corpus)
from serhybrid.features import CorpusStats, aggregate, extract_series


def extract_corpus(entries):
    """Feature vectors for a list of manifest entries, keyed by sample id."""
    features = {}
    for entry in entries:
        signal = standardize(load_audio(entry.audio_path))
        features[entry.sample_id] = aggregate(*extract_series(signal))
    return features


def _corpus_bundle(recipe, out_dir):
    entries = generate_synthetic_corpus(recipe, str(out_dir))
    features = extract_corpus(entries)
    gold = {e.sample_id: e.gold for e in entries}
    stats = CorpusStats.from_vectors([features[e.sample_id] for e in entries])
    return SimpleNamespace(entries=entries, features=features, gold=gold,
                           stats=stats, recipe=recipe, dir=str(out_dir))


@pytest.fixture(scope="session")
def separable_corpus(tmp_path_factory):
    recipe = SynthRecipe(seed=1, overlap=0.0, n_per_class=50)
    return _corpus_bundle(recipe, tmp_path_factory.mktemp("separable"))


@pytest.fixture(scope="session")
def overlap_corpus(tmp_path_factory):
    recipe = SynthRecipe(seed=11, overlap=0.4, n_per_class=100)
    return _corpus_bundle(recipe, tmp_path_factory.mktemp("overlap"))


def planted_recipe():
    classes = dict(DEFAULT_CLASS_RECIPES)
    classes["angry"] = replace(classes["angry"], jitter_var=0.10)
    classes["panic"] = replace(classes["panic"], energy_level=0.24,
                               jitter_var=0.06, energy_var=0.20,
                               ejitter_var=0.25, pitch_waveform="flat")
    planted_panic = ClassRecipe(base_pitch_hz=270.0, pitch_jitter=0.095,
                                energy_level=0.50, energy_jitter=0.30,
                                modulation_rate_hz=7.0, jitter_var=0.05,
                                energy_var=0.15, ejitter_var=0.25)
    return SynthRecipe(seed=13, n_per_class=50, classes=classes,
                       variants={"panic": planted_panic}, variant_fraction=0.2)


@pytest.fixture(scope="session")
def planted_corpus(tmp_path_factory):
    return _corpus_bundle(planted_recipe(), tmp_path_factory.mktemp("planted"))


def train_on(bundle):
    vectors = [bundle.features[e.sample_id] for e in bundle.entries]
    labels = [bundle.gold[e.sample_id] for e in bundle.entries]
    return train(vectors, labels)


@pytest.fixture(scope="session")
def separable_model(separable_corpus):
    return train_on(separable_corpus)


@pytest.fixture(scope="session")
def overlap_model(overlap_corpus):
    return train_on(overlap_corpus)
