"""Manifests, stratified splits, and the synthetic corpus generator.

The generator produces tone complexes, not speech: pitch and loudness
trajectories are analytically controlled per class (calm = stable and
quiet, angry = loud with raised pitch, panic = strongly modulated pitch
and energy), so feature-level ground truth is checkable. An ``overlap``
fraction of angry and panic samples is drawn from recipes blended halfway
toward the other class, which is the ambiguity dial the confidence router
is evaluated against.
"""

import math
import os
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import parallel
from .audio_io import AudioSignal, save_wav
from .errors import ConfigError, DataError, read_csv, write_csv
from .labels import CLASSES

SPLITS = ("set1", "set2", "set3", "test", "unassigned")

SOURCE_KINDS = ("movie", "entertainment", "interview", "synthetic")

# default split fractions reproduce the published 706/691/696/671 sizes
# over 2,764 samples
DEFAULT_FRACTIONS = (0.2555, 0.2500, 0.2518, 0.2427)


@dataclass(frozen=True)
class ManifestEntry:
    # field order is the column order of a manifest
    sample_id: str
    audio_path: str = ""
    gold: str = None
    annotator_a: str = None
    annotator_b: str = None
    annotator_c: str = None
    split: str = "unassigned"
    source_kind: str = "synthetic"
    duration_s: float = 0.0


MANIFEST_FIELDS = tuple(f.name for f in fields(ManifestEntry))

VOTES = ("annotator_a", "annotator_b", "annotator_c")


def _entry_from_row(row, where):
    """A ManifestEntry from one CSV row of known columns; an empty cell
    takes the field's default."""
    if not row["sample_id"]:
        raise ConfigError(f"{where}: missing sample_id")
    clean = {key: value for key, value in row.items() if value}
    try:
        clean["duration_s"] = float(clean.get("duration_s", 0.0))
    except ValueError:
        raise ConfigError(f"{where}: duration_s must be a number, got {row['duration_s']!r}")
    if not 0.0 <= clean["duration_s"] < math.inf:
        raise ConfigError(f"{where}: duration_s must be finite and at least 0, "
                          f"got {row['duration_s']!r}")
    entry = ManifestEntry(**clean)
    if "\0" in entry.audio_path:  # no file system opens such a path
        raise ConfigError(f"{where}: audio_path {entry.audio_path!r} holds a NUL byte")
    for label in (entry.gold, entry.annotator_a, entry.annotator_b, entry.annotator_c):
        if label is not None and label not in CLASSES:
            raise ConfigError(f"{where}: unknown label {label!r}")
    if entry.split not in SPLITS:
        raise ConfigError(f"{where}: unknown split {entry.split!r}")
    if entry.source_kind not in SOURCE_KINDS:
        raise ConfigError(f"{where}: unknown source kind {entry.source_kind!r}")
    return entry


def load_manifest(path):
    """Parse a CSV manifest whose header names a sample_id column and
    otherwise only MANIFEST_FIELDS; duplicate sample ids are rejected."""
    header, rows = read_csv(path, ConfigError, ("sample_id",), known=MANIFEST_FIELDS)
    return [_entry_from_row(dict(zip(header, cells)), where) for where, cells in rows]


def require_labels(entries, columns=("gold",)):
    """The one check that entries carry the labels a command needs: an entry
    with an empty cell in one of ``columns`` raises one DataError naming up
    to five of their sample ids."""
    missing = [e.sample_id for e in entries if any(getattr(e, c) is None for c in columns)]
    if missing:
        raise DataError(f"entries without {'/'.join(columns)} labels: {missing[:5]}")


def save_manifest(path, entries):
    write_csv(path, MANIFEST_FIELDS,
              (["" if v is None else v for v in astuple(e)] for e in entries))


def _largest_remainder(n, fractions):
    """Integer allocation of n items over fractions, preserving the total."""
    raw = [n * f for f in fractions]
    counts = [int(math.floor(r)) for r in raw]
    short = n - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    return counts


def stratified_split(entries, fractions=DEFAULT_FRACTIONS, seed=0):
    """Assign set1/set2/set3/test preserving per-class proportions.

    Deterministic given the seed; every entry lands in exactly one split.
    """
    require_labels(entries)
    names = SPLITS[:len(fractions)]
    assignment = {}
    for ci, cls_label in enumerate(CLASSES):
        idxs = [i for i, e in enumerate(entries) if e.gold == cls_label]
        rng = np.random.default_rng([seed, ci])
        idxs = [idxs[j] for j in rng.permutation(len(idxs))]
        counts = _largest_remainder(len(idxs), fractions)
        pos = 0
        for name, count in zip(names, counts):
            for i in idxs[pos:pos + count]:
                assignment[i] = name
            pos += count
    return [replace(e, split=assignment[i]) for i, e in enumerate(entries)]


@dataclass(frozen=True)
class ClassRecipe:
    base_pitch_hz: float
    pitch_jitter: float       # relative pitch modulation depth
    energy_level: float       # carrier amplitude
    energy_jitter: float      # relative amplitude modulation depth
    modulation_rate_hz: float
    # relative per-sample spreads of the parameters above
    pitch_var: float = 0.03
    jitter_var: float = 0.15        # spread of the pitch modulation depth
    energy_var: float = 0.08
    ejitter_var: float = 0.15       # spread of the amplitude modulation depth
    rate_var: float = 0.10
    # per-sample random harmonic richness: 2nd/3rd harmonic gains are drawn
    # uniformly from [0, harmonics], RMS-normalized so loudness is unchanged
    harmonics: float = 0.5
    # pitch modulator shape: "sine", or "flat" (saturated sine, which spends
    # more time near the excursion extremes and so decouples the pitch
    # spread from the pitch range)
    pitch_waveform: str = "sine"

    def blend(self, other, weight):
        """Every numeric parameter mixed toward ``other``; the waveform is ours."""
        return replace(self, **{f.name: (1 - weight) * getattr(self, f.name)
                                + weight * getattr(other, f.name)
                                for f in fields(self) if f.name != "pitch_waveform"})


@dataclass(frozen=True)
class SynthRecipe:
    classes: dict = None      # label -> ClassRecipe
    overlap: float = 0.0      # fraction of angry/panic samples blended halfway
    seed: int = 0
    duration_s: float = 2.0
    n_per_class: int = 50
    sample_rate: int = 16000
    # optional planted variants: label -> ClassRecipe used verbatim for the
    # first ceil(variant_fraction * n_per_class) samples of that label
    variants: dict = None
    variant_fraction: float = 0.0

    def __post_init__(self):
        if self.classes is None:
            object.__setattr__(self, "classes", dict(DEFAULT_CLASS_RECIPES))
        if self.variants is None:
            object.__setattr__(self, "variants", {})
        if not 0.0 <= self.overlap <= 1.0:
            raise ConfigError("overlap must be in [0, 1]")
        if not (math.isfinite(self.duration_s) and self.duration_s * self.sample_rate >= 1):
            raise ConfigError(f"duration_s must be finite and cover at least one sample "
                              f"at {self.sample_rate} Hz")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.n_per_class < 0:
            raise ConfigError("n_per_class must be >= 0")
        if not 0.0 <= self.variant_fraction <= 1.0:
            raise ConfigError("variant_fraction must be in [0, 1]")


DEFAULT_CLASS_RECIPES = {
    "calm": ClassRecipe(base_pitch_hz=110.0, pitch_jitter=0.02,
                        energy_level=0.10, energy_jitter=0.05,
                        modulation_rate_hz=1.5),
    "angry": ClassRecipe(base_pitch_hz=250.0, pitch_jitter=0.06,
                         energy_level=0.46, energy_jitter=0.12,
                         modulation_rate_hz=3.0),
    "panic": ClassRecipe(base_pitch_hz=270.0, pitch_jitter=0.18,
                         energy_level=0.30, energy_jitter=0.45,
                         modulation_rate_hz=7.0),
}

# every synthetic file starts with one full-scale reference sample so peak
# normalization applies the same gain everywhere and relative loudness
# between files survives standardization
PEAK_REFERENCE = 0.98


def _synthesize(recipe, rng, duration_s, sample_rate):
    """One tone complex following a ClassRecipe, with per-sample variation.

    The signal is built in four arrays updated in place, each step with
    the operands of the plain expression in its comment, so the samples
    are those of that expression bit for bit."""
    n = int(duration_s * sample_rate)
    t = np.arange(n) / sample_rate
    base = recipe.base_pitch_hz * (1.0 + recipe.pitch_var * rng.standard_normal())
    p_jit = max(0.0, recipe.pitch_jitter * (1.0 + recipe.jitter_var * rng.standard_normal()))
    energy = max(0.01, recipe.energy_level * (1.0 + recipe.energy_var * rng.standard_normal()))
    e_jit = max(0.0, recipe.energy_jitter * (1.0 + recipe.ejitter_var * rng.standard_normal()))
    rate = max(0.2, recipe.modulation_rate_hz * (1.0 + recipe.rate_var * rng.standard_normal()))
    phi_p, phi_e = rng.uniform(0, 2 * np.pi, size=2)
    h2, h3 = rng.uniform(0.0, recipe.harmonics, size=2)
    phi_h2, phi_h3 = rng.uniform(0, 2 * np.pi, size=2)
    # modulator = sin(2 pi rate t + phi_p)
    phase = np.multiply(2 * np.pi * rate, t)
    np.sin(np.add(phase, phi_p, out=phase), out=phase)
    if recipe.pitch_waveform == "flat":
        # modulator = tanh(2.5 modulator) / tanh(2.5)
        np.tanh(np.multiply(2.5, phase, out=phase), out=phase)
        np.divide(phase, np.tanh(2.5), out=phase)
    # freq = clip(base (1 + p_jit modulator), 65, 395)
    np.multiply(p_jit, phase, out=phase)
    np.multiply(base, np.add(1.0, phase, out=phase), out=phase)
    np.clip(phase, 65.0, 395.0, out=phase)
    # phase = 2 pi cumsum(freq) / sample_rate
    np.cumsum(phase, out=phase)
    np.divide(np.multiply(2 * np.pi, phase, out=phase), sample_rate, out=phase)
    # carrier = sin(phase) + h2 sin(2 phase + phi_h2) + h3 sin(3 phase + phi_h3)
    carrier = np.sin(phase)
    harmonic = np.multiply(2, phase)
    np.sin(np.add(harmonic, phi_h2, out=harmonic), out=harmonic)
    np.add(carrier, np.multiply(h2, harmonic, out=harmonic), out=carrier)
    np.multiply(3, phase, out=phase)
    np.sin(np.add(phase, phi_h3, out=phase), out=phase)
    np.add(carrier, np.multiply(h3, phase, out=phase), out=carrier)
    carrier /= math.sqrt(1.0 + h2 * h2 + h3 * h3)
    # amp = max(energy (1 + e_jit sin(2 pi rate 1.3 t + phi_e)), 0.02 energy)
    amp = np.multiply(2 * np.pi * rate * 1.3, t, out=t)
    np.sin(np.add(amp, phi_e, out=amp), out=amp)
    np.multiply(e_jit, amp, out=amp)
    np.multiply(energy, np.add(1.0, amp, out=amp), out=amp)
    np.maximum(amp, 0.02 * energy, out=amp)
    # x = clip(amp carrier + 0.002 noise)
    x = np.multiply(amp, carrier, out=carrier)
    noise = rng.standard_normal(out=harmonic)
    np.add(x, np.multiply(0.002, noise, out=noise), out=x)
    np.clip(x, -PEAK_REFERENCE + 1e-6, PEAK_REFERENCE - 1e-6, out=x)
    x[0] = PEAK_REFERENCE
    return x


def _samples(recipe):
    """(class index, index in class, label, active ClassRecipe) of every
    sample of a SynthRecipe, in manifest order. The first round(overlap *
    n_per_class) samples of the angry and panic classes take recipes
    blended halfway toward the other class, unless planted variants take
    them."""
    n_blend = int(round(recipe.overlap * recipe.n_per_class))
    n_variant = int(math.ceil(recipe.variant_fraction * recipe.n_per_class))
    blend_partner = {"angry": "panic", "panic": "angry"}
    for ci, label in enumerate(CLASSES):
        class_recipe = recipe.classes[label]
        for i in range(recipe.n_per_class):
            active = class_recipe
            if label in recipe.variants and i < n_variant:
                active = recipe.variants[label]
            elif label in blend_partner and i < n_blend:
                active = class_recipe.blend(recipe.classes[blend_partner[label]], 0.5)
            yield ci, i, label, active


def generate_synthetic_corpus(recipe, out_dir):
    """Write per-class WAVs plus a manifest; deterministic given the seed.

    Returns the manifest entries. Samples are synthesized and written on
    the shared pool; each draws from its own generator seeded by (seed,
    class index, index in class), and entries are taken in order, so the
    files do not depend on the thread count.
    """
    os.makedirs(out_dir, exist_ok=True)

    def write(sample):
        ci, i, label, active = sample
        rng = np.random.default_rng([recipe.seed, ci, i])
        x = _synthesize(active, rng, recipe.duration_s, recipe.sample_rate)
        sample_id = f"{label}_{i:03d}"
        path = os.path.join(out_dir, sample_id + ".wav")
        save_wav(path, AudioSignal(x, recipe.sample_rate))
        return ManifestEntry(sample_id=sample_id, audio_path=path, gold=label,
                             source_kind="synthetic", duration_s=recipe.duration_s)

    entries = list(parallel.ordered_map(write, _samples(recipe)))
    save_manifest(os.path.join(out_dir, "manifest.csv"), entries)
    return entries
