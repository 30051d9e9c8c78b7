"""Error analysis and rule refinement.

Misclassified samples are grouped by (gold, predicted) pair; for each pair
with enough support, per-dimension Cohen's d between the error group and
the correctly-classified samples of the same gold class ranks which
feature dimensions drive the confusion. Each pattern becomes a candidate
rule for offline human acceptance; accepted proposals produce a new
rule-set version.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataError, parse_json, read_text, write_text
from .features import DIMENSIONS
from .labels import CLASSES
from .reasoning import Condition, Rule, RuleSet, parse_rule

PROPOSALS_SCHEMA = "serhybrid-proposals-v1"

TOP_DELTAS = 5


@dataclass(frozen=True)
class Delta:
    # field order is the member order of a top delta in a proposals file
    dimension: str
    effect_size: float   # Cohen's d: error group minus correct gold group
    direction: int       # sign of effect_size
    error_median_z: float


@dataclass(frozen=True)
class ErrorPattern:
    # field order is the member order of a pattern in a proposals file
    gold: str
    predicted: str
    support: int
    top_deltas: tuple  # of Delta, sorted by |d| descending


def _cohens_d(a, b):
    """Standardized mean difference (pooled std) between two sample groups,
    one value per row: ``a`` is (d, na) and ``b`` is (d, nb), one
    dimension a row. Each row is reduced on its own, as a 1-D group would
    be, so the values equal a per-dimension computation bit for bit."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = a.shape[1], b.shape[1]
    var_a = a.var(axis=1, ddof=1) if na > 1 else 0.0
    var_b = b.var(axis=1, ddof=1) if nb > 1 else 0.0
    denom_df = na + nb - 2
    if denom_df <= 0:
        return np.zeros(len(a))
    pooled = np.sqrt(((na - 1) * var_a + (nb - 1) * var_b) / denom_df)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = (a.mean(axis=1) - b.mean(axis=1)) / pooled
    return np.where(pooled == 0.0, 0.0, d)


def mine_error_patterns(gold, predicted, X, stats, min_support=5):
    """Rank feature dimensions separating each error group from the
    correctly-classified samples of the same gold class.

    ``gold`` and ``predicted`` are aligned label sequences and ``X`` the
    (n, n_dims) feature matrix of the same samples; ``stats`` supplies the
    z-scoring used to express thresholds in rule space. A group needs at
    least ``min_support`` samples, and at least one. Deterministic given
    inputs and min_support.
    """
    gold = np.asarray(gold, dtype=object)
    predicted = np.asarray(predicted, dtype=object)
    X = np.asarray(X, dtype=np.float64).reshape(-1, len(DIMENSIONS))
    if not len(gold) == len(predicted) == len(X):
        raise DataError(f"{len(gold)} gold labels, {len(predicted)} predictions "
                        f"and {len(X)} feature rows")
    patterns = []
    for g in CLASSES:
        is_gold = gold == g
        ok = is_gold & (predicted == g)
        if not ok.any():
            continue
        # dimension-major rows, each reduced as one contiguous 1-D group
        ok_T = np.ascontiguousarray(X[ok].T)
        for p in CLASSES:
            err = is_gold & (predicted == p)
            support = int(err.sum())
            if p == g or support < max(min_support, 1):
                continue
            d = _cohens_d(np.ascontiguousarray(X[err].T), ok_T)
            median_z = np.median(stats.transform(X[err]), axis=0)
            top = sorted(range(len(DIMENSIONS)),
                         key=lambda i: (-abs(d[i]), DIMENSIONS[i]))[:TOP_DELTAS]
            deltas = tuple(Delta(dimension=DIMENSIONS[i], effect_size=float(d[i]),
                                 direction=int(np.sign(d[i])),
                                 error_median_z=float(median_z[i]))
                           for i in top)
            patterns.append(ErrorPattern(gold=g, predicted=p, support=support,
                                         top_deltas=deltas))
    patterns.sort(key=lambda p: (-p.support, p.gold, p.predicted))
    return patterns


PROPOSAL_STATUSES = ("pending", "accepted", "rejected")


@dataclass(frozen=True)
class RuleProposal:
    candidate: Rule
    pattern: ErrorPattern
    status: str  # one of PROPOSAL_STATUSES
    base_version: int

    def to_dict(self):
        return {"status": self.status, "base_version": self.base_version,
                "candidate": asdict(self.candidate), "pattern": asdict(self.pattern)}

    @classmethod
    def from_dict(cls, doc, where):
        """Validate one proposal; its candidate must be a valid rule-file
        rule. Raises ConfigError naming ``where``."""
        try:
            status = doc["status"]
            if status not in PROPOSAL_STATUSES:
                raise ConfigError(f"{where}: status must be one of "
                                  f"{', '.join(PROPOSAL_STATUSES)}, got {status!r}")
            rule = parse_rule(doc["candidate"], f"{where}: candidate")
            p = doc["pattern"]
            pattern = ErrorPattern(gold=p["gold"], predicted=p["predicted"],
                                   support=int(p["support"]),
                                   top_deltas=tuple(Delta(d["dimension"],
                                                          float(d["effect_size"]),
                                                          int(d["direction"]),
                                                          float(d["error_median_z"]))
                                                    for d in p["top_deltas"]))
            base_version = int(doc["base_version"])
        except KeyError as exc:
            raise ConfigError(f"{where}: missing field {exc}")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: malformed proposal ({exc})")
        return cls(candidate=rule, pattern=pattern, status=status,
                   base_version=base_version)


def propose_rules(patterns, base_version):
    """One candidate rule per pattern, from the top-delta dimension, each
    proposed against the rule set of version ``base_version``.

    The threshold is the error group's median z-score on that dimension.
    The comparator points from the error group toward the correctly
    classified gold group (d < 0: errors sit below, so the rule fires at or
    above their median; d > 0: at or below). Strength is min(1, |d|/2);
    zero-effect patterns are suppressed.
    """
    proposals = []
    for pattern in patterns:
        top = pattern.top_deltas[0] if pattern.top_deltas else None
        if top is None or top.effect_size == 0.0:
            continue
        comparator = ">=" if top.effect_size < 0 else "<="
        strength = min(1.0, abs(top.effect_size) / 2.0)
        rule = Rule(
            id=f"refined-{pattern.gold}-vs-{pattern.predicted}-{top.dimension}",
            statement=(f"Samples that are actually {pattern.gold} but get "
                       f"mistaken for {pattern.predicted} show distinctive "
                       f"{top.dimension}; treat such cases as {pattern.gold}."),
            conditions=(Condition(top.dimension, comparator, top.error_median_z),),
            implied_label=pattern.gold,
            strength=strength,
            origin="refined",
        )
        proposals.append(RuleProposal(candidate=rule, pattern=pattern,
                                      status="pending", base_version=base_version))
    return proposals


def write_proposals(path, proposals):
    write_text(path, json.dumps({"schema": PROPOSALS_SCHEMA,
                                 "proposals": [p.to_dict() for p in proposals]}, indent=2))


def read_proposals(path):
    """Load and validate a proposals file."""
    doc = parse_json(read_text(path, ConfigError), path, ConfigError, PROPOSALS_SCHEMA)
    if not isinstance(doc.get("proposals"), list):
        raise ConfigError(f"{path}: 'proposals' must be a list")
    return [RuleProposal.from_dict(p, f"{path}: proposals[{i}]")
            for i, p in enumerate(doc["proposals"])]


def apply_refinement(rules, accepted):
    """Append accepted candidate rules and bump the version.

    Every accepted proposal must reference the current version, and its
    candidate id must be new to the rule set and to the proposals accepted
    before it; the caller persists the new rule set to a fresh file so
    history is preserved.
    """
    ids = {r.id for r in rules.rules}
    for proposal in accepted:
        rule_id = proposal.candidate.id
        if proposal.base_version != rules.version:
            raise ConfigError(f"proposal {rule_id!r} targets version "
                              f"{proposal.base_version}, current is {rules.version}")
        if rule_id in ids:
            raise ConfigError(f"rule id {rule_id!r} already present")
        ids.add(rule_id)
    return RuleSet(version=rules.version + 1,
                   rules=rules.rules + tuple(p.candidate for p in accepted),
                   confusion_notes=rules.confusion_notes)
