"""Machine-generated-text detection pipeline.

Covers tweet qualification and preprocessing, pluggable text detectors,
per-account score aggregation, score binning and dichotomization,
F1-maximizing threshold sweeps, recall at fixed thresholds, and Welch's
unequal-variance t-test.

Detectors are deliberately local and deterministic: a replay detector for
reproducing recorded scores, a keyed-digest stub for pipeline tests, and a
transparent text-statistics heuristic so the end-to-end pipeline runs on
raw text with no external service.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import count, repeat
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .readers import _iter_lines
from .table import RETWEET

if TYPE_CHECKING:
    from .corpus import Corpus

# ---------------------------------------------------------------------------
# Qualification and preprocessing

_URL_RE = re.compile(r"(?:https?://\S+|www\.\S+)", re.IGNORECASE)
_HANDLE_TOKEN_RE = re.compile(r"@\w+")


@dataclass(frozen=True)
class QualificationRules:
    """Which tweets qualify for scoring and how their text is processed."""

    exclude_retweets: bool = True
    english_only: bool = True
    strip_reply_handles: bool = True
    strip_links: bool = True


def process_text(text: str, kind: str = "original",
                 rules: QualificationRules = QualificationRules()) -> str:
    """Strip platform artifacts from one tweet's text. Idempotent."""
    if rules.strip_reply_handles and kind == "reply":
        tokens = text.split()
        keep = 0
        while keep < len(tokens) and _HANDLE_TOKEN_RE.fullmatch(tokens[keep]):
            keep += 1
        text = " ".join(tokens[keep:])
    if rules.strip_links:
        text = _URL_RE.sub(" ", text)
    return " ".join(text.split())


def _is_english(language: str | None) -> bool:
    # A missing tag is treated as not-English: qualification is conservative.
    return language is not None and (language == "en" or language.startswith("en-"))


def _kept(table, rules: QualificationRules, rows=slice(None)) -> np.ndarray:
    """Per given row of the TweetTable (all rows by default): whether the
    tweet passes the retweet and language filters."""
    kind = table.kind[rows]
    kept = np.ones(len(kind), dtype=bool)
    if rules.exclude_retweets:
        kept &= kind != RETWEET
    if rules.english_only:
        english = np.array([_is_english(language) for language in table.languages], dtype=bool)
        kept &= english[table.language[rows]]
    return kept


def qualify_tweets(corpus: Corpus, account_id: str,
                   rules: QualificationRules = QualificationRules()) -> list[str]:
    """Processed texts of the account's qualified tweets (possibly empty)."""
    if account_id not in corpus.accounts:
        raise KeyError(f"unknown account: {account_id}")
    rows = corpus.rows_of(account_id)
    rows = rows[_kept(corpus.table, rules, rows)]
    texts = map(process_text, corpus.table.values("text", rows),
                corpus.table.values("kind", rows), repeat(rules))
    return [text for text in texts if text]


# ---------------------------------------------------------------------------
# Detectors

OPENAI_STYLE_SCALE = (0.0, 100.0)
PROBABILITY_SCALE = (0.0, 1.0)


def text_digest(text: str) -> str:
    """Stable digest keying replay scores: sha256 of the exact UTF-8 text, hex."""
    import hashlib  # here, not at the top: OpenSSL is loaded only where a digest is taken
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TextDetector:
    """Interface: a named, deterministic text scorer with a declared range.

    ``score`` must return the same value for the same text every time:
    :func:`score_corpus` calls it once per distinct qualified (text, kind)
    pair within one call and reuses that score for every tweet that repeats
    the pair. A score that is not finite or falls outside ``score_scale`` is
    a ValueError in every scoring entry point.
    """

    name: str = "detector"
    score_scale: tuple[float, float] = OPENAI_STYLE_SCALE
    # Nothing in the package reads this; benchmarks/tracing.py copies it onto
    # its counting wrapper, so it stays until that read goes.
    concurrency_safe: bool = True

    def score(self, text: str) -> float:
        raise NotImplementedError


class StubDetector(TextDetector):
    """Keyed-digest pseudo-score: uniform over the scale, fixed for (key, text)."""

    def __init__(self, key: str = "", score_scale=OPENAI_STYLE_SCALE, name: str = "stub"):
        self.key = key
        self.score_scale = tuple(score_scale)
        self.name = name

    def score(self, text: str) -> float:
        import hashlib
        digest = hashlib.sha256(f"{self.key}|{text}".encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64
        low, high = self.score_scale
        return low + unit * (high - low)


class ReplayDetector(TextDetector):
    """Scores looked up from a recorded fixture, keyed by text digest.

    The fixture is JSONL with records {"text_digest": string, "score": finite
    number within score_scale}; digests are produced by :func:`text_digest`.
    A line that is not such a record is an error at path:line; unknown texts
    raise LookupError.
    """

    def __init__(self, scores: dict[str, float], score_scale=OPENAI_STYLE_SCALE,
                 name: str = "replay"):
        self.scores = dict(scores)
        self.score_scale = tuple(score_scale)
        self.name = name

    @classmethod
    def from_file(cls, path, score_scale=OPENAI_STYLE_SCALE) -> "ReplayDetector":
        low, high = score_scale
        scores = {}
        for lineno, text in _iter_lines(Path(path)):
            try:
                obj = json.loads(text)
                digest, score = obj["text_digest"], obj["score"]
                valid = (isinstance(digest, str) and not isinstance(score, bool)
                         and isinstance(score, (int, float)) and low <= score <= high)
            except (TypeError, ValueError, LookupError, RecursionError, OverflowError):
                valid = False
            if not valid:
                raise ValueError(f"{path}:{lineno}: expected a record "
                                 f'{{"text_digest": string, "score": number in [{low}, {high}]}}')
            scores[digest] = float(score)
        return cls(scores, score_scale=score_scale)

    def score(self, text: str) -> float:
        digest = text_digest(text)
        try:
            return self.scores[digest]
        except KeyError:
            raise LookupError(f"no recorded score for text digest {digest}") from None


def write_replay_scores(path, text_scores: dict[str, float]) -> Path:
    """Record {text: score} pairs as a replay fixture file."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for text in sorted(text_scores):
            fh.write(json.dumps(
                {"text_digest": text_digest(text), "score": float(text_scores[text])},
                sort_keys=True) + "\n")
    return path


# A word, captured, or a run of sentence ends, which captures "". No word holds
# one of ".!?", so each word lies in exactly one sentence.
_WORD_OR_STOP_RE = re.compile(r"([a-zA-Z']+)|[.!?]+")

_FUNCTION_WORDS = frozenset(
    "the a an and or but if then of to in on at for with as is are was were be "
    "been being am it its this that these those there here i you he she we they "
    "my your his her our their me him them so not no do does did have has had "
    "will would can could should may might".split()
)


class HeuristicDetector(TextDetector):
    """Transparent text-statistics scorer on the 0-100 scale.

    Three signals associated with formulaic generated prose, each in [0, 1]:
    low type-token ratio, heavy function-word usage, and uniform sentence
    lengths. The score is a fixed-weight blend scaled to [0, 100]. This is a
    pipeline stand-in, not a calibrated classifier.
    """

    name = "heuristic"
    score_scale = OPENAI_STYLE_SCALE

    def score(self, text: str) -> float:
        tokens, lengths, n = [], [], 0  # lengths: words of each sentence that has any
        for word in _WORD_OR_STOP_RE.findall(text):
            if word:
                tokens.append(word.lower())
                n += 1
            elif n:
                lengths.append(n)
                n = 0
        if n:
            lengths.append(n)
        if not tokens:
            return 0.0
        repetition = 1.0 - len(set(tokens)) / len(tokens)
        function_load = min(1.0, (sum(t in _FUNCTION_WORDS for t in tokens) / len(tokens)) / 0.6)
        m = len(lengths)
        if m >= 8:
            uniformity = 1.0 / (1.0 + float(np.array(lengths, dtype=float).std()))
        elif m >= 2:
            # np.std's steps in its order: below 8 values numpy adds in turn from
            # 0.0 (sum() of floats does not on 3.12+); from 8 on it adds pairwise.
            mean = sum(lengths) / m
            squares = 0.0
            for v in lengths:
                squares += (v - mean) * (v - mean)
            uniformity = 1.0 / (1.0 + math.sqrt(squares / m))
        else:
            uniformity = 0.5
        blended = 0.35 * repetition + 0.35 * function_load + 0.30 * uniformity
        return float(min(100.0, max(0.0, 100.0 * blended)))


# ---------------------------------------------------------------------------
# Score aggregation

@dataclass(frozen=True)
class AccountScore:
    account_id: str
    n_qualified: int
    mean_score: float
    per_tweet_scores: tuple[float, ...]


def _checked(score: float, detector: TextDetector) -> float:
    """The score itself, or a ValueError naming the detector and the value when
    it is not finite or lies outside the detector's declared score_scale."""
    low, high = detector.score_scale
    if not math.isfinite(score):
        raise ValueError(f"detector {detector.name!r} returned a non-finite score: {score!r}")
    if not low <= score <= high:
        raise ValueError(f"detector {detector.name!r} returned a score outside its "
                         f"score_scale [{low}, {high}]: {score!r}")
    return score


def _account_score(account_id: str, scores: list[float]) -> AccountScore | None:
    if not scores:
        return None
    return AccountScore(
        account_id=account_id,
        n_qualified=len(scores),
        mean_score=float(sum(scores) / len(scores)),
        per_tweet_scores=tuple(scores),
    )


def score_account(account_id: str, texts, detector: TextDetector) -> AccountScore | None:
    """Average the detector over the account's texts; None when nothing
    qualifies. A non-finite or out-of-scale detector output is a ValueError."""
    return _account_score(account_id, [_checked(detector.score(text), detector)
                                       for text in texts])


def concat_and_score(texts, detector: TextDetector, separator: str = "\n") -> float:
    """Join texts and score the consolidated document once; a non-finite or
    out-of-scale detector output is a ValueError."""
    texts = list(texts)
    if not texts:
        raise ValueError("need at least one text to concatenate")
    return _checked(detector.score(separator.join(texts)), detector)


def score_corpus(corpus: Corpus, detector: TextDetector,
                 rules: QualificationRules = QualificationRules(),
                 group=None):
    """Score every account (or a group's distinct members); returns (scores
    by id, n without any qualified tweet).

    Each account's score equals ``score_account(id, qualify_tweets(corpus, id,
    rules), detector)``, but each distinct raw (text, kind) pair is processed
    and scored once per call, so the detector must be deterministic. Each
    account's tweets are read from the corpus index, so its scores add up in
    (created_at, tweet_id) order.
    """
    account_ids = sorted(set(group) if group is not None else corpus.accounts)
    table = corpus.table
    kept = _kept(table, rules)
    # One code per distinct (text, kind) pair; the memo maps it to () when
    # processing leaves nothing, else to (score,).
    n_kinds = len(table.kinds)
    pairs = table.text.astype(np.int64) * n_kinds + table.kind
    memo: dict[int, tuple[float, ...]] = {}
    scores: dict[str, AccountScore] = {}
    unscored = 0
    for account_id in account_ids:
        if account_id not in corpus.accounts:
            continue
        rows = corpus.rows_of(account_id)
        account_scores = []
        for pair in pairs[rows[kept[rows]]].tolist():
            cached = memo.get(pair)
            if cached is None:
                text, kind = table.texts[pair // n_kinds], table.kinds[pair % n_kinds]
                processed = process_text(text, kind, rules)
                cached = memo[pair] = (
                    (_checked(detector.score(processed), detector),) if processed else ())
            account_scores.extend(cached)
        result = _account_score(account_id, account_scores)
        if result is None:
            unscored += 1
        else:
            scores[account_id] = result
    return scores, unscored


def filter_min_qualified(account_scores, min_n: int) -> list[AccountScore]:
    """Keep accounts backed by at least ``min_n`` qualified tweets."""
    if min_n < 1:
        raise ValueError("min_n must be >= 1")
    return [s for s in account_scores if s.n_qualified >= min_n]


# ---------------------------------------------------------------------------
# Binning and dichotomization

class ScoreBand(Enum):
    VERY_UNLIKELY = "very_unlikely"
    UNLIKELY = "unlikely"
    UNCLEAR = "unclear"
    POSSIBLY = "possibly"
    LIKELY = "likely"


# Right-closed bin edges on the 0-100 detector scale; 0 itself falls into
# the lowest band to keep the partition total.
_BAND_EDGES = (
    (10.0, ScoreBand.VERY_UNLIKELY),
    (45.0, ScoreBand.UNLIKELY),
    (90.0, ScoreBand.UNCLEAR),
    (98.0, ScoreBand.POSSIBLY),
    (100.0, ScoreBand.LIKELY),
)


def bin_openai(score: float) -> ScoreBand:
    """Band for a 0-100 detector score: (0,10] (10,45] (45,90] (90,98] (98,100]."""
    if not 0.0 <= score <= 100.0:
        raise ValueError(f"score out of range [0, 100]: {score}")
    for upper, band in _BAND_EDGES:
        if score <= upper:
            return band
    raise AssertionError("unreachable")


def classify_probability(prob: float, threshold: float = 0.65) -> str:
    """Dichotomize a generated-probability; the threshold itself counts as generated."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"probability out of range [0, 1]: {prob}")
    return "generated" if prob >= threshold else "not_generated"


# ---------------------------------------------------------------------------
# Threshold evaluation

BOT_LABEL = "bot"
HUMAN_LABEL = "human"


@dataclass(frozen=True)
class ThresholdResult:
    threshold: float
    f1: float
    precision: float
    recall: float


@dataclass(frozen=True, eq=False)
class SweepOutcome:
    """The F1-best candidate (Python floats), and the curve as one read-only
    float64 array per field."""

    best: ThresholdResult
    threshold: np.ndarray
    f1: np.ndarray
    precision: np.ndarray
    recall: np.ndarray

    @cached_property
    def curve(self) -> tuple[ThresholdResult, ...]:
        """One ThresholdResult per candidate, built on first access."""
        return tuple(map(ThresholdResult, self.threshold.tolist(), self.f1.tolist(),
                         self.precision.tolist(), self.recall.tolist()))


def split_labeled(scores) -> tuple[list[float], list[float]]:
    """Split (value, label) pairs into bot and human values; a non-finite
    value or any other label is a ValueError."""
    bots, humans = [], []
    for value, label in scores:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"non-finite score: {value!r}")
        if label == BOT_LABEL:
            bots.append(value)
        elif label == HUMAN_LABEL:
            humans.append(value)
        else:
            raise ValueError(f"label must be '{BOT_LABEL}' or '{HUMAN_LABEL}', got {label!r}")
    return bots, humans


def _sentinel(extreme: float, step: float) -> float:
    """``extreme + step``, or the next float in the step's direction where the
    step is lost to rounding (beyond 2**53); the extreme itself at the largest
    finite magnitude, which has no finite float beyond it."""
    sentinel = extreme + step
    if sentinel == extreme:
        sentinel = math.nextafter(extreme, math.copysign(math.inf, step))
    return sentinel if math.isfinite(sentinel) else extreme


def _midpoints(values: np.ndarray) -> np.ndarray:
    """``(a + b) / 2`` for each consecutive pair, or ``a / 2 + b / 2`` where
    the sum overflows."""
    lower, upper = values[:-1], values[1:]
    with np.errstate(over="ignore"):
        midpoints = (lower + upper) / 2.0
    overflowed = ~np.isfinite(midpoints)
    midpoints[overflowed] = lower[overflowed] / 2.0 + upper[overflowed] / 2.0
    return midpoints


def sweep_threshold(scores=(), *, split=None) -> SweepOutcome:
    """Find the F1-maximizing bot/human threshold (predict bot iff value >= t).

    ``split``, the finite bot and human values as :func:`split_labeled`
    returns them, stands in for ``scores`` where the caller has split them.
    Candidates are the midpoints between consecutive distinct score values
    plus one sentinel below and above everything, which covers every
    achievable confusion matrix. A midpoint is ``(a + b) / 2``, or
    ``a / 2 + b / 2`` where the sum overflows; a sentinel is one unit beyond
    the extreme value, or the next float beyond it where that unit is lost to
    rounding. At ±float max no finite float lies beyond, so the extreme
    itself is the sentinel: that row is not strictly beyond it, and the
    curve then lacks the matrix that predicts nothing (or everything) as bot.
    Ties go to the smallest threshold. Both label sets are sorted
    once and counted at every candidate by binary search, so the sweep is
    O(N log N).
    """
    bots, humans = split_labeled(scores) if split is None else split
    if not len(bots) or not len(humans):
        raise ValueError("need both bot- and human-labeled scores")
    bot_values = np.sort(bots)
    human_values = np.sort(humans)
    values = np.sort(np.concatenate([bot_values, human_values]))
    distinct = values[np.concatenate([[True], values[1:] != values[:-1]])]
    candidates = np.concatenate([[_sentinel(float(distinct[0]), -1.0)], _midpoints(distinct),
                                 [_sentinel(float(distinct[-1]), 1.0)]])

    # Values at or above each candidate; recall's denominator is len(bots) >= 1.
    tp = len(bot_values) - np.searchsorted(bot_values, candidates, side="left")
    fp = len(human_values) - np.searchsorted(human_values, candidates, side="left")
    precision = np.divide(tp, tp + fp, out=np.zeros(len(candidates)), where=tp + fp > 0)
    recall = tp / len(bot_values)
    f1 = np.divide(2 * precision * recall, precision + recall,
                   out=np.zeros(len(candidates)), where=precision + recall > 0)

    i = int(np.argmax(f1))
    columns = (candidates, f1, precision, recall)
    for column in columns:
        column.flags.writeable = False
    return SweepOutcome(ThresholdResult(*(float(column[i]) for column in columns)), *columns)


def recall_at(scores, threshold: float) -> float:
    """Fraction of bot-labeled scores at or above the threshold."""
    bots, _ = split_labeled(scores)
    if not bots:
        raise ValueError("need at least one bot-labeled score")
    return sum(1 for v in bots if v >= threshold) / len(bots)


# ---------------------------------------------------------------------------
# Statistical testing

@dataclass(frozen=True)
class WelchResult:
    t: float
    df: float
    p: float


def _sample_variance(x: np.ndarray) -> float:
    """Sample variance (ddof=1); exactly 0 for a constant sample, whose mean
    numpy may round off the common value."""
    return 0.0 if (x == x[0]).all() else float(x.var(ddof=1))


def _floats(sample) -> np.ndarray:
    """A sample as a float array: a buffer (an array.array, a numpy array) is
    read in place; any other iterable is listed first."""
    try:
        return np.asarray(memoryview(sample), dtype=float)
    except (TypeError, ValueError):  # no buffer, or one of Python objects
        return np.asarray(list(sample), dtype=float)


def welch_t(sample_a, sample_b) -> WelchResult:
    """Welch's unequal-variance t-test, two-sided.

    The statistic carries the sign of mean(a) - mean(b); degrees of freedom
    follow Welch-Satterthwaite. The p-value is the two-sided Student-t tail
    I_x(df/2, 1/2) at x = df/(df + t**2), which ``_t_two_sided_p`` sums as a
    continued fraction in pure Python. Where p >= 1e-300 it was within 2e-13
    relative of 40-digit mpmath values and within 5.3e-13 of scipy's
    2*stdtr(df, -|t|), which errs by up to 5e-12 at df = 1 and |t| near 1e-5
    and underflows to 0 at df = 1 and t = 1e302, where this p does not.
    Two constant samples raise ValueError, as do samples whose statistics
    overflow to a non-finite value.
    """
    # Sorted, so the floating-point sums do not depend on the input order.
    a, b = np.sort(_floats(sample_a)), np.sort(_floats(sample_b))
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each sample needs at least 2 observations")
    # t and df do not change when both samples are scaled alike. Where the
    # wider sample spreads less than 1, both are scaled up by the power of two
    # that brings that spread to [0.5, 1), as far as every sum stays finite.
    # That is exact, and it keeps tiny means and variances out of the
    # subnormal range, where they lose precision. Wider spreads are left
    # alone, so statistics that overflow still raise.
    with np.errstate(over="ignore", invalid="ignore"):
        spread = float(max(np.ptp(a), np.ptp(b)))
        largest = max(float(np.abs(a).max()), float(np.abs(b).max()))
    headroom = 1023 - math.frexp(largest)[1] - max(len(a), len(b)).bit_length()
    exponent = min(-math.frexp(spread)[1], headroom) if 0.0 < spread < 1.0 else 0
    if exponent > 0:
        a, b = np.ldexp(a, exponent), np.ldexp(b, exponent)
    # Huge finite samples overflow here; the finiteness check below rejects them.
    with np.errstate(over="ignore", invalid="ignore"):
        mean_a, var_a = float(a.mean()), _sample_variance(a)
        mean_b, var_b = float(b.mean()), _sample_variance(b)
    sa = var_a / len(a)
    sb = var_b / len(b)
    if sa + sb == 0.0:
        raise ValueError("degenerate samples: combined variance is zero")
    t = (mean_a - mean_b) / math.sqrt(sa + sb)
    # Weights instead of raw squared errors so subnormal variances cannot
    # underflow the Welch-Satterthwaite denominator.
    wa = sa / (sa + sb)
    wb = sb / (sa + sb)
    df = 1.0 / (wa**2 / (len(a) - 1) + wb**2 / (len(b) - 1))
    if not (math.isfinite(t) and math.isfinite(df)):
        raise ValueError(f"Welch statistics are not finite (t={t}, df={df})")
    return WelchResult(t=float(t), df=float(df), p=_t_two_sided_p(t, df))


def _t_two_sided_p(t: float, df: float) -> float:
    """Two-sided Student-t p of a finite t on finite df > 0: I_x(df/2, 1/2),
    the regularized incomplete beta at x = df/(df + t**2)."""
    q = abs(t) / math.sqrt(df)
    if q == 0.0:
        return 1.0
    # x = 1/(1 + q**2) and y = 1 - x from their logarithms, so that neither
    # q**2 nor 1/q**2 overflows and y keeps its precision where x is near 1.
    v = math.log1p(min(q, 1.0 / q) ** 2)
    log_q2 = 2.0 * math.log(q)
    log_x, log_y = -v - max(log_q2, 0.0), -v + min(log_q2, 0.0)
    a = 0.5 * df
    # log(Gamma(a + 1/2) / Gamma(a)); an lgamma difference loses about
    # lgamma(a) * eps, so large a takes the asymptotic series.
    if a < 20.0:
        log_ratio = math.lgamma(a + 0.5) - math.lgamma(a)
    else:
        r2 = 1.0 / (a * a)
        log_ratio = 0.5 * math.log(a) - (1 / 8 - r2 * (1 / 192 - r2 * (
            1 / 640 - r2 * 17 / 14336))) / a
    # x**a * y**(1/2) / B(a, 1/2)
    front = math.exp(a * log_x + 0.5 * log_y + log_ratio - 0.5 * math.log(math.pi))
    # Below the mean of x, I_x(a, 1/2) directly; above it, 1 - I_y(1/2, a).
    # The choice reads y, which keeps its precision where x rounds to 1.
    x, y = math.exp(log_x), math.exp(log_y)
    direct = (a + 0.5) * y > 0.5
    a, b, x, y = (a, 0.5, x, y) if direct else (0.5, a, y, x)
    # I_x(a, b) = front/a * F with F = 1/(1 + d1/(1 + d2/(1 + ...))), where
    # d(2m+1) = -x(a+m)(a+b+m)/((a+2m)(a+2m+1)) and d(2m) = x*m(b-m)/((a+2m-1)(a+2m)).
    # Its even part, F = 1/(beta0 + alpha1/(beta1 + alpha2/(...))) with
    # beta_m = 1 + d(2m) + d(2m+1) and alpha_m = -d(2m-1)d(2m), is summed by the
    # modified Lentz method as f = a/F, each beta scaled by a and alpha by
    # a**2, so no term underflows at large a. For x > 1/2, where b <= 1,
    # 1 + d(2m+1) is written in y as a sum of positive terms; in x it would
    # cancel by up to a*eps.
    tiny = 1e-300
    odd = f = c = d = 0.0
    for m in count():
        previous, odd = odd, (a + m) / (a + 2 * m) * (a + b + m) / (a + 2 * m + 1)
        if x <= 0.5:
            beta = a * (1.0 - odd * x)
        else:
            beta = ((2 * m + 1 - b + m * (3 * m + 2 - b) / a) * (a / (a + 2 * m + 1))
                    * (a / (a + 2 * m)) + a * odd * y)
        if not m:
            f = c = beta
        else:
            even = (b - m) * x * m * (a / (a + 2 * m - 1)) * (a / (a + 2 * m))
            alpha = previous * x * even
            beta += even / a
            d = 1.0 / ((beta + alpha * d) or tiny)
            c = (beta + alpha / c) or tiny
            f *= c * d
            if abs(c * d - 1.0) < 1e-15:
                break
    p = front / f
    return p if direct else 1.0 - p
