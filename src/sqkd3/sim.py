"""Monte Carlo execution of the protocol's quantum communication stage.

Each round the sender prepares one of six states (canonical basis or the
variant's alternative basis, uniformly), the receiver either measures in
the canonical basis and resends or reflects (uniformly), and the sender
measures the returning qutrit in her preparation basis.  The attack's
isometries act on both channel passes.

Raw-key and noise-estimation outcomes are sampled from the exact
amplitude-level conditional distributions implied by the attack; the
eavesdropper's ancilla is traced implicitly since only sender/receiver
statistics are collected.  Only counts are kept.

Random stream.  A run of n rounds reads the 64-bit words of
``np.random.PCG64(seed)``, each split into two 32-bit halves, low half
first:

* halves [0, n) give each round's alternative-basis flag and halves
  [n, 2n) its reflect flag, the top bit of each half;
* from half 2n on, every nonzero half x gives the next round's sent value
  (3x) >> 32, and a zero half is skipped;
* the outcome draws start at word ceil(h / 2), h the number of halves read.
  The 12 (sent, basis, operation) categories follow in the order of their
  key sent*4 + alt*2 + reflect, one word per round.  The two kinds of round
  the protocol discards only advance the stream.  A kept round's word w
  gives the uniform u = (w >> 11) / 2**53, and its outcome is the number of
  entries of the table row's cumulative distribution that are <= u.

These are the draws of ``Generator.integers`` (Lemire's method, 32 bits at
a time) and ``Generator.choice``, so a seed gives the counts those calls
gave, byte for byte; the sampler itself depends only on PCG64's raw words.
The words are read in chunks of 2**16, so a run holds O(1) memory in n.
No round is given a value of its own: a chunk packs its rounds' flag and
sent-value predicates into 64-bit masks and counts the categories with
popcounts, and a category's outcomes are counted by comparing its words
with the bounds of the cumulative distribution.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .attack import AttackModel, _integer_at_least, _one_attack
from .stats import _ERROR_CELLS, StatTable, alt_basis_table, p_table_from_attack

_ERR_SENT = _ERROR_CELLS[0]


@dataclass(eq=False)
class SimulationResult:
    """Aggregated statistics of one seeded run.

    counts_p counts the raw-key rounds (canonical basis, measured) by
    (sent, bob, final) and empirical_p normalizes it per sent value.
    counts_basis_err counts the noise-estimation rounds (alternative basis,
    reflected) in BASIS_ERROR_ORDER, empirical_basis_err normalizes them by
    noise_rounds_per_sent of their sent value.  n_sifted, sifted_fraction
    and raw_key_error_rate (bob != final) are derived from counts_p; an
    empty frequency row is all zeros.
    """

    n_rounds: int
    counts_p: np.ndarray          # (3,3,3) counts over (sent, bob, final)
    empirical_p: np.ndarray       # (3,3,3)
    counts_basis_err: np.ndarray  # (6,)
    empirical_basis_err: np.ndarray  # (6,)
    noise_rounds_per_sent: np.ndarray  # (3,)
    seed: int = 0

    @property
    def n_sifted(self) -> int:
        return int(self.counts_p.sum())

    @property
    def sifted_fraction(self) -> float:
        return self.n_sifted / self.n_rounds

    @property
    def raw_key_error_rate(self) -> float:
        if self.n_sifted == 0:
            return 0.0
        agree = int(np.trace(self.counts_p, axis1=1, axis2=2).sum())
        return (self.n_sifted - agree) / self.n_sifted

    def to_json(self) -> str:
        return json.dumps({
            "n_rounds": self.n_rounds,
            "seed": self.seed,
            "counts_p": self.counts_p.astype(int).ravel().tolist(),
            "empirical_p": self.empirical_p.ravel().tolist(),
            "counts_basis_err": self.counts_basis_err.astype(int).tolist(),
            "empirical_basis_err": self.empirical_basis_err.tolist(),
            "noise_rounds_per_sent": self.noise_rounds_per_sent.astype(int).tolist(),
            "sifted_fraction": self.sifted_fraction,
            "n_sifted": self.n_sifted,
            "raw_key_error_rate": self.raw_key_error_rate,
        })


#: Rounds (or uniforms) per chunk: a run holds O(_CHUNK) memory for any n.
_CHUNK = 1 << 16


class _Words:
    """One PCG64 stream, read forward or at any of its 32-bit halves.

    Word w holds halves 2w (its low 32 bits) and 2w + 1 (its high 32 bits).
    `word` is the number of the word the generator outputs next; moving it
    costs one `advance`, whatever the distance.
    """

    def __init__(self, bitgen: np.random.PCG64):
        self.bitgen = bitgen
        self.word = 0

    def seek(self, word: int) -> None:
        if word != self.word:
            self.bitgen.advance((word - self.word) % 2**128)
            self.word = word

    def words(self, count: int) -> np.ndarray:
        self.word += count
        return self.bitgen.random_raw(count)

    def halves(self, start: int, stop: int) -> np.ndarray:
        """Halves [start, stop) as uint32, whatever the host's byte order."""
        self.seek(start // 2)
        words = self.words((stop + 1) // 2 - start // 2)
        return words.astype("<u8", copy=False).view("<u4")[start % 2:][:stop - start]


#: Rows of the bit buffer that _category_sizes fills for each chunk: the
#: round sets s = rows [0, 3) and f = rows [2, 6) whose intersections it counts.
_SENT_2, _SENT_1, _VALID, _ALT, _REFLECT, _BOTH = range(6)

# Category sizes from the 12 popcounts c[s, f] of the round sets
# s in {sent = 2, sent >= 1, valid} and f in {valid, alt, reflect,
# alt & reflect}, by inclusion-exclusion: sent value 0 is valid - (sent >= 1)
# and 1 is (sent >= 1) - (sent = 2), and flags (alt, reflect) = (0, 0) are
# valid - alt - reflect + both, (0, 1) reflect - both, (1, 0) alt - both and
# (1, 1) both.
_SIZES_FROM_COUNTS = np.kron([[0, -1, 1], [-1, 1, 0], [1, 0, 0]],
                             [[1, -1, -1, 1], [0, 0, 1, -1], [0, 1, 0, -1],
                              [0, 0, 0, 1]])


def _category_sizes(stream: _Words, n: int) -> np.ndarray:
    """Rounds per category over n rounds, keyed sent*4 + alt*2 + reflect.

    Reads the flag halves of the stream the module docstring defines and
    leaves `stream` at word ceil(h / 2), h the number of halves read, where
    the outcome draws start.  Each chunk writes the predicates sent = 2 and
    sent >= 1, a valid-round row, its rounds' alt and reflect top bits and
    their conjunction into one bit buffer, packs it into 64-bit words and
    adds the popcounts of the 12 intersections that _SIZES_FROM_COUNTS turns
    into the sizes.
    """
    width = min(_CHUNK, -(-n // 64) * 64)
    bits = np.zeros((6, width), dtype=bool)
    bits[_VALID] = True
    counts = np.zeros((3, 4), dtype=np.int64)
    pos = 2 * n  # next half of the sent stream
    for start in range(0, n, _CHUNK):
        m = min(_CHUNK, n - start)
        bits[:, m:] = False  # padding of a partial chunk, in every row
        np.greater(stream.halves(start, start + m), 0x7FFFFFFF, out=bits[_ALT, :m])
        np.greater(stream.halves(n + start, n + start + m), 0x7FFFFFFF,
                   out=bits[_REFLECT, :m])
        np.logical_and(bits[_ALT], bits[_REFLECT], out=bits[_BOTH])
        x = stream.halves(pos, pos + m)
        pos += m
        # Lemire's method for the range 3 rejects exactly the half 0
        while not x.all():
            x = x[x != 0]
            missing = m - x.size
            x = np.concatenate([x, stream.halves(pos, pos + missing)])
            pos += missing
        # sent = (3x) >> 32 is >= 1 from x = 2**32 / 3 on and 2 from 2**33 / 3
        np.greater(x, 0xAAAAAAAA, out=bits[_SENT_2, :m])
        np.greater(x, 0x55555555, out=bits[_SENT_1, :m])
        words = np.packbits(bits, axis=-1).view(np.uint64)
        counts += np.bitwise_count(words[:_VALID + 1, None] & words[_VALID:]).sum(
            axis=-1, dtype=np.int64)
    stream.seek((pos + 1) // 2)
    return _SIZES_FROM_COUNTS @ counts.ravel()


def _outcome_counts(stream: _Words, size: int, probs: np.ndarray) -> np.ndarray:
    """Outcome counts of `size` rounds drawn from probs / probs.sum() with
    the next `size` words, as Generator.choice draws them."""
    p = probs / probs.sum()
    if not (p >= 0).all():
        raise ValueError("Probabilities contain NaN" if np.isnan(p).any()
                         else "Probabilities are not non-negative")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    # choice takes the uniform k / 2**53, k = w >> 11, of word w to outcome
    # j when it lies in [cdf[j - 1], cdf[j]); k / 2**53 < cdf[j] exactly
    # when k < b = ceil(cdf[j] * 2**53), so when w < b * 2**11, and cdf[-1]
    # is 1.  A cdf that reaches 1 early gives b = 2**53, which every word is
    # below.
    limits = [math.ceil(c * 2**53) << 11 for c in cdf[:-1].tolist()]
    below = np.zeros(p.size + 1, dtype=np.int64)  # below[j + 1]: u < cdf[j]
    below[-1] = size
    for start in range(0, size, _CHUNK):
        w = stream.words(min(_CHUNK, size - start))
        below[1:-1] += [np.count_nonzero(w < b) if b < 2**64 else w.size
                        for b in limits]
    return np.diff(below)


def run_protocol(n: int, attack: AttackModel, variant: str = "phi1",
                 seed: int = 0) -> SimulationResult:
    """Simulate n rounds and aggregate the protocol statistics.

    The rounds come from the words of np.random.PCG64(seed), as the module
    docstring defines: the alternative-basis flags from halves [0, n), the
    reflect flags from halves [n, 2n), the sent values from the nonzero
    halves after, then one word per round of each category in key order.
    Time is linear in n and memory does not grow with it.  n is any
    integer >= 1 and seed any integer >= 0, numpy integers included, but
    not bools; the result holds them as ints.  A stack of attacks raises.
    """
    _one_attack(attack)
    n = _integer_at_least("n", n, 1)
    seed = _integer_at_least("seed", seed, 0)
    counts_p = np.zeros((3, 9), dtype=np.int64)
    alt_reflect = np.zeros((3, 3), dtype=np.int64)
    # kind = alt*2 + reflect: raw key (canonical basis, measured) and noise
    # estimation (alternative basis, reflected) with their outcome tables
    reported = {0: (p_table_from_attack(attack).reshape(3, 9), counts_p),
                3: (alt_basis_table(attack, variant), alt_reflect)}

    stream = _Words(np.random.PCG64(seed))
    sizes = _category_sizes(stream, n)
    for c in np.flatnonzero(sizes):
        i, kind = divmod(int(c), 4)
        size = int(sizes[c])
        if kind not in reported:
            # a discarded round would take one uniform, so one word
            stream.seek(stream.word + size)
            continue
        table, counts = reported[kind]
        counts[i] = _outcome_counts(stream, size, table[i])

    counts_p = counts_p.reshape(3, 3, 3)
    per_sent = counts_p.sum(axis=(1, 2))[:, None, None]
    noise_rounds = alt_reflect.sum(axis=1)
    counts_basis_err = alt_reflect[_ERROR_CELLS]
    return SimulationResult(
        n_rounds=n, counts_p=counts_p,
        empirical_p=np.divide(counts_p, per_sent, out=np.zeros((3, 3, 3)),
                              where=per_sent > 0),
        counts_basis_err=counts_basis_err,
        empirical_basis_err=np.divide(
            counts_basis_err, noise_rounds[_ERR_SENT], out=np.zeros(6),
            where=noise_rounds[_ERR_SENT] > 0),
        noise_rounds_per_sent=noise_rounds, seed=seed)


def max_deviation_sigma(result: SimulationResult, table: StatTable) -> float:
    """Worst deviation of the 27 raw-key and 6 basis-error frequencies from
    the analytic StatTable, in binomial standard errors.

    A cell with no rounds counts 0; a cell whose analytic standard error
    is 0 counts 0 if it matches exactly and inf otherwise; a NaN cell (an
    analytic probability that rounding put outside [0, 1]) is skipped.
    """
    n = np.concatenate([np.repeat(result.counts_p.sum(axis=(1, 2)), 9),
                        result.noise_rounds_per_sent[_ERR_SENT]])
    p = np.concatenate([table.p.ravel(), table.basis_err])
    diff = np.abs(np.concatenate([result.empirical_p.ravel(),
                                  result.empirical_basis_err]) - p)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = diff / np.sqrt(p * (1 - p) / n)
    # a cell with no rounds gives 0 or NaN, an exact zero-variance match
    # 0/0 = NaN; fmax skips NaN
    return float(np.fmax.reduce(dev, initial=0.0))
