"""Finite-support probability primitives shared across the simulator.

A negative softmax, the digamma function, sampling by given uniforms and
the KL divergence of a column summed in order, all on plain probability
vectors, a row per trial. Categorical is the one check a vector gets where
it enters the program; the per-round functions here check nothing, since
the config and the constructors bound what they are given.
All logarithms are natural, so every information quantity is in nats.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Constructor renormalizes drift below this and rejects anything larger.
RENORM_TOL = 1e-6
# Learned cells are clamped up to this before a KL divergence or a log is
# taken of them, so divergences against near-empty cells stay finite.
KL_FLOOR = 1e-12
# Offsets of the digamma recurrence, see digamma().
_DIGAMMA_SHIFTS = np.arange(10.0)


class Categorical:
    """Validator of a probability vector entering the program.

    Entries must be finite and non-negative and sum to one within
    RENORM_TOL; small drift is renormalized away. `probs` is the checked
    vector, read-only.
    """

    __slots__ = ("probs",)

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("need a non-empty 1-d probability vector")
        if not np.isfinite(p).all():
            raise ValueError("probability entries must be finite")
        if (p < 0.0).any():
            raise ValueError("probability entries must be non-negative")
        total = float(p.sum())
        if abs(total - 1.0) >= RENORM_TOL:
            raise ValueError(f"probabilities sum to {total:.12g}, not 1")
        p = p / total
        p.setflags(write=False)
        self.probs = p


def softmax_neg(v: np.ndarray) -> np.ndarray:
    """Normalized exp(-v) along the last axis of an array of finite values,
    each row non-empty: the smallest value gets the largest probability.

    The maximum of -v is subtracted before exponentiation, so arbitrarily
    large inputs do not overflow.
    """
    w = np.exp(np.minimum.reduce(v, axis=-1, keepdims=True) - v)
    np.divide(w, np.add.reduce(w, axis=-1, keepdims=True), out=w)
    # Normalized a second time, as a validating constructor would: the
    # artifacts depend on these exact bits.
    return np.divide(w, np.add.reduce(w, axis=-1, keepdims=True), out=w)


def sample(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Draw one index per row of p, by that row's uniform in u: the first
    index whose cumulative probability exceeds the uniform, which is the
    count of cumulative probabilities at or below it, or the last index if
    rounding leaves the total below the uniform."""
    return np.add.reduce(p.cumsum(axis=1)[:, :-1] <= u[:, None], axis=1)


def kl_terms(p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """p * (ln p - log_q) cell by cell, 0 where p is 0, with log_q shaped to
    broadcast against p. Summed over an axis of distributions, they give
    each its KL divergence to q."""
    terms = np.log(p, out=np.zeros(p.shape), where=p > 0.0)
    terms -= log_q
    terms *= p
    return terms


def column_kl(p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """KL(p || q) of each distribution along the last axis of p, its cells
    summed in order."""
    return kl_terms(p, log_q).cumsum(axis=-1)[..., -1]


def digamma(x) -> np.ndarray:
    """Digamma function, elementwise, for strictly positive arguments; the
    program passes Dirichlet counts plus 1.

    The recurrence psi(x) = psi(x + 10) - sum_{k<10} 1 / (x + k) moves every
    argument to at least 10, where the asymptotic series below is accurate
    to about 1e-14. The ten terms are summed in the order np.add.reduce
    sums a row of ten, eight paired partial sums and then the last two, as
    whole arrays, so a batch of arguments gives each its own bits.
    """
    x = np.asarray(x, dtype=float)
    t = np.add.outer(_DIGAMMA_SHIFTS, x)
    np.divide(1.0, t, out=t)
    pairs = t[0:8:2] + t[1:8:2]
    quads = pairs[0::2] + pairs[1::2]
    shift = quads[0] + quads[1] + t[8] + t[9]
    del t, pairs, quads
    y = x + 10.0
    inv2 = 1.0 / (y * y)
    series = inv2 * (1 / 12 - inv2 * (1 / 120 - inv2 * (1 / 252 - inv2 * (1 / 240 - inv2 / 132))))
    return np.log(y) - 0.5 / y - series - shift


def derive_seed(root_seed: int, *labels) -> int:
    """Stable 64-bit sub-seed from a root seed and a chain of labels.

    SHA-256 over the decimal root and the stringified labels, separated by
    an unprintable byte so adjacent labels cannot collide by concatenation.
    """
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode())
    for label in labels:
        h.update(b"\x1f")
        h.update(str(label).encode())
    return int.from_bytes(h.digest()[:8], "little")


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator for a 64-bit seed."""
    return np.random.default_rng(int(seed))
