"""Host speed, from a fixed calibration loop timed next to every operation.

On a shared host the speed of one core drifts by up to a factor of two
over tens of seconds, and it drifts in CPU time as well as in wall time,
so neither clock alone makes runs at different times comparable. The
benchmark therefore times ``calibration_loop`` right before and right
after each operation, and scales the operation's wall seconds to a
reference host: one on which the loop takes ``REF_CAL_S`` seconds.

The loop is fixed benchmark code that never calls the program, so a
change to the program moves the scaled times exactly as it moves the
wall times on a steady host. It imitates the mix of the simulator's
per-round path: many small numpy products, reductions and logs, checked
probability vectors, small objects and dict traffic.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds the loop takes on the reference host; scaled times are in these.
REF_CAL_S = 0.1
# Loop rounds; about REF_CAL_S seconds on a 2-CPU Xeon guest at its usual speed.
CAL_ROUNDS = 1400
N, K = 16, 4


class _Dist:
    __slots__ = ("probs",)

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        if not np.all(np.isfinite(p)) or np.any(p < 0.0):
            raise ValueError("not a probability vector")
        p = p / float(p.sum())
        p.setflags(write=False)
        self.probs = p


def _loop(rounds: int) -> float:
    rng = np.random.default_rng(20240611)
    a = rng.random((N, N)) + 0.05
    a /= a.sum(axis=0)
    b = rng.random((N, N, K)) + 0.05
    b /= b.sum(axis=0)
    log_pref = np.log(np.full(N, 1.0 / N))
    conc = np.ones((N, N))
    belief = _Dist(np.full(N, 1.0 / N))
    rows: dict[int, tuple] = {}
    acc = 0.0
    for i in range(rounds):
        q_pred = np.tensordot(belief.probs, b, axes=(0, 1))
        q_obs = a @ q_pred
        logs = np.where(q_obs > 0.0, np.log(np.where(q_obs > 0.0, q_obs, 1.0)), 0.0)
        g = (q_obs * (logs - log_pref[:, None])).sum(axis=0)
        e = np.exp(-(g - g.min()))
        action = int(np.argmax(e / e.sum()))
        post = _Dist(a[i % N] * q_pred[:, action] + 1e-12)
        conc += np.outer(post.probs, belief.probs)
        belief = post
        acc += float(-(post.probs * np.log(post.probs)).sum())
        rows[i % 64] = (i, action, f"{acc:.6f}")
    return acc + len(rows)


def calibration_loop(rounds: int = CAL_ROUNDS) -> float:
    """Wall seconds of one pass of the calibration loop."""
    t0 = time.perf_counter()
    _loop(rounds)
    return time.perf_counter() - t0


class HostClock:
    """Scales wall seconds to the reference host. Call ``tick()`` between
    operations; an operation is scaled by the mean of the calibration
    passes on either side of it."""

    def __init__(self):
        _loop(CAL_ROUNDS // 10)  # first-call costs stay out of the samples
        self.samples = [calibration_loop()]

    def tick(self) -> float:
        self.samples.append(calibration_loop())
        return self.samples[-1]

    def factor(self) -> float:
        """REF_CAL_S over the host's current loop time, from the last two
        passes: wall seconds times this factor are reference seconds."""
        return REF_CAL_S / (0.5 * (self.samples[-2] + self.samples[-1]))
