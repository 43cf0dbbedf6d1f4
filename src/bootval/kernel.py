"""Frequency-weight replicate kernel: ML fits graded by the C-statistic.

A bootstrap resample is the original rows with integer counts. Collapsing
identical predictor rows into patterns turns the resample's Bernoulli
likelihood into a binomial likelihood over the distinct rows, and its
C-statistic into count-weighted placement sums over one ordering of the
distinct risk scores. Both are computed here for a block of replicates at
once: the Newton-Raphson iterations of a block run in lockstep, and each
replicate keeps the step-halving and stopping rule of models._newton_irls.

optimism._counts_block feeds the kernel one block at a time. It draws
the block's resamples with resampling.draw_block and redraws, one by one,
only those without both outcome classes. It counts the out-of-bag rows and
grades them only when a 0.632-family correction will read them (always at
the top level; inside a two-stage outer replicate only for 0.632 or
0.632+). An outer replicate's patterns are restricted from the dataset's
(Patterns.restrict) instead of being built again.

None of the following moves a bit, and each saves work at scenario 21's
shape (every row distinct, thousands of patterns per resample):
- Patterns.restrict gathers the rows of the dataset's outer-product table
  instead of building the table again: each row holds products of that
  pattern's own values, so the gathered rows are the rebuilt bytes.
- fit_ml_counts carries the active replicates only and compacts them when
  one finishes, so each matrix product sees the rows, in the order, that a
  gather from the whole block would give it; a block whose replicates all
  finish together is never copied. Its log-likelihood needs no mask
  (see _log_likelihood).
- c_statistics sums integers: cumulative nonevent counts in score order,
  read through two shifted views and gathered only at positions inside a
  tie group, so no sum depends on its order (see its docstring).

The coefficients agree with a fit on the materialised resample to rounding
(about 1e-14), and a C-statistic is an exact ratio of half-integer
sums, so replicate values equal those of a per-resample fit unless two
distinct risk scores lie within rounding of each other, or the resample is
separated. There the slopes grow until the stopping rule or the iteration
cap ends each fit, and the two fits can stop where their scores order the
rows differently: on a 12-row cohort with 2 events and two normal
predictors, 6 of 120 replicates differed in theta_orig and theta_out.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .data import Dataset
from .models import LP_CLIP, logistic


class Patterns:
    """A dataset's distinct predictor rows, with the design matrix (leading
    column of ones) and its upper-triangular row outer products, from which
    weighted Hessians are one matrix product."""

    def __init__(self, d: Dataset):
        uniq, index = np.unique(d.predictors, axis=0, return_inverse=True)
        self.index = index.ravel()
        self.outcomes = d.outcomes
        self.z = np.hstack([np.ones((uniq.shape[0], 1)), uniq])

    @property
    def k(self) -> int:
        return self.z.shape[0]

    def restrict(self, rows: np.ndarray) -> "Patterns":
        """The patterns of the resample d.subset(rows), equal array for
        array to Patterns(d.subset(rows)) without comparing rows again: a
        subset's distinct rows are a sorted subset of the dataset's, and
        their outer products the same rows of the dataset's table. A pool
        worker builds that table once per task it unpickles (see
        __getstate__), not once per outer replicate."""
        pat = object.__new__(Patterns)
        keep, pat.index = np.unique(self.index[rows], return_inverse=True)
        pat.outcomes, pat.z = self.outcomes[rows], self.z[keep]
        pat._zz = self._zz[keep]
        return pat

    @cached_property
    def _zz(self):
        # z[:, i] * z[:, j] over np.triu_indices, one row of the triangle
        # at a time, so no gathered copy of z is made
        z = self.z
        q = z.shape[1]
        zz = np.empty((z.shape[0], q * (q + 1) // 2))
        col = 0
        for a in range(q):
            np.multiply(z[:, a:a + 1], z[:, a:], out=zz[:, col:col + q - a])
            col += q - a
        return zz

    def __getstate__(self):
        # _zz is the largest part and follows from z: a pool worker that
        # receives patterns builds it again, once per task it unpickles,
        # only if it fits with them or restricts them
        return {k: v for k, v in self.__dict__.items() if k != "_zz"}

    def _tally(self, r, rep, rows):
        cell = (rep * self.k + self.index[rows]).ravel()
        events = np.bincount(cell, weights=self.outcomes[rows].ravel(),
                             minlength=r * self.k)
        trials = np.bincount(cell, minlength=r * self.k).astype(np.float64)
        return events.reshape(r, self.k), trials.reshape(r, self.k)

    def counts(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(events, trials) per pattern over the given row indices, which
        may repeat: k-vectors for a vector of indices, (R, k) matrices for
        an (R, m) matrix of them, one row per row."""
        if rows.ndim == 1:
            events, trials = self.counts(rows[None])
            return events[0], trials[0]
        return self._tally(rows.shape[0], np.arange(rows.shape[0])[:, None],
                           rows)

    def counts_outside(self, rows: np.ndarray):
        """counts of the rows each row of the (R, m) matrix rows leaves
        out: a resample's out-of-bag set, in (R, k) matrices."""
        r, n = rows.shape[0], self.index.shape[0]
        out = np.ones(r * n, dtype=bool)
        out[(rows + (np.arange(r) * n)[:, None]).ravel()] = False
        return self._tally(r, *np.divmod(np.flatnonzero(out), n))

    def hessians(self, weights: np.ndarray) -> np.ndarray:
        """Z^T diag(w_r) Z for each row w_r of weights."""
        q = self.z.shape[1]
        i, j = np.triu_indices(q)
        upper = weights @ self._zz
        h = np.empty((weights.shape[0], q, q))
        h[:, i, j] = upper
        h[:, j, i] = upper
        return h


def _log_likelihood(ez, trials, beta, eta, p):
    """Row-wise binomial log-likelihood sum(e * eta - t * log(1 + e^eta)),
    with sum(e * eta) = beta . (Z^T e) and log(1 + e^eta) taken from
    p = logistic(eta) as eta - log(p) where eta > 0 and -log(1 - p)
    elsewhere, whichever is exact: max(eta, 0) - log(max(p, 1 - p)), as
    p >= 1/2 where eta > 0 and p <= 1/2 elsewhere. The callers only
    compare these values, so a zero's sign or a NaN's payload is free."""
    log1pexp = np.maximum(eta, 0.0)
    log1pexp -= np.log(np.maximum(p, 1.0 - p))
    return (beta * ez).sum(axis=1) - np.einsum("ij,ij->i", trials, log1pexp)


def _solve(hess, grad):
    try:
        return np.linalg.solve(hess, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.empty_like(grad)
        for i in range(grad.shape[0]):
            try:
                step[i] = np.linalg.solve(hess[i], grad[i])
            except np.linalg.LinAlgError:
                step[i] = np.linalg.lstsq(hess[i], grad[i], rcond=None)[0]
        return step


def fit_ml_counts(pat: Patterns, events: np.ndarray, trials: np.ndarray,
                  max_iter: int, tol: float) -> np.ndarray:
    """ML logistic coefficients (intercept first), one row per row of the
    (R, k) event and trial count matrices. Starts, steps and stops each
    replicate as models.fit_ml does on the materialised resample.

    The working set (counts, coefficients, probabilities and
    log-likelihoods) holds the active replicates only, in their original
    order, so every matrix product sees the rows it would see if each
    iteration gathered them; it is compacted only when a replicate
    finishes, which is when that replicate's coefficients are written."""
    z = pat.z
    ez, t = events @ z, trials
    ybar = events.sum(axis=1) / trials.sum(axis=1)
    b = np.zeros((events.shape[0], z.shape[1]))
    b[:, 0] = np.log(ybar / (1.0 - ybar))
    # b @ z.T is exactly the intercept: z's leading column is 1 and every
    # other coefficient is 0
    eta = np.repeat(b[:, :1], pat.k, axis=1)
    p = np.repeat(logistic(b[:, :1]), pat.k, axis=1)
    ll = _log_likelihood(ez, t, b, eta, p)
    beta = np.empty_like(b)
    active = np.arange(events.shape[0])
    for _ in range(max_iter):
        if active.size == 0:
            break
        tp = t * p
        w = p * (1.0 - p)
        # guard against exactly-zero weights under extreme separation
        np.maximum(w, 1e-12, out=w)
        w *= t
        step = _solve(pat.hessians(w), ez - tp @ z)
        size = np.ones(active.size)
        cand = b + step
        eta_c = cand @ z.T
        p_c = logistic(eta_c)
        ll_c = _log_likelihood(ez, t, cand, eta_c, p_c)
        pending = np.flatnonzero(~(ll_c >= ll))
        for _ in range(39):  # 40 trial steps in all, as in _newton_irls
            if pending.size == 0:
                break
            size[pending] *= 0.5
            cand[pending] = b[pending] + size[pending, None] * step[pending]
            eta_c[pending] = cand[pending] @ z.T
            p_c[pending] = logistic(eta_c[pending])
            ll_c[pending] = _log_likelihood(
                ez[pending], t[pending], cand[pending], eta_c[pending],
                p_c[pending])
            pending = pending[~(ll_c[pending] >= ll[pending])]
        # no improving step found: stop at the current coefficients
        moved = ~(ll_c < ll)
        done = ~moved | (ll_c - ll <= tol * (np.abs(ll_c) + 1e-12))
        if done.any():
            fin = np.flatnonzero(done)
            beta[active[fin]] = np.where(moved[fin, None], cand[fin], b[fin])
            keep = ~done
            active, ez, t = active[keep], ez[keep], t[keep]
            b, p, ll = cand[keep], p_c[keep], ll_c[keep]
        else:  # every replicate moved
            b, p, ll = cand, p_c, ll_c
    beta[active] = b  # still active when max_iter ran out
    return beta


def risk_scores(pat: Patterns, beta: np.ndarray) -> np.ndarray:
    """Event probabilities per pattern, as models.predict computes them."""
    return logistic(np.clip(beta @ pat.z.T, -LP_CLIP, LP_CLIP))


def c_statistics(scores: np.ndarray, samples) -> list[np.ndarray]:
    """C-statistic of each row of scores (R, k) on each (events, trials)
    count pair in samples (per row, or one pair shared by all rows).

    One ordering per row serves every sample. Let F be the cumulative
    nonevent count in score order, with a zero in front. An event at
    position j of a tie group spanning positions a..b places above
    F[a] nonevents and ties with F[b + 1] - F[a], so twice the
    Mann-Whitney count (pairs ordered right, plus half the tied pairs) is
    sum_j e_j (F[a] + F[b + 1]). Outside a tie group that is
    F[j] + F[j + 1], two shifted views of F; only the positions inside
    tie groups, found once per ordering, are gathered. Every term is an
    integer and the sum, at most 2 m n_neg, lies below 2**53, so the count
    is exact in any summation order and the ratio equals
    metrics.c_statistic_value on the expanded rows bit for bit. NaN where
    a sample lacks a class."""
    r, k = scores.shape
    order = np.argsort(scores, axis=1)
    flat = (order + (np.arange(r) * k)[:, None]).ravel()
    s = scores.ravel()[flat].reshape(r, k)
    after = np.zeros((r, k), dtype=bool)  # tied with the position before
    after[:, 1:] = s[:, 1:] == s[:, :-1]
    before = np.zeros((r, k), dtype=bool)  # tied with the position after
    before[:, :-1] = after[:, 1:]
    at = np.flatnonzero(after | before)  # positions inside tie groups
    starts = ~after.ravel()[at]
    group = np.cumsum(starts) - 1
    row = at // k  # F has k + 1 columns: position j of row i is F[i, j]
    lo = at[starts][group] + row
    hi = at[~before.ravel()[at]][group] + row + 1
    out = []
    for events, trials in samples:
        f = trials - events
        if events.ndim == 1:
            e, f = events[order], f[order]
        else:
            e = events.ravel()[flat].reshape(r, k)
            f = f.ravel()[flat].reshape(r, k)
        cum = np.zeros((r, k + 1))
        np.cumsum(f, axis=1, out=cum[:, 1:])
        place = cum[:, :-1] + cum[:, 1:]
        cum = cum.ravel()
        place.ravel()[at] = cum[lo] + cum[hi]
        m = e.sum(axis=1)
        n_neg = cum[k::k + 1]
        u = 0.5 * np.einsum("ij,ij->i", e, place)
        with np.errstate(divide="ignore", invalid="ignore"):
            auc = u / (m * n_neg)
        auc[(m == 0) | (n_neg == 0)] = np.nan
        out.append(auc)
    return out
