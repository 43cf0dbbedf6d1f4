"""Frequency-weight replicate kernel: ML fits graded by the C-statistic.

A bootstrap resample is the original rows with integer counts. Collapsing
identical predictor rows into patterns turns the resample's Bernoulli
likelihood into a binomial likelihood over the distinct rows, and its
C-statistic into count-weighted placement sums over one ordering of the
distinct risk scores. Both are computed here for a block of replicates at
once: the Newton-Raphson iterations of a block run in lockstep, and each
replicate keeps the step-halving and stopping rule of models._newton_irls.

optimism._CountsBlockTask feeds the kernel one block at a time. It draws
the block's resamples with resampling.draw_block and redraws, one by one,
only those without both outcome classes. It counts the out-of-bag rows and
grades them only when a 0.632-family correction will read them (always at
the top level; inside a two-stage outer replicate only for 0.632 or
0.632+). An outer replicate's patterns are restricted from the dataset's
(Patterns.restrict) instead of being built again.

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
        subset's distinct rows are a sorted subset of the dataset's."""
        pat = object.__new__(Patterns)
        keep, pat.index = np.unique(self.index[rows], return_inverse=True)
        pat.outcomes, pat.z = self.outcomes[rows], self.z[keep]
        return pat

    @cached_property
    def _zz(self):
        i, j = np.triu_indices(self.z.shape[1])
        return np.ascontiguousarray(self.z[:, i] * self.z[:, j])

    def __getstate__(self):
        # _zz is the largest part and follows from z: a pool worker that
        # receives patterns builds it again only if it fits with them
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
    p = logistic(eta) as eta - log(p) or -log(1 - p), whichever is exact."""
    pos = eta > 0.0
    log1pexp = np.where(pos, eta, 0.0)
    log1pexp -= np.log(np.where(pos, p, 1.0 - p))
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
    replicate as models.fit_ml does on the materialised resample."""
    z = pat.z
    ez = events @ z
    ybar = events.sum(axis=1) / trials.sum(axis=1)
    beta = np.zeros((events.shape[0], z.shape[1]))
    beta[:, 0] = np.log(ybar / (1.0 - ybar))
    eta = beta @ z.T
    p = logistic(eta)
    ll = _log_likelihood(ez, trials, beta, eta, p)
    active = np.arange(events.shape[0])
    for _ in range(max_iter):
        if active.size == 0:
            break
        a_ez, t, b, p_a, ll_a = (ez[active], trials[active], beta[active],
                                 p[active], ll[active])
        tp = t * p_a
        w = p_a * (1.0 - p_a)
        # guard against exactly-zero weights under extreme separation
        np.maximum(w, 1e-12, out=w)
        w *= t
        step = _solve(pat.hessians(w), a_ez - tp @ z)
        size = np.ones(active.size)
        cand = b + step
        eta_c = cand @ z.T
        p_c = logistic(eta_c)
        ll_c = _log_likelihood(a_ez, t, cand, eta_c, p_c)
        pending = np.flatnonzero(~(ll_c >= ll_a))
        for _ in range(39):  # 40 trial steps in all, as in _newton_irls
            if pending.size == 0:
                break
            size[pending] *= 0.5
            cand[pending] = b[pending] + size[pending, None] * step[pending]
            eta_c[pending] = cand[pending] @ z.T
            p_c[pending] = logistic(eta_c[pending])
            ll_c[pending] = _log_likelihood(
                a_ez[pending], t[pending], cand[pending], eta_c[pending],
                p_c[pending])
            pending = pending[~(ll_c[pending] >= ll_a[pending])]
        # no improving step found: stop at the current coefficients
        moved = ~(ll_c < ll_a)
        done = ~moved | (ll_c - ll_a <= tol * (np.abs(ll_c) + 1e-12))
        upd = active[moved]
        beta[upd], eta[upd], p[upd], ll[upd] = (
            cand[moved], eta_c[moved], p_c[moved], ll_c[moved])
        active = active[~done]
    return beta


def risk_scores(pat: Patterns, beta: np.ndarray) -> np.ndarray:
    """Event probabilities per pattern, as models.predict computes them."""
    return logistic(np.clip(beta @ pat.z.T, -LP_CLIP, LP_CLIP))


def c_statistics(scores: np.ndarray, samples) -> list[np.ndarray]:
    """C-statistic of each row of scores (R, k) on each (events, trials)
    count pair in samples (per row, or one pair shared by all rows).

    One ordering per row serves every sample. The Mann-Whitney count
    (pairs ordered right, plus half the tied pairs) is the count-weighted
    sum of the events' placements, exact half-integers, so the ratio
    equals metrics.c_statistic_value on the expanded rows bit for bit.
    NaN where a sample lacks a class."""
    r, k = scores.shape
    order = np.argsort(scores, axis=1)
    flat = (order + (np.arange(r) * k)[:, None]).ravel()
    s = scores.ravel()[flat]
    first = np.empty(s.shape[0], dtype=bool)
    first[0] = True
    first[1:] = s[1:] != s[:-1]
    first[::k] = True
    starts = np.flatnonzero(first)  # tie groups, in score order per row
    row_first = np.searchsorted(starts, np.arange(r) * k)
    row = starts // k
    out = []
    for events, trials in samples:
        if events.ndim == 1:
            e, t = events[order].ravel(), trials[order].ravel()
        else:
            e, t = events.ravel()[flat], trials.ravel()[flat]
        eg = np.add.reduceat(e, starts)
        fg = np.add.reduceat(t - e, starts)
        below = np.cumsum(fg) - fg  # nonevents in lower groups, all rows
        below -= below[row_first][row]
        m = np.add.reduceat(eg, row_first)
        n_neg = np.add.reduceat(fg, row_first)
        u = np.add.reduceat(eg * (below + 0.5 * fg), row_first)
        with np.errstate(divide="ignore", invalid="ignore"):
            auc = u / (m * n_neg)
        auc[(m == 0) | (n_neg == 0)] = np.nan
        out.append(auc)
    return out
