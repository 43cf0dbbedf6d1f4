"""Coverage study harness: synthetic cohorts mimicking a GUSTO-like trial,
all interval methods run on each replication, coverage and width tabulated
against an externally estimated true AUC.

The scenario grid crosses events-per-variable (10/20/40), event rate
(0.125/0.0625), candidate predictor count (8/17) and coefficient type
(1 = dense, 2 = sparse/shrunk). Derivation sample size is
round(p * EPV / event_rate). Covariates come from three independent
blocks: multivariate normal (height, weight, age; age dichotomized),
multinomial smoking expanded to two dummies, and correlated binaries
generated by a Gaussian copula matched to target marginals and pairwise
correlations.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from functools import partial
from importlib import resources

import numpy as np
# ndtri and ndtr are what scipy.stats.norm's ppf and cdf evaluate. The
# bivariate normal tail and the root finder below follow SciPy's own code
# operation for operation, so building a generator returns the same bits
# without loading scipy.stats or scipy.optimize (about 0.7 s of imports).
from scipy.special import expit, ndtr, ndtri

from .data import Dataset, DataError
from .intervals import (TWO_STAGE, IntervalError, parse_method,
                        run_validation)
from .metrics import (C_STATISTIC, MetricError, c_statistic_value,
                      score_ranks)
from .models import FitError, FitRecipe, logistic
from .optimism import OptimismError
from .resampling import (ResamplePlan, ResamplingError, WorkerPool,
                         map_records, stream)
# Not called here: bench/launch.py times these layers through the names
# this module imports.
from .intervals import two_stage_ci  # noqa: F401
from .models import predict  # noqa: F401
from .optimism import evaluate_replicates  # noqa: F401


class SimulationError(ValueError):
    pass


#: Table of scenario parameters: id -> (EPV, event rate, p, coefficient type)
SCENARIO_TABLE = {
    1: (10, 0.1250, 8, 1), 2: (10, 0.0625, 8, 1),
    3: (10, 0.1250, 8, 2), 4: (10, 0.0625, 8, 2),
    5: (10, 0.1250, 17, 1), 6: (10, 0.0625, 17, 1),
    7: (10, 0.1250, 17, 2), 8: (10, 0.0625, 17, 2),
    9: (20, 0.1250, 8, 1), 10: (20, 0.0625, 8, 1),
    11: (20, 0.1250, 8, 2), 12: (20, 0.0625, 8, 2),
    13: (20, 0.1250, 17, 1), 14: (20, 0.0625, 17, 1),
    15: (20, 0.1250, 17, 2), 16: (20, 0.0625, 17, 2),
    17: (40, 0.1250, 8, 1), 18: (40, 0.0625, 8, 1),
    19: (40, 0.1250, 8, 2), 20: (40, 0.0625, 8, 2),
    21: (40, 0.1250, 17, 1), 22: (40, 0.0625, 17, 1),
    23: (40, 0.1250, 17, 2), 24: (40, 0.0625, 17, 2),
}


def derive_n(p: int, epv: int, event_rate: float) -> int:
    """Derivation sample size: (predictors * EPV) / expected event fraction."""
    return int(round(p * epv / event_rate))


@dataclass(frozen=True)
class ScenarioSpec:
    """One row of SCENARIO_TABLE, by its id."""

    id: int

    def __post_init__(self):
        if self.id not in SCENARIO_TABLE:
            raise SimulationError(f"no scenario {self.id}")

    @property
    def epv(self) -> int:
        return SCENARIO_TABLE[self.id][0]

    @property
    def event_rate(self) -> float:
        return SCENARIO_TABLE[self.id][1]

    @property
    def p(self) -> int:
        return SCENARIO_TABLE[self.id][2]

    @property
    def coefficient_type(self) -> int:
        return SCENARIO_TABLE[self.id][3]

    @property
    def n(self) -> int:
        return derive_n(self.p, self.epv, self.event_rate)


# Predictor column order; the 8-predictor scenarios use the first 8 columns.
COLUMN_NAMES = ("A65", "SEX", "DIA", "HYP", "HRT", "HIG", "SHO", "TTR",
                "PMI", "HEI", "WEI", "HTN", "SMK1", "SMK2", "LIP", "PAN",
                "FAM", "ST4")
BINARY_NAMES = ("SEX", "DIA", "HYP", "HRT", "HIG", "SHO", "TTR", "PMI",
                "HTN", "LIP", "PAN", "FAM", "ST4")
_COLUMN = {name: j for j, name in enumerate(COLUMN_NAMES)}
_BINARY_COLUMNS = np.array([_COLUMN[name] for name in BINARY_NAMES])


@dataclass(frozen=True)
class GeneratorConfig:
    """Raw generator parameters, loadable from the delimited-table file."""

    continuous_means: np.ndarray        # height, weight, age
    continuous_covariance: np.ndarray   # 3x3
    age_threshold: float
    smoking_proportions: np.ndarray     # current, ex, never
    binary_marginals: np.ndarray        # aligned with BINARY_NAMES
    binary_correlations: np.ndarray
    coefficients: dict                  # (p, type) -> slope vector

    @classmethod
    def default(cls) -> "GeneratorConfig":
        text = (resources.files("bootval") / "params" /
                "default_generator.table").read_text()
        return cls.from_text(text)

    @classmethod
    def from_file(cls, path) -> "GeneratorConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SimulationError(f"cannot read {path}: {exc}") from None
        return cls.from_text(text)

    @classmethod
    def from_text(cls, text: str) -> "GeneratorConfig":
        sections: dict[str, list[list[str]]] = {}
        current = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1]
                sections[current] = []
                continue
            if current is None:
                raise SimulationError("table rows before any section header")
            sections[current].append([c.strip() for c in line.split(",")])

        def section(name):
            if name not in sections:
                raise SimulationError(f"generator table has no [{name}] "
                                      f"section")
            return sections[name]

        def number(cell):
            try:
                return float(cell)
            except ValueError:
                raise SimulationError(f"generator table value {cell!r} is "
                                      f"not a number") from None

        def matrix(name):
            rows = [[number(c) for c in row] for row in section(name)]
            if len({len(row) for row in rows}) > 1:
                raise SimulationError(f"generator table section [{name}] "
                                      f"has rows of unequal length")
            return np.array(rows)

        def keyed(name, keys):
            cells = section(name)
            for row in cells:
                if len(row) != 2:
                    raise SimulationError(f"generator table section "
                                          f"[{name}] row {','.join(row)!r} "
                                          f"is not a key and one value")
            rows = {key: number(value) for key, value in cells}
            for key in keys:
                if key not in rows:
                    raise SimulationError(f"generator table section "
                                          f"[{name}] has no {key} row")
            return np.array([rows[key] for key in keys])

        age = matrix("age_threshold")
        if age.shape != (1, 1):
            raise SimulationError("generator table section [age_threshold] "
                                  "must hold exactly one value")
        coeffs = {}
        # the 17-predictor model has 18 columns: smoking is two dummies
        for p, width in ((8, 8), (17, len(COLUMN_NAMES))):
            for t in (1, 2):
                key = f"coefficients_{p}_type{t}"
                slopes = matrix(key).ravel()
                if slopes.size != width:
                    raise SimulationError(f"generator table section [{key}] "
                                          f"must hold {width} values, not "
                                          f"{slopes.size}")
                coeffs[(p, t)] = slopes
        return cls(
            continuous_means=keyed("continuous_means",
                                   ("height", "weight", "age")),
            continuous_covariance=matrix("continuous_covariance"),
            age_threshold=float(age[0, 0]),
            smoking_proportions=keyed("smoking_proportions",
                                      ("current", "ex", "never")),
            binary_marginals=keyed("binary_marginals", BINARY_NAMES),
            binary_correlations=matrix("binary_correlations"),
            coefficients=coeffs,
        )


def _phi_bounds(p1: float, p2: float) -> tuple[float, float]:
    """Feasible range of the correlation between two Bernoullis with the
    given marginals."""
    denom = np.sqrt(p1 * (1 - p1) * p2 * (1 - p2))
    lo = (max(0.0, p1 + p2 - 1.0) - p1 * p2) / denom
    hi = (min(p1, p2) - p1 * p2) / denom
    return lo, hi


#: scipy.optimize.brentq's defaults: relative tolerance and iteration cap
_BRENT_RTOL = 4 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100


def _brent_value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"the function value at x={x} is NaN")
    return fx


def brentq(f, a: float, b: float, xtol: float) -> float:
    """A root of f in [a, b] by Brent's method (Brent 1973, *Algorithms for
    Minimization without Derivatives*, ch. 4). Each step is that of SciPy's
    optimize/Zeros/brentq.c at its default rtol (4 eps) and 100 iterations,
    so the root is the float scipy.optimize.brentq(f, a, b, xtol=xtol)
    returns. Raises ValueError if f(a) and f(b) have the same sign or f is
    NaN, and RuntimeError if the iterations run out."""
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _brent_value(f, xpre), _brent_value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C gets an infinite or NaN step here, which bisects
                stry = math.inf
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                spre, scur = scur, stry  # good short step
                bisect = False
        if bisect:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _brent_value(f, xcur)
    raise RuntimeError(f"failed to converge after {_BRENT_MAXITER} "
                       f"iterations, value is {xcur}")


def _phi(z: float) -> float:
    """Standard normal CDF in Genz's erfc form, which can differ from ndtr
    in the last bit."""
    return math.erfc(-z / math.sqrt(2)) / 2


def _gauss_legendre(weights, nodes):
    """Weights and abscissae of the rule on [0, 2], in the order Genz sums
    them: the points 1 - x, then 1 + x."""
    return (weights + weights,
            tuple(1 - x for x in nodes) + tuple(1 + x for x in nodes))


#: Gauss-Legendre rules of 6, 12 and 20 points (half of each listed)
_GL6, _GL12, _GL20 = (_gauss_legendre(*rule) for rule in (
    ((0.1713244923791705, 0.3607615730481384, 0.4679139345726904),
     (0.9324695142031522, 0.6612093864662647, 0.2386191860831970)),
    ((.04717533638651177, 0.1069393259953183, 0.1600783285433464,
      0.2031674267230659, 0.2334925365383547, 0.2491470458134029),
     (0.9815606342467191, 0.9041172563704750, 0.7699026741943050,
      0.5873179542866171, 0.3678314989981802, 0.1252334085114692)),
    ((.01761400713915212, .04060142980038694, .06267204833410906,
      .08327674157670475, 0.1019301198172404, 0.1181945319615184,
      0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
      0.1527533871307259),
     (0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
      0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
      0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
      0.07652652113349733))))


def bvnu(h: float, k: float, r: float) -> float:
    """P(X > h, Y > k) for standard normals X, Y with correlation r, by
    Genz's BVNU (Genz 2004, *Statistics and Computing* 14:251, after
    Drezner & Wesolowsky 1990). The operations and their order are those
    of SciPy's scipy.stats._stats_pythran._bvnu, so the result is the same
    float: the quadrature sums run in node order, and squares are products,
    since Python's x**2 calls pow, which can differ from x * x in the last
    bit. For finite h and k no exponent exceeds 50, so math.exp, which
    raises where C overflows to inf, cannot overflow."""
    if h == math.inf or k == math.inf:
        return 0.0
    if h == -math.inf:
        return 1.0 if k == -math.inf else _phi(-k)
    if k == -math.inf:
        return _phi(-h)
    if r == 0:
        return _phi(-h) * _phi(-k)
    tp = 2 * math.pi
    hk = h * k
    w, x = _GL6 if abs(r) < 0.3 else _GL12 if abs(r) < 0.75 else _GL20
    if abs(r) < 0.925:
        hs = (h * h + k * k) / 2
        asr = math.asin(r) / 2
        total = 0.0
        for wi, xi in zip(w, x):
            sn = math.sin(asr * xi)
            total += math.exp((sn * hk - hs) / (1 - sn * sn)) * wi
        return max(0.0, min(1.0, total * asr / tp + _phi(-h) * _phi(-k)))
    if r < 0:
        k, hk = -k, -hk
    bvn = 0.0
    if abs(r) < 1:
        as_ = 1 - r * r
        a = math.sqrt(as_)
        bs = (h - k) * (h - k)
        asr = -(bs / as_ + hk) / 2
        c = (4 - hk) / 8
        d = (12 - hk) / 80
        if asr > -100:
            bvn = a * math.exp(asr) * (1 - c * (bs - as_) * (1 - d * bs) / 3
                                       + c * d * (as_ * as_))
        if hk > -100:
            b = math.sqrt(bs)
            sp = math.sqrt(tp) * _phi(-b / a)
            bvn = bvn - math.exp(-hk / 2) * sp * b * (
                1 - c * bs * (1 - d * bs) / 3)
        a = a / 2
        total = 0.0
        for wi, xi in zip(w, x):
            xs = (a * xi) * (a * xi)
            asr = -(bs / xs + hk) / 2
            if asr > -100:
                sp = 1 + c * xs * (1 + 5 * d * xs)
                rs = math.sqrt(1 - xs)
                ep = math.exp(-(hk / 2) * xs / ((1 + rs) * (1 + rs))) / rs
                total += math.exp(asr) * (ep - sp) * wi
        bvn = -(bvn + a * total) / tp
    if r > 0:
        bvn = bvn + _phi(-max(h, k))
    elif h >= k:
        bvn = -bvn
    else:
        low = _phi(k) - _phi(h) if h < 0 else _phi(-h) - _phi(-k)
        bvn = low - bvn
    return max(0.0, min(1.0, bvn))


def bvn_cdf(t1: float, t2: float, r: float) -> float:
    """P(Z1 <= t1, Z2 <= t2) for standard normals with correlation r, by
    the expression scipy.stats.multivariate_normal.cdf evaluates for it."""
    return max(0.0, min(1.0 - _phi(-t1) - _phi(-t2) + bvnu(t1, t2, r), 1.0))


def _latent_rho(p1: float, p2: float, target: float) -> float:
    """Latent normal correlation whose dichotomization (at the marginal
    thresholds) reproduces the target binary correlation."""
    if target == 0.0:
        return 0.0
    t1 = float(ndtri(1.0 - p1))
    t2 = float(ndtri(1.0 - p2))
    joint_target = p1 * p2 + target * np.sqrt(
        p1 * (1 - p1) * p2 * (1 - p2))

    def upper_tail(rho):
        return 1.0 - ndtr(t1) - ndtr(t2) + bvn_cdf(t1, t2, rho)

    return brentq(lambda r: upper_tail(r) - joint_target, -0.999, 0.999,
                  xtol=1e-10)


def _nearest_psd_correlation(m: np.ndarray) -> np.ndarray:
    """Eigenvalue clipping followed by rescaling to unit diagonal."""
    w, v = np.linalg.eigh((m + m.T) / 2.0)
    w = np.clip(w, 1e-10, None)
    out = (v * w) @ v.T
    d = np.sqrt(np.diag(out))
    out = out / np.outer(d, d)
    np.fill_diagonal(out, 1.0)
    return out


#: Rows per block of CovariateGenerator.blocks. OpenBLAS sums a row of
#: x @ slopes in another order when the row falls in the remainder group at
#: the end of a gemv call, so a block size that is a multiple of 64 keeps
#: the remainder where the one-shot product has it, at the end of the
#: sample: every bit is kept. 16,384 rows are also too few for OpenBLAS to
#: split the product across threads, which it does from about 26,000 rows
#: of 17 columns, so the blocked bits do not depend on the thread count.
BLOCK_ROWS = 16_384


class CovariateGenerator:
    """Samples the 18-column predictor matrix. Constructed once per
    scenario; construction validates covariances, proportions, and binary
    correlation feasibility, and precomputes Cholesky factors.

    n rows take their draws from the stream in one order, which every
    seeded result depends on: all n x 3 continuous normals, then the n
    smoking uniforms, then the n x 13 latent normals of the binaries, row
    by row. `blocks` keeps that order while it holds one block of the
    matrix: it takes the first two draws whole (32 bytes a row) and the
    latent normals a block at a time, which continues the same stream
    because NumPy's Generator fills an array element by element. Its block
    size is a multiple of 64 rows, so that a product reduced block by block
    keeps every bit of the one-shot product (see BLOCK_ROWS)."""

    def __init__(self, config: GeneratorConfig):
        cov = config.continuous_covariance
        if cov.shape != (3, 3) or not np.allclose(cov, cov.T):
            raise SimulationError("continuous covariance must be a "
                                  "symmetric 3 x 3 matrix")
        try:
            self._cont_chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise SimulationError(
                "continuous covariance is not positive semi-definite"
            ) from None
        props = config.smoking_proportions
        if abs(props.sum() - 1.0) > 1e-9 or np.any(props < 0):
            raise SimulationError("smoking proportions must sum to 1")
        marg = config.binary_marginals
        corr = config.binary_correlations
        k = marg.size
        if corr.shape != (k, k) or not np.allclose(corr, corr.T):
            raise SimulationError("binary correlation matrix malformed")
        for name, m in zip(BINARY_NAMES, marg):
            if not 0.0 < m < 1.0:
                raise SimulationError(
                    f"binary marginal {m} of {name} must lie in (0, 1)")
        latent = np.eye(k)
        for i in range(k):
            for j in range(i + 1, k):
                lo, hi = _phi_bounds(marg[i], marg[j])
                if not lo <= corr[i, j] <= hi:
                    raise SimulationError(
                        f"binary correlation {corr[i, j]} between "
                        f"{BINARY_NAMES[i]} and {BINARY_NAMES[j]} is "
                        f"infeasible for marginals ({marg[i]}, {marg[j]})")
                try:
                    rho = _latent_rho(marg[i], marg[j], corr[i, j])
                except ValueError:  # brentq's: no root in the bracket
                    raise SimulationError(
                        f"binary correlation {corr[i, j]} between "
                        f"{BINARY_NAMES[i]} and {BINARY_NAMES[j]} has no "
                        f"latent normal correlation in (-1, 1)") from None
                latent[i, j] = latent[j, i] = rho
        latent = _nearest_psd_correlation(latent)
        self._latent_chol = np.linalg.cholesky(latent)
        self._binary_thresholds = ndtri(1.0 - marg)
        self.config = config

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """One (n, 18) C-ordered predictor matrix in COLUMN_NAMES order,
        drawn in the order the class docstring gives: `blocks(n, rng)` as
        a single block, so that a whole sample holds the rows that cohorts
        and streamed linear predictors are built from."""
        return next(self.blocks(n, rng, block=max(n, 1)))

    def blocks(self, n: int, rng: np.random.Generator,
               block: int = BLOCK_ROWS):
        """The rows of sample(n, rng), yielded as C-ordered matrices of
        `block` rows (fewer in the last), in the draw order of the class
        docstring. Each block's latent normals are drawn as it is yielded,
        so consume every block before drawing from rng again; the stream
        then stands where sample(n, rng) leaves it."""
        cfg = self.config
        normals, u = rng.standard_normal((n, 3)), rng.random(n)
        cut = np.cumsum(cfg.smoking_proportions)
        for lo in range(0, n, block) or (0,):  # n = 0: one empty block
            hi = min(lo + block, n)
            out = np.empty((hi - lo, len(COLUMN_NAMES)))
            cont = normals[lo:hi] @ self._cont_chol.T + cfg.continuous_means
            out[:, _COLUMN["HEI"]] = cont[:, 0]
            out[:, _COLUMN["WEI"]] = cont[:, 1]
            out[:, _COLUMN["A65"]] = cont[:, 2] >= cfg.age_threshold
            smk = u[lo:hi]
            out[:, _COLUMN["SMK1"]] = smk < cut[0]                    # current
            out[:, _COLUMN["SMK2"]] = (smk >= cut[0]) & (smk < cut[1])  # ex
            z = rng.standard_normal((hi - lo, self._binary_thresholds.size))
            out[:, _BINARY_COLUMNS] = (z @ self._latent_chol.T
                                       > self._binary_thresholds)
            yield out


@dataclass(frozen=True)
class TrueModel:
    """The data-generating logistic model."""

    beta0: float
    slopes: np.ndarray


def _subseed(seed: int, *path: int) -> int:
    """Derive an independent integer seed for a sub-computation."""
    return int(np.random.SeedSequence(
        seed, spawn_key=tuple(int(k) for k in path)).generate_state(1)[0])


def _lp_blocks(gen: CovariateGenerator, slopes: np.ndarray, n: int,
               rng: np.random.Generator):
    """Each block x of gen.blocks(n, rng) with its linear predictor
    x[:, :slopes.size] @ slopes, without the intercept: the slopes weight
    the leading columns. One product per block gives the bits of the
    one-shot product at one BLAS thread, at any thread count (see
    BLOCK_ROWS)."""
    for x in gen.blocks(n, rng):
        yield x, x[:, :slopes.size] @ slopes


def _sample_lp(gen: CovariateGenerator, slopes: np.ndarray, n: int,
               rng: np.random.Generator,
               chunk: int = 200_000) -> np.ndarray:
    """The linear predictor of n rows drawn as successive
    gen.sample(chunk, rng) calls draw them. Each block is reduced and
    dropped, so the matrix is never held whole."""
    out = np.empty(n)
    done = 0
    while done < n:
        for _, lp in _lp_blocks(gen, slopes, min(chunk, n - done), rng):
            out[done:done + len(lp)] = lp
            done += len(lp)
    return out


def calibrate_intercept(gen: CovariateGenerator, slopes: np.ndarray,
                        target_rate: float, sample_n: int = 1_000_000,
                        seed: int = 0) -> float:
    """Intercept giving the target event fraction, by monotone root search
    on the Monte Carlo mean of the event probability."""
    if not 0.0 < target_rate < 1.0:
        raise SimulationError("target rate must be in (0, 1)")
    if sample_n < 1:
        raise SimulationError("calibration sample must have >= 1 row")
    lp = _sample_lp(gen, slopes, sample_n, stream(seed, 3, 0))
    base = float(np.log(target_rate / (1.0 - target_rate)))
    buf = np.empty_like(lp)  # each evaluation's logistic(b0 + lp)

    def excess(b0):
        np.add(b0, lp, out=buf)
        expit(buf, out=buf)
        return float(buf.mean()) - target_rate

    lo, up = base - 15.0, base + 15.0
    if excess(lo) > 0 or excess(up) < 0:
        raise SimulationError("intercept root not bracketed; check slopes")
    return brentq(excess, lo, up, xtol=1e-10)


def generate_cohort(gen: CovariateGenerator, model: TrueModel, n: int,
                    seed: int) -> Dataset:
    """Covariates per block, event probability from the true model, and
    Bernoulli outcomes; deterministic per seed. The cohort holds the
    leading columns the slopes weight. The linear predictor is reduced
    block by block, as _sample_lp reduces it."""
    width = model.slopes.size
    rng = stream(seed, 3, 1)
    xs, lps = zip(*_lp_blocks(gen, model.slopes, n, rng))
    x = np.concatenate(xs)[:, :width]
    pi = logistic(model.beta0 + np.concatenate(lps))
    y = (rng.random(n) < pi).astype(float)
    return Dataset(y, x, COLUMN_NAMES[:width])


def true_risk_score(lp: np.ndarray) -> np.ndarray:
    """The true model's risk ranking score: the linear predictor x @ slopes
    rounded to 10 decimals, so that rows with equal slope sums (binary
    predictors with decimal slopes) tie whatever order the product sums in.
    The intercept is left out; it cannot change the ranking."""
    return np.round(lp, 10)


def estimand_draws(gen: CovariateGenerator, slopes: np.ndarray,
                   test_n: int, seed: int):
    """All of estimate_true_auc's work that the intercept does not enter:
    the cohort's linear predictor without the intercept, from _sample_lp
    in one chunk with the bits of the one-shot product; its stream, which
    then stands at the outcome draws; and the score_ranks of its true risk
    scores."""
    if test_n < 1000:
        raise SimulationError("external test cohort must have >= 1000 rows")
    rng = stream(seed, 3, 1)
    lp = _sample_lp(gen, slopes, test_n, rng, chunk=test_n)
    return lp, rng, score_ranks(true_risk_score(lp))


def estimate_true_auc(gen: CovariateGenerator, model: TrueModel,
                      test_n: int, seed: int, draws=None) -> float:
    """Empirical AUC of the true risk score on a fresh external cohort: the
    one generate_cohort(gen, model, test_n, seed) draws, whose outcomes
    follow its covariates in the stream. Equal true risks count as ties, as
    in every C-statistic here. The cohort's covariates are reduced to their
    linear predictor. `draws` is estimand_draws(gen, model.slopes, test_n,
    seed) where the caller has it already."""
    lp, rng, ranks = draws or estimand_draws(gen, model.slopes, test_n,
                                             seed)
    y = rng.random(test_n) < logistic(model.beta0 + lp)
    return c_statistic_value(None, y, ranks)


@dataclass(frozen=True)
class CoverageResult:
    scenario_id: int
    method: str
    replications: int
    coverage: float
    mean_width: float
    failures: int
    true_auc: float

    def __post_init__(self):
        if not 0.0 <= self.coverage <= 1.0:
            raise SimulationError("coverage must lie in [0, 1]")


def _replication(gen, model: TrueModel, true_auc: float, spec: ScenarioSpec,
                 methods, B: int, inner_B: int, alpha: float, seed: int,
                 replications: int, i: int):
    """Replication i: generate a cohort, compute every requested interval,
    report (covered, width) per method, or None if the replication failed.
    Each finished replication prints one progress line to stderr."""
    start = time.monotonic()
    rep_seed = _subseed(seed, 3, spec.id, i)
    d = generate_cohort(gen, model, spec.n, rep_seed)
    plan = ResamplePlan(B, rep_seed)
    try:
        result = run_validation(d, FitRecipe("ml"), C_STATISTIC, plan,
                                methods=methods, inner_B=inner_B,
                                alpha=alpha)
    except (DataError, FitError, MetricError, ResamplingError,
            OptimismError, IntervalError):
        record = None  # replication-level failure, recorded not fatal
    else:
        record = {method: (est.contains(true_auc), est.width)
                  for method, est in zip(methods, result.intervals)}
    status = "done" if record is not None else "failed"
    # one write per line, so that lines from pool workers never merge
    sys.stderr.write(f"[bootval] scenario {spec.id}: replication "
                     f"{i + 1}/{replications} {status} in "
                     f"{time.monotonic() - start:.1f}s\n")
    return record


def run_scenario(spec: ScenarioSpec, methods, replications: int, B: int,
                 inner_B: int, seed: int, alpha: float = 0.05,
                 workers: int = 1, config: GeneratorConfig | None = None,
                 calibration_n: int = 1_000_000,
                 estimand_n: int = 500_000) -> list[CoverageResult]:
    """Run one scenario end to end and aggregate coverage per method. The
    arguments are checked before any set-up, so that a bad one raises
    instead of failing every replication. Set-up and replications run on
    one WorkerPool of `workers` processes."""
    kinds = [parse_method(method)[0] for method in methods]
    if TWO_STAGE in kinds and (inner_B is None or inner_B < 1):
        raise IntervalError("inner_B must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise SimulationError("alpha must be in (0, 1)")
    if seed < 0:
        raise SimulationError("seed must be >= 0")
    if replications < 1:
        raise SimulationError("replications must be >= 1")
    if B < 1:
        raise ResamplingError("B must be >= 1")
    if calibration_n < 1:
        raise SimulationError("calibration sample must have >= 1 row")
    if estimand_n < 1000:
        raise SimulationError("external test cohort must have >= 1000 rows")
    config = config or GeneratorConfig.default()
    with WorkerPool(workers) as pool:
        gen = CovariateGenerator(config)
        slopes = config.coefficients[(spec.p, spec.coefficient_type)]
        # The intercept enters the estimand only at its outcome draws, so
        # one worker calibrates while another does the rest of the
        # estimand. This process waits: calibrating here, it would hold the
        # calibration's arrays when the estimand's arrive, and a worker idle
        # through set-up starts the replications with a cold heap.
        beta0 = pool.submit(calibrate_intercept, gen, slopes, spec.event_rate,
                            calibration_n, _subseed(seed, 1, spec.id))
        estimand_seed = _subseed(seed, 2, spec.id)
        draws = pool.submit(estimand_draws, gen, slopes, estimand_n,
                            estimand_seed)
        model = TrueModel(beta0.result(), slopes)
        true_auc = estimate_true_auc(gen, model, estimand_n, estimand_seed,
                                     draws=draws.result())
        task = partial(_replication, gen, model, true_auc, spec, methods, B,
                       inner_B, alpha, seed, replications)
        records = map_records(replications, task, pool)
    results = []
    for method in methods:
        covered, widths, failures = 0, [], 0
        for rec in records:
            if rec is None:
                failures += 1
                continue
            hit, width = rec[method]
            covered += bool(hit)
            widths.append(width)
        done = replications - failures
        results.append(CoverageResult(
            scenario_id=spec.id, method=method, replications=done,
            coverage=covered / done if done else 0.0,
            mean_width=float(np.mean(widths)) if widths else float("nan"),
            failures=failures, true_auc=true_auc))
    return results


def coverage_to_csv(results: list[CoverageResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scenario", "method", "replications", "coverage",
                     "mean_width", "failures", "true_auc"])
    for r in results:
        writer.writerow([r.scenario_id, r.method, r.replications,
                         f"{r.coverage:.6g}", f"{r.mean_width:.6g}",
                         r.failures, f"{r.true_auc:.6g}"])
    return buf.getvalue()


def coverage_to_json(results: list[CoverageResult], meta: dict) -> str:
    payload = {
        "meta": meta,
        "results": [
            {"scenario": r.scenario_id, "method": r.method,
             "replications": r.replications,
             "coverage": round(r.coverage, 6),
             "mean_width": round(r.mean_width, 6)
             if np.isfinite(r.mean_width) else None,
             "failures": r.failures,
             "true_auc": round(r.true_auc, 6)}
            for r in results
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
