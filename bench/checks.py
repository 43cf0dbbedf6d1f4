"""Output checks, made after timing ends.

Each check returns a list of messages, one per failure. Reports print
values to 6 significant digits, so identities between printed values hold
to within the rounding of each value that enters them.
"""

from __future__ import annotations

import csv
import math
from statistics import NormalDist

import numpy as np

CORRECTIONS = ("harrell", "0.632", "0.632plus")


def half_unit(x: float) -> float:
    """Half a unit in the 6th significant digit of x: the most that
    printing x with `.6g` can move it."""
    if x == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 5)


def _close(failures, what, got, want, tol):
    if not abs(got - want) <= tol + 1e-12:
        failures.append(f"{what}: {got!r} != {want!r} (tolerance {tol:.3g})")


def newton_logistic(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Maximum-likelihood logistic coefficients (intercept first) by plain
    Newton-Raphson, iterated until the step stops changing them."""
    z = np.column_stack([np.ones(len(y)), x])
    beta = np.zeros(z.shape[1])
    for _ in range(100):
        p = 1.0 / (1.0 + np.exp(-(z @ beta)))
        step = np.linalg.solve((z * (p * (1.0 - p))[:, None]).T @ z,
                               z.T @ (y - p))
        beta += step
        if np.max(np.abs(step)) < 1e-13 * (1.0 + np.max(np.abs(beta))):
            return beta
    raise ArithmeticError("reference Newton fit did not converge")


def pair_count_delong(scores: np.ndarray, y: np.ndarray, alpha: float):
    """AUC by counting every (event, non-event) pair, with DeLong's
    interval from the same pair comparisons: (auc, lower, upper)."""
    pos, neg = scores[y == 1.0], scores[y == 0.0]
    wins = ((pos[:, None] > neg[None, :]).astype(np.float64)
            + 0.5 * (pos[:, None] == neg[None, :]))
    v10 = wins.mean(axis=1)
    v01 = wins.mean(axis=0)
    auc = float(wins.sum() / wins.size)
    se = math.sqrt(v10.var(ddof=1) / pos.size + v01.var(ddof=1) / neg.size)
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return auc, auc - z * se, auc + z * se


def check_validate(report: dict, B: int, inner_B: int | None,
                   two_stage: bool) -> list[str]:
    """Identities every validate report must satisfy."""
    f: list[str] = []
    app = report["apparent"]
    if report["replicates"] != {"B": B, "valid": B, "oob_valid": B}:
        f.append(f"replicates {report['replicates']} not all valid of {B}")
    corr = report["corrections"]
    if sorted(corr) != sorted(CORRECTIONS):
        return f + [f"corrections {sorted(corr)}"]
    for name, c in corr.items():
        if c["apparent"] != app:
            f.append(f"{name}: apparent {c['apparent']} != {app}")
        if c["n_valid"] != B:
            f.append(f"{name}: n_valid {c['n_valid']} != {B}")
    h = corr["harrell"]
    _close(f, "harrell corrected = apparent - optimism", h["corrected"],
           app - h["optimism"],
           half_unit(h["corrected"]) + half_unit(app)
           + half_unit(h["optimism"]))
    c = corr["0.632"]
    _close(f, "0.632 corrected = 0.368 apparent + 0.632 theta_out",
           c["corrected"], 0.368 * app + 0.632 * c["theta_out"],
           half_unit(c["corrected"]) + 0.368 * half_unit(app)
           + 0.632 * half_unit(c["theta_out"]))
    c = corr["0.632plus"]
    r, w, t = c["relative_overfitting_rate"], c["weight"], c["theta_out"]
    if not 0.0 <= r <= 1.0:
        f.append(f"0.632+ R = {r} outside [0, 1]")
    if not 0.632 <= w <= 1.0:
        f.append(f"0.632+ w = {w} outside [0.632, 1]")
    _close(f, "0.632+ w = 0.632 / (1 - 0.368 R)", w,
           0.632 / (1.0 - 0.368 * r), half_unit(w) + 0.6 * half_unit(r))
    _close(f, "0.632+ corrected = (1 - w) apparent + w theta_out",
           c["corrected"], (1.0 - w) * app + w * t,
           half_unit(c["corrected"]) + (1.0 - w) * half_unit(app)
           + w * half_unit(t) + abs(app - t) * half_unit(w))

    rows = {(i["method"], i.get("correction")): i
            for i in report["intervals"]}
    a = rows.get(("apparent", None))
    if a is None:
        return f + ["no apparent interval"]
    if rows.get(("delong", None), {}).get("point") != app:
        f.append("DeLong interval missing or not centred on apparent")
    for name in CORRECTIONS:
        ls = rows.get(("location-shift", name))
        if ls is None:
            f.append(f"no location-shift:{name} interval")
            continue
        o = corr[name]["optimism"]
        if ls["point"] != corr[name]["corrected"]:
            f.append(f"location-shift:{name} point != corrected")
        _close(f, f"location-shift:{name} shift = optimism", ls["shift"],
               o, half_unit(ls["shift"]) + half_unit(o))
        for end in ("lower", "upper"):
            _close(f, f"location-shift:{name} {end} = apparent {end} - "
                   "optimism", ls[end], a[end] - o,
                   half_unit(ls[end]) + half_unit(a[end]) + half_unit(o))
        _close(f, f"location-shift:{name} width = apparent width",
               ls["upper"] - ls["lower"], a["upper"] - a["lower"],
               half_unit(ls["upper"]) + half_unit(ls["lower"])
               + half_unit(a["upper"]) + half_unit(a["lower"]))
    for name in CORRECTIONS:
        ts = rows.get(("two-stage", name))
        if not two_stage:
            if ts is not None:
                f.append(f"unrequested two-stage:{name} interval")
            continue
        if ts is None:
            f.append(f"no two-stage:{name} interval")
            continue
        if (ts["B_outer"], ts["B_inner"], ts["n_valid"]) != (B, inner_B, B):
            f.append(f"two-stage:{name} B_outer/B_inner/n_valid "
                     f"{ts['B_outer']}/{ts['B_inner']}/{ts['n_valid']}, "
                     f"expected {B}/{inner_B}/{B}")
        if ts["point"] != corr[name]["corrected"]:
            f.append(f"two-stage:{name} point != corrected")
        if not ts["lower"] < ts["upper"]:
            f.append(f"two-stage:{name} interval empty")
    return f


def check_against_reference(report: dict, y: np.ndarray,
                            x: np.ndarray) -> list[str]:
    """The ML apparent C-statistic and DeLong interval, recomputed with a
    NumPy Newton fit and pair counting."""
    f: list[str] = []
    beta = newton_logistic(y, x)
    auc, lower, upper = pair_count_delong(beta[0] + x @ beta[1:], y,
                                          report["config"]["alpha"])
    _close(f, "apparent vs pair-count AUC", report["apparent"], auc,
           half_unit(auc))
    d = [i for i in report["intervals"] if i["method"] == "delong"][0]
    _close(f, "DeLong lower vs reference", d["lower"], lower,
           half_unit(lower))
    _close(f, "DeLong upper vs reference", d["upper"], upper,
           half_unit(upper))
    return f


def reference_true_auc(coverage_csv, scenario: int) -> float:
    with open(coverage_csv, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if int(row["scenario"]) == scenario:
                return float(row["true_auc"])
    raise LookupError(f"scenario {scenario} not in {coverage_csv}")


def auc_standard_error(auc: float, n_events: float, n_nonevents: float):
    """Hanley and McNeil's (1982) standard error of an AUC estimate."""
    q1 = auc / (2.0 - auc)
    q2 = 2.0 * auc * auc / (1.0 + auc)
    var = (auc * (1.0 - auc) + (n_events - 1.0) * (q1 - auc * auc)
           + (n_nonevents - 1.0) * (q2 - auc * auc)) / (n_events
                                                         * n_nonevents)
    return math.sqrt(var)


def check_simulate(result: dict, replications: int, estimand_n: int,
                   event_rate: float, reference_auc: float) -> list[str]:
    """Properties of a one-scenario `simulate` JSON report."""
    f: list[str] = []
    rows = {r["method"]: r for r in result["results"]}
    expected = ("delong", "apparent", "location-shift:harrell",
                "two-stage:harrell")
    if sorted(rows) != sorted(expected):
        return [f"methods {sorted(rows)}"]
    for name, r in rows.items():
        if r["replications"] + r["failures"] != replications:
            f.append(f"{name}: {r['replications']} + {r['failures']} "
                     f"!= {replications}")
        if r["failures"] != 0:
            f.append(f"{name}: {r['failures']} failed replications")
        if not 0.0 <= r["coverage"] <= 1.0:
            f.append(f"{name}: coverage {r['coverage']}")
    # the location-shifted interval is the apparent one translated; the
    # report rounds mean widths to 6 decimals
    _close(f, "location-shift:harrell width = apparent width",
           rows["location-shift:harrell"]["mean_width"],
           rows["apparent"]["mean_width"], 1e-6)
    if not rows["two-stage:harrell"]["mean_width"] > 0.0:
        f.append("two-stage:harrell mean width not above 0")
    true_auc = rows["delong"]["true_auc"]
    # both estimands are estimated on estimand_n rows; allow 5 standard
    # errors of their difference
    se = auc_standard_error(reference_auc, event_rate * estimand_n,
                            (1.0 - event_rate) * estimand_n)
    _close(f, "true_auc vs results/coverage_smoke.csv", true_auc,
           reference_auc, 5.0 * math.sqrt(2.0) * se)
    return f
