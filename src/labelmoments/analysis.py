"""Exact error decomposition and theoretical bound evaluation.

For a fitted empirical-denominator label model and an enumerable ground
truth, the expected cross-entropy loss splits exactly into four terms:

    loss = irreducible - sampling_noise + inference_bias + estimation_error

* irreducible: H(Y | sources) of the ground truth;
* sampling_noise: KL(true config marginal || fitted config distribution);
* inference_bias: the sum over dependency edges of I(s_i; s_j | Y), the
  cost of product-form inference that no amount of data removes;
* estimation_error: the per-source expected KL between true and fitted
  source-given-label conditionals.

The identity is algebraic, holds per fitted model (no expectation over
datasets needed), and requires only that the fitted configuration
distribution has full support.  It doubles as the package's central
correctness oracle: every term is computed by a different route and the
residual against an independently enumerated expected loss must vanish.

The per-source KL has one implementation, ``vote_kl``: the estimation term
and the trial engine's excess scoring (``accuracy_kl``) both run through it.

Bound evaluators drop the o(1/n) remainder terms; reports record that.  They
read the source-quality constants a_min, a_max, b_min, a_bar_max, eps_min and
eps_max from one function, ``bound_inputs``, which derives them from the
exact moments of ``ising.diagnostics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, EstimationError, IdentityUndefinedError, NumericalError
from .ising import (
    IsingModel,
    ModelDiagnostics,
    conditional_entropy,
    diagnostics,
    inference_bias,
    sample_state_counts,  # noqa: F401  (perfbench/tracer.py wraps this name)
)
from .estimators import estimate_triplet_from_moments  # noqa: F401  (perfbench/tracer.py wraps this name)
from .estimators import triplet_census
from .label_model import ACCURACY_CLAMP, LabelModel
from .manifest import write_json


# ---------------------------------------------------------------------------
# Exact decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionReport:
    irreducible: float
    sampling_noise: float
    inference_bias: float
    estimation_error: float
    total: float
    expected_loss: float
    residual: float

    def to_dict(self) -> dict:
        return {
            "H_cond": self.irreducible,
            "noise": self.sampling_noise,
            "B_I": self.inference_bias,
            "param_est_error": self.estimation_error,
            "total": self.total,
            "independent_loss": self.expected_loss,
            "residual": self.residual,
        }

    def to_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


def expected_loss_by_enumeration(model: IsingModel, fitted: LabelModel) -> float:
    """E over the true joint of the cross-entropy loss, no probability floor."""
    if fitted.m != model.m:
        raise ContractError("fitted model and ground truth disagree on m")
    lp_pos, lp_neg = fitted.log_posterior_table()
    blocks = model.joint.reshape(2, -1)  # row 0: Y=-1, row 1: Y=+1
    return float(-((blocks[1] * lp_pos).sum() + (blocks[0] * lp_neg).sum()))


def decompose(model: IsingModel, fitted: LabelModel) -> DecompositionReport:
    """Exact four-term decomposition of the fitted model's expected loss.

    Requires empirical-denominator mode with a full-support configuration
    distribution.  The entropy and sampling-noise terms are enumerated over
    the joint table and B_I is summed over the edges.  The estimation term
    is closed form: u_i = s_i * y is independent of Y, so the true
    Pr(s_i = 1 | Y = +-1) is (1 +- a_i) / 2 with a_i the exact accuracy from
    ``diagnostics``.  It is the label prior's KL(pi || fitted balance), 0
    when the fitted balance is the model's, plus each source's KL given
    Y = +1 and given Y = -1 weighted by pi and 1 - pi, all through
    ``vote_kl``.  The loss the terms must sum to stays enumerated
    (``expected_loss_by_enumeration``), so it checks them by another route.
    """
    if fitted.mode != "empirical":
        raise ContractError("the decomposition applies to empirical-denominator mode")
    if fitted.m != model.m:
        raise ContractError("fitted model and ground truth disagree on m")
    if np.any(fitted.config_dist <= 0.0):
        raise IdentityUndefinedError(
            "fitted configuration distribution has zero-mass patterns; "
            "both sides of the identity are infinite"
        )
    h_cond = conditional_entropy(model)
    p_lambda = model.lambda_marginal()
    noise = float((p_lambda * (np.log(p_lambda) - np.log(fitted.config_dist))).sum())
    bias = inference_bias(model)
    acc = diagnostics(model).accuracies
    p, q = model.class_balance(), fitted.class_balance
    true = np.stack(((1.0 + acc) / 2.0, (1.0 - acc) / 2.0))  # Pr(s_i = 1 | Y = +1), given Y = -1
    fit = np.stack((fitted.cond_pos, fitted.cond_neg))
    per_class = vote_kl(true, fit, 1.0 - true, 1.0 - fit).sum(axis=1)
    est = float(vote_kl(p, q, 1.0 - p, 1.0 - q) + p * per_class[0] + (1.0 - p) * per_class[1])
    total = h_cond - noise + bias + est
    loss = expected_loss_by_enumeration(model, fitted)
    return DecompositionReport(
        irreducible=h_cond,
        sampling_noise=noise,
        inference_bias=bias,
        estimation_error=est,
        total=total,
        expected_loss=loss,
        residual=abs(total - loss),
    )


# ---------------------------------------------------------------------------
# Fast excess evaluation for accuracy-parameterized fits
# ---------------------------------------------------------------------------


def vote_kl(true_pos, fitted_pos, true_neg, fitted_neg) -> np.ndarray:
    """KL(true || fitted) between distributions of one vote, elementwise:

        t+ (log t+ - log f+) + t- (log t- - log f-),

    with t+- and f+- the true and fitted probabilities of the vote's two
    values.  The one per-source score: ``accuracy_kl`` is its symmetric case
    and ``decompose``'s estimation term its class-conditional one.
    """
    # one value at a time, so that few estimate-sized arrays are alive at once
    kl = true_pos * (np.log(true_pos) - np.log(fitted_pos))
    kl += true_neg * (np.log(true_neg) - np.log(fitted_neg))
    return kl


def accuracy_kl(true_accuracies, estimates) -> np.ndarray:
    """Per-source KL(true cond_i || fitted cond_i) of symmetric accuracy fits.

    Elementwise over the broadcast arrays: source i's true conditionals are
    (1 +- a_i) / 2 and its fitted ones (1 +- est_i) / 2, estimates clamped
    exactly as LabelModel clamps them.
    """
    a = np.asarray(true_accuracies, dtype=np.float64)
    est = np.clip(
        np.asarray(estimates, dtype=np.float64),
        -1.0 + ACCURACY_CLAMP,
        1.0 - ACCURACY_CLAMP,
    )
    fitted_pos, fitted_neg = (1.0 + est) / 2.0, (1.0 - est) / 2.0
    del est  # not kept alive beside the KL's temporaries
    return vote_kl((1.0 + a) / 2.0, fitted_pos, (1.0 - a) / 2.0, fitted_neg)


def accuracy_excess(
    true_accuracies: np.ndarray, inference_bias: float, estimates: np.ndarray
) -> np.ndarray:
    """Excess loss of symmetric accuracy fits under an exact-denominator model.

    Equals the enumerated expected loss minus H(Y|sources) for a LabelModel
    built from the estimates in empirical mode with the true configuration
    marginal as the denominator, by the decomposition identity (noise term
    is then zero):

        excess = inference_bias + sum_i E_Y KL(true cond_i || fitted cond_i).

    ``estimates`` may be a batch with shape (..., m).  The per-source terms
    (``accuracy_kl``) are summed as the rows of a 2-d array, so a batch row
    scores bit for bit as the same estimate alone.
    """
    kl = accuracy_kl(true_accuracies, estimates)
    return inference_bias + kl.reshape(-1, kl.shape[-1]).sum(axis=1).reshape(kl.shape[:-1])


# ---------------------------------------------------------------------------
# Bound evaluators
# ---------------------------------------------------------------------------


def bound_inputs(diag: ModelDiagnostics) -> dict:
    """The source-quality inputs of the bounds, from a model's exact moments.

    eps_max and eps_min are the extreme edge gaps (0 without an edge),
    a_min and a_max the extreme accuracies, b_min the smallest pair moment
    off the diagonal (nan for m < 2) and a_bar_max the largest mean of a
    source's population triplet values, over the census of the triplet
    estimators, which floors tiny denominators as they do (nan for m < 3).
    """
    m, acc, pair = diag.m, diag.accuracies, diag.pair_moments
    gaps = diag.edge_gaps.values()
    return {
        "eps_max": max(gaps, default=0.0),
        "eps_min": min(gaps, default=0.0),
        "a_min": float(acc.min()),
        "a_max": float(acc.max()),
        "b_min": float(pair[~np.eye(m, dtype=bool)].min()) if m > 1 else float("nan"),
        "a_bar_max": float(np.nanmean(triplet_census(pair)[0], axis=1).max()) if m >= 3 else float("nan"),
    }


def bound_constants(diag: ModelDiagnostics) -> dict:
    """The four source-quality constants of the unlabeled excess-error bound."""
    inputs = bound_inputs(diag)
    b, a_min, a_bar = inputs["b_min"], inputs["a_min"], inputs["a_bar_max"]
    if not (b > 0.0 and a_min > 0.0):
        raise NumericalError("bound constants require strictly positive moments")
    if not a_bar < 1.0:
        raise NumericalError(
            "degenerate bound constants: the mean triplet value reaches 1"
        )
    b2, am2 = b * b, a_min * a_min
    slack = 1.0 - a_bar * a_bar
    tail = 1.0 / b2**2 + 2.0 / b2
    c1 = 2.0 / (b2 * am2) * (1.0 + 1.0 / (slack * b2 * am2))
    c2 = math.sqrt(3.0 * (1.0 - b2) / b2 * tail) / (slack * b2 * am2)
    c3 = 3.0 * (1.0 - b2) / (slack**2 * b2**2 * am2) * tail
    c4 = 3.0 * (1.0 - b2) / (8.0 * b2 * slack) * tail
    return {"c1": c1, "c2": c2, "c3": c3, "c4": c4}


def bound_labeled(diag: ModelDiagnostics, n_labeled: int) -> float:
    """Upper bound on labeled-fit excess: m / (2 n) + inference bias."""
    if n_labeled < 1:
        raise ContractError("sample size must be at least 1")
    return diag.m / (2.0 * n_labeled) + diag.inference_bias


def bound_unlabeled(diag: ModelDiagnostics, n_unlabeled: int) -> dict:
    """Upper bound on unlabeled-fit excess, with its constants and components.

        B_est = eps_max (c1 d/m + c2/sqrt(n) + c3 d/(m n)),
        bound = B_est + c4 m/n + B_I,

    with d the model's edge count and eps_max its largest edge gap.  Returns
    a dict with c1..c4, ``B_est``, ``B_I`` and the bound.  The o(1/n)
    remainder is dropped.
    """
    if n_unlabeled < 1:
        raise ContractError("sample size must be at least 1")
    consts = bound_constants(diag)
    eps_max = bound_inputs(diag)["eps_max"]
    m, n, d = diag.m, n_unlabeled, diag.edge_count
    b_est = eps_max * (
        consts["c1"] * d / m
        + consts["c2"] / math.sqrt(n)
        + consts["c3"] * d / (m * n)
    )
    bound = b_est + consts["c4"] * m / n + diag.inference_bias
    return {
        **consts,
        "B_est": b_est,
        "B_I": diag.inference_bias,
        "bound": bound,
        "o_terms_dropped": True,
    }


def bound_lower_unlabeled(diag: ModelDiagnostics) -> float:
    """Asymptotic lower bound on uncorrected unlabeled-fit excess:

        (m - 2d) d^2 eps_min^2 b_min^4 / (2 (m-1)^2 (m-2)^2) + B_I,

    with d the model's edge count and eps_min its smallest edge gap; B_I
    alone when the model has no edge.
    """
    m, d = diag.m, diag.edge_count
    if d == 0:
        return diag.inference_bias
    inputs = bound_inputs(diag)
    eps_min = inputs["eps_min"]
    b4 = inputs["b_min"]**4
    first = ((m - 2 * d) * d * d * eps_min * eps_min * b4) / (
        2.0 * (m - 1) ** 2 * (m - 2) ** 2
    )
    return first + diag.inference_bias


def median_correction_constant(diag: ModelDiagnostics) -> float:
    """c_rho = 1 / (2 (1 - max_i a_i^2)) from the corrected-fit bound."""
    return 1.0 / (2.0 * (1.0 - bound_inputs(diag)["a_max"]**2))


@dataclass(frozen=True)
class MedianMseResult:
    rho: float                   # max over sources of mean squared error
    bound: float                 # c_rho * m * rho + inference bias
    applicable: bool             # consistency conditions m > 5, d < (m-1)(m-2)/4
    n_unlabeled: int
    trials: int                  # fits scored
    per_source_mse: np.ndarray = field(repr=False, default=None)
    failures: int = 0            # fits skipped: some source had no usable triplet


def median_mse(
    model: IsingModel,
    n_unlabeled: int,
    trials: int = 200,
    seed: int = 0,
    diag: ModelDiagnostics | None = None,
) -> MedianMseResult:
    """Monte-Carlo maximum MSE of the median-corrected estimator, plus its bound.

    The fits are the ``triplet-median`` fits of the unlabeled cell at
    n_unlabeled (``TrialEngine.estimates``): the samples that every triplet
    estimator of the excess curves fits, so rho and the curves at
    n_unlabeled share one Monte-Carlo path.  A failed fit is skipped and counted;
    ``EstimationError`` only when every fit fails.  The consistency
    conditions (m > 5, d below a quarter of the triplet count) are
    reported; when violated the MSE is still estimated.
    """
    from .experiments import TrialEngine  # experiments imports this module

    if trials < 30:
        raise ContractError("at least 30 trials required")
    engine = TrialEngine(model, diag)
    diag, m = engine.diag, engine.m
    fits, ok = engine.estimates("triplet-median", n_unlabeled, trials, seed)
    if not ok.any():
        raise EstimationError("every median-corrected fit failed")
    per_source = ((fits[ok] - diag.accuracies) ** 2).mean(axis=0)
    rho = float(per_source.max())
    applicable = m > 5 and model.edge_count < (m - 1) * (m - 2) / 4.0
    return MedianMseResult(
        rho=rho,
        bound=median_correction_constant(diag) * m * rho + diag.inference_bias,
        applicable=applicable,
        n_unlabeled=n_unlabeled,
        trials=int(ok.sum()),
        per_source_mse=per_source,
        failures=trials - int(ok.sum()),
    )


# ---------------------------------------------------------------------------
# Consolidated report
# ---------------------------------------------------------------------------


def bound_report(
    diag: ModelDiagnostics,
    n_labeled: int | None = None,
    n_unlabeled: int | None = None,
    rho: MedianMseResult | None = None,
) -> dict:
    """All bound quantities in one JSON-ready dict (paper-symbol field names).

    The inputs record the model's edge count as d, the one the bounds use.
    A Monte-Carlo ``rho`` is recorded with the number of fits it scored and
    of fits that failed.  Of ``bound_inputs`` it records all but a_max,
    which c_rho stands for.
    """
    inputs = bound_inputs(diag)
    del inputs["a_max"]
    out: dict = {
        "inputs": {
            "m": diag.m,
            "d": diag.edge_count,
            "n_U": n_unlabeled,
            "n_L": n_labeled,
            **inputs,
            "rho": rho.rho if rho is not None else None,
        },
        "B_I": diag.inference_bias,
        "c_rho": median_correction_constant(diag),
        "lower_bound_unlabeled": bound_lower_unlabeled(diag),
        "o_terms_dropped": True,
    }
    if rho is not None:
        out["inputs"].update(rho_trials=rho.trials, rho_failures=rho.failures)
    out.update(bound_constants(diag))
    if n_labeled is not None:
        out["R_L_bound"] = bound_labeled(diag, n_labeled)
    if n_unlabeled is not None:
        ub = bound_unlabeled(diag, n_unlabeled)
        out["B_est"] = ub["B_est"]
        out["R_U_bound"] = ub["bound"]
        if rho is not None:
            out["R_M_bound"] = rho.bound
    return out
