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

Bound evaluators drop the o(1/n) remainder terms; reports record that.
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


def _binary_kl(p: float, q: float) -> float:
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


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
    ``diagnostics``.  It includes the label prior's KL(pi || fitted
    balance), which is 0 when the fitted balance is the model's.  The loss
    the terms must sum to stays enumerated
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
    true_pos, true_neg = (1.0 + acc) / 2.0, (1.0 - acc) / 2.0
    p = model.class_balance()
    est = _binary_kl(p, fitted.class_balance)
    for i in range(model.m):
        est += p * _binary_kl(true_pos[i], float(fitted.cond_pos[i]))
        est += (1.0 - p) * _binary_kl(true_neg[i], float(fitted.cond_neg[i]))
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


def accuracy_excess(
    true_accuracies: np.ndarray, inference_bias: float, estimates: np.ndarray
) -> np.ndarray:
    """Excess loss of symmetric accuracy fits under an exact-denominator model.

    Equals the enumerated expected loss minus H(Y|sources) for a LabelModel
    built from the estimates in empirical mode with the true configuration
    marginal as the denominator, by the decomposition identity (noise term
    is then zero):

        excess = inference_bias + sum_i E_Y KL(true cond_i || fitted cond_i).

    ``estimates`` may be a batch with shape (..., m); estimates are clamped
    exactly as LabelModel does before the KL.  The per-source terms are
    summed as the rows of a 2-d array, so a batch row scores bit for bit as
    the same estimate alone.
    """
    a = np.asarray(true_accuracies, dtype=np.float64)
    est = np.clip(
        np.asarray(estimates, dtype=np.float64),
        -1.0 + ACCURACY_CLAMP,
        1.0 - ACCURACY_CLAMP,
    )
    tp, tq = (1.0 + a) / 2.0, (1.0 - a) / 2.0
    fp, fq = (1.0 + est) / 2.0, (1.0 - est) / 2.0
    kl = tp * (np.log(tp) - np.log(fp)) + tq * (np.log(tq) - np.log(fq))
    return inference_bias + kl.reshape(-1, kl.shape[-1]).sum(axis=1).reshape(kl.shape[:-1])


# ---------------------------------------------------------------------------
# Bound evaluators
# ---------------------------------------------------------------------------


def _require_bound_inputs(diag: ModelDiagnostics) -> tuple[float, float, float]:
    b = diag.min_pair_moment
    a_min = diag.min_accuracy
    a_bar = diag.max_mean_triplet
    if not (b > 0.0 and a_min > 0.0):
        raise NumericalError("bound constants require strictly positive moments")
    if not a_bar < 1.0:
        raise NumericalError(
            "degenerate bound constants: the mean triplet value reaches 1"
        )
    return b, a_min, a_bar


def bound_constants(diag: ModelDiagnostics) -> dict:
    """The four source-quality constants of the unlabeled excess-error bound."""
    b, a_min, a_bar = _require_bound_inputs(diag)
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


def bound_unlabeled(
    diag: ModelDiagnostics, n_unlabeled: int, d: int | None = None
) -> dict:
    """Upper bound on unlabeled-fit excess, with its constants and components.

    Returns a dict with c1..c4, the misspecification component ``B_est``,
    and the total bound.  The o(1/n) remainder is dropped.
    """
    if n_unlabeled < 1:
        raise ContractError("sample size must be at least 1")
    if d is None:
        d = diag.edge_count
    consts = bound_constants(diag)
    eps_max = diag.gap_max
    m, n = diag.m, n_unlabeled
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


def bound_lower_unlabeled(diag: ModelDiagnostics, d: int | None = None) -> float:
    """Asymptotic lower bound on uncorrected unlabeled-fit excess."""
    if d is None:
        d = diag.edge_count
    if d < 0:
        raise ContractError("d must be nonnegative")
    if d == 0:
        return diag.inference_bias
    m = diag.m
    eps_min = diag.gap_min
    b4 = diag.min_pair_moment**4
    first = ((m - 2 * d) * d * d * eps_min * eps_min * b4) / (
        2.0 * (m - 1) ** 2 * (m - 2) ** 2
    )
    return first + diag.inference_bias


def median_correction_constant(diag: ModelDiagnostics) -> float:
    """c_rho = 1 / (2 (1 - max_i a_i^2)) from the corrected-fit bound."""
    return 1.0 / (2.0 * (1.0 - diag.max_accuracy**2))


@dataclass(frozen=True)
class MedianMseResult:
    rho: float                   # max over sources of mean squared error
    bound: float                 # c_rho * m * rho + inference bias
    c_rho: float
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
    c_rho = median_correction_constant(diag)
    applicable = m > 5 and model.edge_count < (m - 1) * (m - 2) / 4.0
    return MedianMseResult(
        rho=rho,
        bound=c_rho * m * rho + diag.inference_bias,
        c_rho=c_rho,
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
    d: int | None = None,
    rho: MedianMseResult | None = None,
) -> dict:
    """All bound quantities in one JSON-ready dict (paper-symbol field names).

    A Monte-Carlo ``rho`` is recorded with the number of fits it scored and
    of fits that failed.
    """
    if d is None:
        d = diag.edge_count
    out: dict = {
        "inputs": {
            "m": diag.m,
            "d": d,
            "n_U": n_unlabeled,
            "n_L": n_labeled,
            "eps_max": diag.gap_max,
            "eps_min": diag.gap_min,
            "a_min": diag.min_accuracy,
            "b_min": diag.min_pair_moment,
            "a_bar_max": diag.max_mean_triplet,
            "rho": rho.rho if rho is not None else None,
        },
        "B_I": diag.inference_bias,
        "c_rho": median_correction_constant(diag),
        "lower_bound_unlabeled": bound_lower_unlabeled(diag, d),
        "o_terms_dropped": True,
    }
    if rho is not None:
        out["inputs"].update(rho_trials=rho.trials, rho_failures=rho.failures)
    out.update(bound_constants(diag))
    if n_labeled is not None:
        out["R_L_bound"] = bound_labeled(diag, n_labeled)
    if n_unlabeled is not None:
        ub = bound_unlabeled(diag, n_unlabeled, d)
        out["B_est"] = ub["B_est"]
        out["R_U_bound"] = ub["bound"]
        if rho is not None:
            out["R_M_bound"] = rho.bound
    return out
