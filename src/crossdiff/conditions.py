"""Admissibility and regularity inequalities for the coupled system.

Every check returns :class:`ConditionReport` rows (name, lhs, rhs, margin,
pass) so parameter studies can be dumped straight to CSV.  The module covers

* the existence bound on the coupling ratios (per species pair),
* Meyers-type constants and the contraction factor k(r) of the perturbed
  heat operator, in both the symmetric and shifted non-symmetric variants,
* the gradient-integrability upgrade condition built from those constants,
* the De Giorgi level-set iteration budget (critical exponents, per-species
  constant, and the admissible space-time volume), and
* the sharp-interface aquifer admissibility window for the density contrast.

All functions are pure; nothing here touches a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import InvalidParameterError, ModelSpec, ellipticity_bounds
from .table import csv_table


@dataclass(frozen=True)
class ConditionReport:
    """Single inequality lhs < rhs with margin = rhs - lhs; pass iff margin > 0."""

    name: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin > 0.0



def reports_to_csv(reports: list[ConditionReport]) -> str:
    return csv_table(["name", "lhs", "rhs", "margin", "pass"], [
        [r.name for r in reports],
        *([float(getattr(r, f)) for r in reports] for f in ("lhs", "rhs", "margin")),
        [r.passed for r in reports],
    ])


# ---------------------------------------------------------------------------
# existence bound on coupling ratios
# ---------------------------------------------------------------------------

def check_existence(spec: ModelSpec) -> list[ConditionReport]:
    """Existence bounds (K_ij+)^2 / K_ii- < 4 delta_j / ell for the two pairs.

    Requires m = 2.  With ell = 0 the right-hand sides are infinite (the
    coupling is truncated away entirely).
    """
    if spec.m != 2:
        raise InvalidParameterError("existence check is formulated for two species")
    k12_plus = ellipticity_bounds(spec.K[0][1])[1]
    k21_plus = ellipticity_bounds(spec.K[1][0])[1]
    k11_minus = ellipticity_bounds(spec.K[0][0])[0]
    k22_minus = ellipticity_bounds(spec.K[1][1])[0]
    rhs1 = math.inf if spec.ell == 0.0 else 4.0 * spec.delta[1] / spec.ell
    rhs2 = math.inf if spec.ell == 0.0 else 4.0 * spec.delta[0] / spec.ell
    return [
        ConditionReport("existence_12", k12_plus ** 2 / k11_minus, rhs1),
        ConditionReport("existence_21", k21_plus ** 2 / k22_minus, rhs2),
    ]


# ---------------------------------------------------------------------------
# Meyers constants and contraction factor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeyersConstants:
    """Coercivity/boundedness data (alpha, beta, c) with mu, nu derived.

    Symmetric operators take c = nu = 0 and mu = alpha/beta; otherwise the
    shift c must exceed (beta^2 - alpha^2) / (2 alpha) strictly.
    """

    alpha: float
    beta: float
    c: float
    mu: float
    nu: float
    symmetric: bool

    def __post_init__(self):
        if not 0.0 < self.alpha <= self.beta:
            raise InvalidParameterError(f"need 0 < alpha <= beta, got ({self.alpha}, {self.beta})")
        if self.symmetric:
            if self.c != 0.0 or self.nu != 0.0:
                raise InvalidParameterError("symmetric constants require c = nu = 0")
        else:
            threshold = (self.beta ** 2 - self.alpha ** 2) / (2.0 * self.alpha)
            if not self.c > threshold:
                raise InvalidParameterError(
                    f"shift c = {self.c} must exceed {threshold} strictly")
        if not 0.0 < self.mu <= 1.0 or (1.0 - self.mu + self.nu) < 0.0:
            raise InvalidParameterError("derived constants out of range")


def meyers_constants(alpha: float, beta: float, symmetric: bool,
                     g_r: float = 1.0) -> tuple[MeyersConstants, float]:
    """Constants (mu, nu, c) and the contraction factor k(r) = g(r) (1 - mu + nu).

    Symmetric case: mu = alpha/beta, nu = c = 0.  Non-symmetric case: the
    shift is placed 0.1*alpha above its strict threshold (the threshold
    itself gives mu = nu exactly), then mu = (alpha + c)/(beta + c) and
    nu = sqrt(beta^2 + c^2)/(beta + c).  The operator inversion behind the
    gradient upgrade is available iff k(r) < 1.
    """
    if not alpha > 0.0 or beta < alpha:
        raise InvalidParameterError(f"need 0 < alpha <= beta, got ({alpha}, {beta})")
    if g_r < 1.0:
        raise InvalidParameterError(f"g_r must be >= 1, got {g_r}")
    if symmetric:
        consts = MeyersConstants(alpha, beta, 0.0, alpha / beta, 0.0, True)
    else:
        c = (beta ** 2 - alpha ** 2) / (2.0 * alpha) + 0.1 * alpha
        mu, nu = (alpha + c) / (beta + c), math.sqrt(beta ** 2 + c ** 2) / (beta + c)
        consts = MeyersConstants(alpha, beta, c, mu, nu, False)
    k_r = g_r * (1.0 - consts.mu + consts.nu)
    return consts, k_r


def check_regularity(spec: ModelSpec) -> list[ConditionReport]:
    """Gradient-integrability upgrade condition for each species.

    With alpha_i = delta_i and beta_i = delta_i + ell * K_ii+, the condition
    reads K_ij+ < (beta_i + c_i)(mu_i - nu_i) / (2 ell) for j != i, with
    (c_i, mu_i, nu_i) from :func:`meyers_constants` for a symmetric or a
    non-symmetric K_ii.  When delta_i <= 0 (no constants exist) or mu_i - nu_i
    is not positive no bound holds, and the report is the infeasible sentinel
    lhs = inf.
    """
    if spec.m != 2:
        raise InvalidParameterError("regularity check is formulated for two species")
    if spec.ell <= 0.0:
        raise InvalidParameterError("regularity check needs a positive truncation level")
    reports = []
    for i in range(2):
        j = 1 - i
        kij_plus = ellipticity_bounds(spec.K[i][j])[1]
        alpha_i = spec.delta[i]
        beta_i = alpha_i + spec.ell * ellipticity_bounds(spec.K[i][i])[1]
        name = f"regularity_{i + 1}{j + 1}"
        gap = 0.0
        if alpha_i > 0.0:
            consts, _ = meyers_constants(alpha_i, beta_i, spec.K[i][i].is_symmetric())
            gap = consts.mu - consts.nu
        if gap <= 0.0:
            reports.append(ConditionReport(name, math.inf, kij_plus))
        else:
            reports.append(ConditionReport(name, kij_plus,
                                           (beta_i + consts.c) * gap / (2.0 * spec.ell)))
    return reports


# ---------------------------------------------------------------------------
# level-set iteration budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeGiorgiBudget:
    """Exponents and constants controlling the level-set iteration.

    ``r = q = N + 2`` and ``zeta = r (s - 2) / (2 s) - 1`` must be positive
    for the iteration to contract; ``max_TOmega`` is the largest admissible
    space-time volume T * |Omega| for the bound m_factor * ell0 to hold.
    Infeasible budgets carry ``max_TOmega = nan``.
    """

    N: int
    s: float
    r: float
    q: float
    zeta: float
    ell0: float
    m_factor: float
    c_i: float
    sobolev_beta: float
    max_TOmega: float

    @property
    def feasible(self) -> bool:
        return self.zeta > 0.0


def degiorgi_budget(N: int, s: float, ell0: float, m_factor: float, M_s: float,
                    K_offdiag_plus: float, K_diag_minus: float, delta_i: float,
                    ell: float, sobolev_beta: float) -> DeGiorgiBudget:
    """Evaluate the level-set iteration budget for one species.

    The per-species constant uses the largest iteration level k = m_factor *
    ell0 (conservative) through min(k, ell):

        C_i = sqrt(2 K_offdiag+ min(k, ell)) * M_s
              / min(1, sqrt(delta_i + K_diag- min(k, ell)))

    and, when zeta > 0, the admissible space-time volume is

        max_TOmega = [ (m-1)^r m^(r/zeta) 2^(-r (1/zeta + 1/zeta^2))
                       (C_i beta)^(r (1/zeta - 1)) ell0^(r (1 + 1/zeta)) ]^(1/(1+zeta)).
    """
    if N not in (1, 2, 3):
        raise InvalidParameterError(f"dimension must be 1, 2 or 3, got {N}")
    if not s > 2.0:
        raise InvalidParameterError(f"regularity exponent must exceed 2, got {s}")
    if not m_factor > 1.0:
        raise InvalidParameterError(f"bound factor must exceed 1, got {m_factor}")
    for nm, val in (("ell0", ell0), ("M_s", M_s), ("K_offdiag_plus", K_offdiag_plus),
                    ("K_diag_minus", K_diag_minus), ("delta_i", delta_i), ("ell", ell),
                    ("sobolev_beta", sobolev_beta)):
        if not val > 0.0:
            raise InvalidParameterError(f"{nm} must be positive, got {val}")

    r = float(N + 2)
    zeta = r * (s - 2.0) / (2.0 * s) - 1.0
    level = min(m_factor * ell0, ell)
    c_i = math.sqrt(2.0 * K_offdiag_plus * level) * M_s / min(
        1.0, math.sqrt(delta_i + K_diag_minus * level))
    if zeta <= 0.0:
        max_tomega = math.nan
    else:
        m = m_factor
        rhs = ((m - 1.0) ** r * m ** (r / zeta)
               * 2.0 ** (-r * (1.0 / zeta + 1.0 / zeta ** 2))
               * (c_i * sobolev_beta) ** (r * (1.0 / zeta - 1.0))
               * ell0 ** (r * (1.0 + 1.0 / zeta)))
        max_tomega = rhs ** (1.0 / (1.0 + zeta))
    return DeGiorgiBudget(N, float(s), r, r, zeta, float(ell0), float(m_factor),
                          c_i, float(sobolev_beta), max_tomega)


# ---------------------------------------------------------------------------
# aquifer admissibility
# ---------------------------------------------------------------------------

def check_aquifer_admissibility(h2: float, delta: float, alpha: float) -> ConditionReport:
    """Density-contrast window 1 - 4 delta / h2 < alpha <= 1.

    When alpha <= 1 the report carries lhs = 1 - 4 delta / h2 and rhs = alpha;
    when alpha > 1 the report is the failed cap expressed as lhs = alpha,
    rhs = 1 (so pass iff margin > 0 holds in both regimes).
    """
    if not h2 > 0.0:
        raise InvalidParameterError(f"total depth must be positive, got {h2}")
    if not delta > 0.0:
        raise InvalidParameterError(f"regularization diffusivity must be positive, got {delta}")
    if alpha <= 1.0:
        return ConditionReport("aquifer_admissibility", 1.0 - 4.0 * delta / h2, alpha)
    return ConditionReport("aquifer_admissibility", alpha, 1.0)
