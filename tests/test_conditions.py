import math

import numpy as np
import pytest

from crossdiff.conditions import (MeyersConstants, check_aquifer_admissibility,
                                  check_existence, check_regularity,
                                  degiorgi_budget, meyers_constants, reports_to_csv)
from crossdiff.model import CrossTensor, InvalidParameterError, ModelSpec


def _spec(k11, k12, k21, k22, delta, ell, ndim=1):
    iso = CrossTensor.isotropic
    return ModelSpec(m=2, delta=delta,
                     K=[[iso(k11, ndim), iso(k12, ndim)], [iso(k21, ndim), iso(k22, ndim)]],
                     ell=ell, domain=(1.0,) * ndim,
                     initial=[0.0, 0.0], dirichlet=[0.0, 0.0])


# ---------------------------------------------------------------------------
# existence bound
# ---------------------------------------------------------------------------

def test_existence_worked_examples():
    r1, _ = check_existence(_spec(2.0, 1.0, 1.0, 1.0, (1.0, 1.0), 4.0))
    assert r1.lhs == 0.5 and r1.rhs == 1.0 and r1.passed

    r1, _ = check_existence(_spec(2.0, 1.0, 1.0, 1.0, (1.0, 1.0), 16.0))
    assert r1.lhs == 0.5 and r1.rhs == 0.25 and not r1.passed

    reports = check_existence(_spec(1.0, 1.0, 1.0, 1.0, (1.0, 1.0), 1.0))
    assert all(r.lhs == 1.0 and r.rhs == 4.0 and r.passed for r in reports)


def test_existence_zero_level_trivially_passes():
    reports = check_existence(_spec(1.0, 5.0, 5.0, 1.0, (0.1, 0.1), 0.0))
    assert all(r.passed and math.isinf(r.rhs) for r in reports)


def test_existence_scaling_invariance():
    # rescaling the species amplitude (K -> c K, ell -> ell / c) leaves the
    # model and therefore each verdict unchanged; both report sides scale by c
    base = dict(k11=2.0, k12=1.5, k21=0.5, k22=1.0, delta=(0.7, 1.3))
    for ell in (1.0, 6.0):
        verdicts = {}
        for c in (0.1, 1.0, 10.0):
            spec = _spec(c * base["k11"], c * base["k12"], c * base["k21"],
                         c * base["k22"], base["delta"], ell / c)
            verdicts[c] = [r.passed for r in check_existence(spec)]
        assert verdicts[0.1] == verdicts[1.0] == verdicts[10.0]


# ---------------------------------------------------------------------------
# perturbed-heat-operator constants
# ---------------------------------------------------------------------------

def test_meyers_symmetric_identity_case():
    consts, k_r = meyers_constants(1.0, 1.0, symmetric=True, g_r=1.0)
    assert consts.mu == 1.0 and consts.nu == 0.0 and consts.c == 0.0
    assert k_r == 0.0


def test_meyers_symmetric_half():
    consts, k_r = meyers_constants(1.0, 2.0, symmetric=True, g_r=1.0)
    assert consts.mu == 0.5
    assert k_r == 0.5


def test_meyers_nonsymmetric_worked_example():
    consts, k_r = meyers_constants(1.0, 2.0, symmetric=False, g_r=1.0)
    # independent recomputation of the shifted constants
    c = (2.0 ** 2 - 1.0 ** 2) / (2.0 * 1.0) + 0.1 * 1.0
    mu = (1.0 + c) / (2.0 + c)
    nu = math.sqrt(2.0 ** 2 + c ** 2) / (2.0 + c)
    assert consts.c == c == 1.6
    assert consts.mu == mu
    assert consts.nu == nu
    assert k_r == 1.0 - mu + nu
    assert consts.mu == pytest.approx(0.7222, abs=1e-4)
    assert consts.nu == pytest.approx(0.7115, abs=1e-4)
    assert k_r == pytest.approx(0.9892, abs=1e-4)


def test_meyers_contraction_monotone_in_coercivity():
    betas = 2.0
    ks = [meyers_constants(a, betas, symmetric=True, g_r=1.2)[1]
          for a in np.linspace(0.2, 2.0, 12)]
    assert all(b <= a + 1e-15 for a, b in zip(ks, ks[1:]))
    assert meyers_constants(2.0, 2.0, symmetric=True, g_r=1.2)[1] == 0.0


def test_meyers_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        meyers_constants(0.0, 1.0, True)
    with pytest.raises(InvalidParameterError):
        meyers_constants(2.0, 1.0, True)
    with pytest.raises(InvalidParameterError):
        meyers_constants(1.0, 2.0, True, g_r=0.5)


def test_meyers_constants_invariants_enforced():
    with pytest.raises(InvalidParameterError):
        MeyersConstants(alpha=1.0, beta=2.0, c=1.0, mu=0.6, nu=0.7, symmetric=False)
    with pytest.raises(InvalidParameterError):
        MeyersConstants(alpha=1.0, beta=2.0, c=0.5, mu=0.5, nu=0.1, symmetric=True)


# ---------------------------------------------------------------------------
# gradient-integrability upgrade condition
# ---------------------------------------------------------------------------

def test_regularity_worked_example_pass():
    spec = _spec(1.0, 0.25, 0.25, 1.0, (1.0, 1.0), 1.0)
    reports = check_regularity(spec)
    for r in reports:
        assert r.rhs == 0.5
        assert r.lhs == 0.25
        assert r.passed


def test_regularity_worked_example_fail():
    spec = _spec(1.0, 0.75, 0.75, 1.0, (1.0, 1.0), 1.0)
    for r in check_regularity(spec):
        assert r.lhs == 0.75 and r.rhs == 0.5 and not r.passed


def test_regularity_nonsymmetric_diagonal_tensor_takes_the_meyers_shift():
    # K_11 has the symmetric part I, so K_11+ = 1: alpha = 1, beta = 2, and the shift
    # c = (beta^2 - alpha^2) / (2 alpha) + 0.1 alpha = 1.6 gives
    # (beta + c)(mu - nu) / (2 ell) = (alpha + c - sqrt(beta^2 + c^2)) / 2
    k11 = CrossTensor(((1.0, 0.4), (-0.4, 1.0)))
    iso = CrossTensor.isotropic
    spec = ModelSpec(m=2, delta=(1.0, 1.0), K=[[k11, iso(0.01, 2)], [iso(0.25, 2), iso(1.0, 2)]],
                     ell=1.0, domain=(1.0, 1.0), initial=[0.0, 0.0], dirichlet=[0.0, 0.0])
    shifted, symmetric = check_regularity(spec)
    assert shifted.lhs == 0.01
    assert shifted.rhs == pytest.approx((2.6 - math.sqrt(6.56)) / 2.0, rel=1e-14)
    assert shifted.passed
    # the symmetric K_22 takes no shift, as in the worked example
    assert (symmetric.lhs, symmetric.rhs) == (0.25, 0.5)


def test_regularity_infeasible_without_diffusivity():
    # delta_i = 0 leaves no Meyers constants (alpha_i = 0), so no bound holds, for a
    # symmetric and for a non-symmetric K_ii alike
    iso = CrossTensor.isotropic
    for kii in (CrossTensor(((1.0, 0.3), (0.3, 1.0))), CrossTensor(((1.0, 0.4), (-0.4, 1.0)))):
        spec = ModelSpec(m=2, delta=(0.0, 1.0),
                         K=[[kii, iso(0.2, 2)], [iso(0.2, 2), kii]],
                         ell=1.0, domain=(1.0, 1.0), initial=[0.0, 0.0], dirichlet=[0.0, 0.0])
        infeasible, feasible = check_regularity(spec)
        assert infeasible.name == "regularity_12" and not infeasible.passed
        assert math.isinf(infeasible.lhs) and infeasible.rhs == 0.2
        assert infeasible.margin == -math.inf
        assert feasible.name == "regularity_21" and math.isfinite(feasible.lhs)


# ---------------------------------------------------------------------------
# level-set iteration budget
# ---------------------------------------------------------------------------

def test_budget_boundary_exponent_infeasible():
    budget = degiorgi_budget(N=2, s=4.0, ell0=1.0, m_factor=2.0, M_s=1.0,
                             K_offdiag_plus=1.0, K_diag_minus=1.0, delta_i=1.0,
                             ell=1.0, sobolev_beta=1.0)
    assert budget.r == 4.0 and budget.q == 4.0
    assert budget.zeta == 0.0
    assert not budget.feasible
    assert math.isnan(budget.max_TOmega)


def test_budget_unit_constant():
    budget = degiorgi_budget(N=2, s=6.0, ell0=1.0, m_factor=2.0, M_s=1.0,
                             K_offdiag_plus=1.0, K_diag_minus=1.0, delta_i=1.0,
                             ell=1.0, sobolev_beta=1.0)
    assert budget.c_i == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_budget_worked_admissible_volume():
    # inputs arranged so the per-species constant and the interpolation
    # constant are both 1; the admissible volume is then exactly 2^-27
    budget = degiorgi_budget(N=2, s=6.0, ell0=1.0, m_factor=2.0, M_s=1.0,
                             K_offdiag_plus=0.5, K_diag_minus=1.0, delta_i=1.0,
                             ell=1.0, sobolev_beta=1.0)
    assert budget.zeta == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert budget.c_i == 1.0
    assert budget.max_TOmega == pytest.approx(2.0 ** -27, rel=1e-12)


def test_budget_monotone_in_bound_and_factor():
    def volume(ell0, m_factor):
        return degiorgi_budget(N=2, s=6.0, ell0=ell0, m_factor=m_factor, M_s=1.0,
                               K_offdiag_plus=0.5, K_diag_minus=1.0, delta_i=1.0,
                               ell=100.0, sobolev_beta=1.0).max_TOmega

    for m_factor in (1.5, 2.0, 3.0):
        vols = [volume(e, m_factor) for e in (0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(vols, vols[1:]))
    for ell0 in (0.5, 1.0, 2.0):
        vols = [volume(ell0, m) for m in (1.5, 2.0, 3.0)]
        assert all(b > a for a, b in zip(vols, vols[1:]))


def test_budget_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        degiorgi_budget(2, 2.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        degiorgi_budget(2, 6.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        degiorgi_budget(2, 6.0, -1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# aquifer admissibility window
# ---------------------------------------------------------------------------

def test_admissibility_examples():
    r = check_aquifer_admissibility(1.0, 0.3, 0.025)
    assert r.lhs == pytest.approx(-0.2, abs=1e-15) and r.passed

    r = check_aquifer_admissibility(1.0, 0.1, 0.025)
    assert r.lhs == pytest.approx(0.6) and not r.passed

    r = check_aquifer_admissibility(1.0, 0.3, 1.5)
    assert not r.passed

    assert check_aquifer_admissibility(1.0, 0.3, 1.0).passed


def test_admissibility_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        check_aquifer_admissibility(0.0, 0.3, 0.5)
    with pytest.raises(InvalidParameterError):
        check_aquifer_admissibility(1.0, -0.3, 0.5)


# ---------------------------------------------------------------------------
# report contract
# ---------------------------------------------------------------------------

def test_reports_pass_iff_positive_margin():
    reports = (check_existence(_spec(2.0, 1.0, 1.0, 1.0, (1.0, 1.0), 16.0))
               + check_regularity(_spec(1.0, 0.75, 0.75, 1.0, (1.0, 1.0), 1.0))
               + [check_aquifer_admissibility(1.0, 0.3, 1.5)])
    for r in reports:
        assert r.passed == (r.margin > 0.0)
        assert r.margin == r.rhs - r.lhs or math.isnan(r.margin)


def test_reports_csv_round():
    text = reports_to_csv(check_existence(_spec(1.0, 1.0, 1.0, 1.0, (1.0, 1.0), 1.0)))
    lines = text.strip().split("\n")
    assert lines[0] == "name,lhs,rhs,margin,pass"
    assert lines[1].startswith("existence_12,1.0,4.0,3.0,True")
