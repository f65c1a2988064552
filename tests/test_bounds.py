from math import comb, isqrt

import pytest

from tnt import (
    binomial_form_check,
    boundary_simplex,
    dataset,
    dehn_sommerville6_residual,
    glbc_bound,
    heawood_bound,
    six_manifold_bound,
    stacked_sphere,
    tight_neighborly_bound,
)
from tnt.bounds import BoundsReport


# -- vertex-count lower bound -----------------------------------------------------


def test_tight_neighborly_bound_table():
    # frozen table, all discriminants perfect squares
    assert tight_neighborly_bound(3, 1) == 9
    assert tight_neighborly_bound(4, 3) == 15
    assert tight_neighborly_bound(13, 2) == 35
    assert tight_neighborly_bound(5, 5) == 21
    assert tight_neighborly_bound(10, 8) == 44


def test_tight_neighborly_bound_zero_beta():
    # degenerate case: the simplex boundary value d+2
    for d in range(3, 12):
        assert tight_neighborly_bound(d, 0) == d + 2


def test_tight_neighborly_bound_is_least_satisfying_f0():
    # the bound is the least n with C(n-d-1, 2) >= C(d+2, 2) * beta1
    for d in range(3, 16):
        for beta1 in range(0, 51):
            n = tight_neighborly_bound(d, beta1)
            need = comb(d + 2, 2) * beta1
            assert comb(n - d - 1, 2) >= need
            if beta1 > 0:
                assert comb(n - 1 - d - 1, 2) < need, (d, beta1, n)


def test_tight_neighborly_bound_validation():
    with pytest.raises(ValueError):
        tight_neighborly_bound(2, 1)
    with pytest.raises(ValueError):
        tight_neighborly_bound(3, -1)


def test_binomial_form_check():
    chk = binomial_form_check(15, 4, 3)
    assert chk.satisfied and chk.equality
    assert chk.lhs == 45 and chk.rhs == 45
    assert bool(chk)
    chk2 = binomial_form_check(14, 4, 3)
    assert not chk2.satisfied
    assert not bool(chk2)


def test_binomial_check_consistent_with_bound():
    for d in range(3, 10):
        for beta1 in range(0, 12):
            n = tight_neighborly_bound(d, beta1)
            assert binomial_form_check(n, d, beta1).satisfied
            if n > d + 2:
                assert not binomial_form_check(n - 1, d, beta1).satisfied


# -- surfaces ----------------------------------------------------------------------


def test_heawood_bound_values():
    assert heawood_bound(2) == 4     # sphere
    assert heawood_bound(0) == 7     # torus
    assert heawood_bound(-2) == 9    # genus 2
    assert heawood_bound(1) == 6     # projective plane
    with pytest.raises(ValueError):
        heawood_bound(3)


def test_heawood_is_least_f0():
    # n(n-7) >= -6*chi, minimized over integers n
    for chi in range(2, -30, -1):
        n = heawood_bound(chi)
        assert n * (n - 7) >= -6 * chi
        assert (n - 1) * (n - 8) < -6 * chi or n == 4


def test_heawood_matches_dim2_tight_neighborly_route():
    # both bounds come from the same quadratic threshold
    # chi = 2 - 2*beta1 for orientable surfaces over GF(2)
    for beta1 in range(0, 12):
        chi = 2 - 2 * beta1
        n_surface = heawood_bound(chi)
        disc = 49 - 24 * chi
        s = isqrt(disc)
        expect = (7 + s + 1) // 2 if s * s == disc else (7 + s) // 2 + 1
        assert n_surface == expect


# -- generalized lower bounds --------------------------------------------------------


def test_glbc_validation():
    with pytest.raises(ValueError):
        glbc_bound(4, 2, 3, [1, 10, 40])  # d < 2k+1
    with pytest.raises(ValueError):
        glbc_bound(5, 2, 1, [1, 10, 40])  # j < k
    with pytest.raises(ValueError):
        glbc_bound(5, 2, 6, [1, 10, 40])  # j > d
    with pytest.raises(ValueError):
        glbc_bound(5, 2, 3, [1, 10])  # needs k+1 entries
    with pytest.raises(ValueError):
        glbc_bound(5, 2, 3, [2, 10, 40])  # f_{-1} = 1 always
    with pytest.raises(ValueError, match="nonnegative"):
        glbc_bound(2, -1, 0, [])  # k < 0


def test_glbc_k1_closed_forms():
    # k=1: f_j >= C(d+1, j)*f_0 - (j+1)*C(d+2, j+1) in branch 1... pinned numerically
    # d=3: branch 1 j in {1,2}, branch 2 j = 3
    assert glbc_bound(3, 1, 1, [1, 13]) == 4 * 13 - 10
    assert glbc_bound(3, 1, 3, [1, 13]) == 3 * 13 - 10
    # the Walkup sphere attains both (it is 1-stacked)
    S = dataset('walkup_M3')  # not a sphere; use its construction base instead
    from tnt import boundary_complex
    SP = boundary_complex(dataset('walkup_P'))
    fv = SP.f_vector()
    assert fv == (13, 42, 58, 29)
    assert glbc_bound(3, 1, 1, [1, 13]) == fv[1]
    assert glbc_bound(3, 1, 3, [1, 13]) == fv[3]


def test_glbc_equality_at_stacked_spheres():
    # 1-stacked spheres attain the k=1 bound in every degree
    for d in (3, 4, 5):
        S = stacked_sphere(d, d + 5, seed=3)
        fv = S.f_vector()
        for j in range(1, d + 1):
            assert glbc_bound(d, 1, j, [1, fv[0]]) == fv[j], (d, j)


def test_glbc_k2_frozen_coefficients():
    # branch 2 coefficient vectors, pinned: d=5, k=2
    # j=5: 35*f_0 - 13*f_1 + 3*f_2 evaluated on partial (1, f0, f1)
    # using partial_f = (f_{-1}, f_0, f_1)
    b5 = glbc_bound(5, 2, 5, [1, 7, 21])
    assert b5 == 35 * 1 - 13 * 7 + 3 * 21  # = 7 at the simplex boundary
    assert b5 == 7
    b4 = glbc_bound(5, 2, 4, [1, 7, 21])
    assert b4 == 105 * 1 - 39 * 7 + 9 * 21
    assert b4 == 21
    # boundary of the 6-simplex is 2-stacked (it is 1-stacked): equality
    B = boundary_simplex(6)
    fv = B.f_vector()
    assert fv == (7, 21, 35, 35, 21, 7)
    for j in range(2, 6):
        assert glbc_bound(5, 2, j, [1, fv[0], fv[1]]) == fv[j], j


def test_glbc_k2_equality_at_stacked_5_sphere():
    S = stacked_sphere(5, 8, seed=0)
    fv = S.f_vector()
    assert fv == (8, 27, 50, 55, 36, 12)
    for j in range(2, 6):
        assert glbc_bound(5, 2, j, [1, fv[0], fv[1]]) == fv[j], j


def test_glbc_k3_equality_at_stacked_7_sphere():
    S = stacked_sphere(7, 11, seed=1)
    fv = S.f_vector()
    for j in range(3, 8):
        assert glbc_bound(7, 3, j, [1, fv[0], fv[1], fv[2]]) == fv[j], j
    # k=2 on the same sphere: also equality (1-stacked implies 2-stacked)
    for j in range(2, 8):
        assert glbc_bound(7, 2, j, [1, fv[0], fv[1]]) == fv[j], j


def test_glbc_strict_slack_off_stacked():
    # the cross polytope boundary is not 1-stacked: strict inequality somewhere
    from tnt import cross_polytope_boundary

    O = cross_polytope_boundary(6)
    fv = O.f_vector()
    slacks = [fv[j] - glbc_bound(5, 1, j, [1, fv[0]]) for j in range(1, 6)]
    assert all(s >= 0 for s in slacks)
    assert any(s > 0 for s in slacks)


# -- six-dimensional manifolds -------------------------------------------------------


def test_six_manifold_bound_pins():
    assert six_manifold_bound(4, 14, None, True) == 364
    assert six_manifold_bound(4, 16, 112, False) == 448
    assert six_manifold_bound(2, 8, 28, False) == 56
    with pytest.raises(ValueError):
        six_manifold_bound(4, 14, None, False)  # needs f1 unless 2-neighborly


def test_six_manifold_bound_equality_on_dataset():
    M = dataset('M6_16')
    fv = M.f_vector()
    assert six_manifold_bound(4, fv[0], fv[1], False) == fv[2]


def test_dehn_sommerville_residual():
    M = dataset('M6_16')
    assert dehn_sommerville6_residual(M.f_vector(), 4) == 0
    B = boundary_simplex(7)
    assert dehn_sommerville6_residual(B.f_vector(), 2) == 0
    # a wrong chi leaves a nonzero residual
    assert dehn_sommerville6_residual(M.f_vector(), 2) != 0
    with pytest.raises(ValueError):
        dehn_sommerville6_residual((1, 2, 3), 0)


# -- report object ---------------------------------------------------------------------


def test_bounds_report():
    rep = BoundsReport("demo", {"d": 3}, 10, 12, note="n")
    assert rep.slack == 2
    assert not rep.equality
    eq = BoundsReport("demo", {}, 7, 7)
    assert eq.equality and eq.slack == 0
    blank = BoundsReport("demo", {}, 7)
    assert blank.slack is None and not blank.equality
    payload = rep.to_json()
    assert payload["name"] == "demo" and payload["bound"] == 10 and payload["actual"] == 12
