"""Weighted Rayleigh quotient: balance bookkeeping, Beta closed form,
quadrature agreement, invariances, and a local minimality witness."""

import math

import numpy as np
import pytest

import emdenlab as E

SHARP_UNWEIGHTED_3D = 5.477904089531332  # 3 (pi/2)^(4/3), frozen
SHARP_UNWEIGHTED_4D = 10.260398641294913  # frozen value of the closed form at (4,0,0,4)
RADIAL_WEIGHTED = 1.6247750707401007  # frozen closed form at (3,-0.5,-1.75,5)


def _bubble_profile(N, a, b):
    p = (N + 2 + 2 * b - a) / (N - 2 + a)
    prof = E.normalized_bubble(E.ProblemParams(N, a, b, p))
    return lambda r: E.bubble_eval(prof, r)


def test_check_balance_verdict_table():
    rep = E.check_balance(E.CknTriple(3, 0.0, 0.0, 6.0))
    assert rep.verdict == E.ADMISSIBLE
    assert rep.balance_ok and rep.band_low_ok and rep.band_high_ok
    assert rep.q_gt_2 and rep.b_gt_a_minus_2 and rep.a_minus_2_gt_minus_N
    assert rep.balance_defect == 0.0

    rep = E.check_balance(E.CknTriple(3, 0.0, 1.0, 6.0))
    assert rep.verdict == E.BALANCE_VIOLATED
    assert rep.balance_defect == pytest.approx(1.0 / 6.0, rel=1e-15)

    # balance holds but b sits above the band top 2b/q <= a
    rep = E.check_balance(E.CknTriple(3, -0.5, -1.0, 8.0))
    assert rep.verdict == E.BAND_VIOLATED
    assert rep.balance_ok
    assert not rep.band_high_ok and rep.band_low_ok


def test_check_balance_band_cases_on_the_balance_curve():
    # N = 3, a = 0: q adjusts to 2(N+b), band top is 2b/q <= 0
    rep = E.check_balance(E.CknTriple(3, 0.0, -0.5, 5.0))
    assert rep.verdict == E.ADMISSIBLE
    rep = E.check_balance(E.CknTriple(3, 0.0, 0.5, 7.0))
    assert rep.verdict == E.BAND_VIOLATED


def test_triple_validation():
    with pytest.raises(E.DimensionTooSmall):
        E.check_balance(E.CknTriple(2, 0.0, 0.0, 4.0))
    with pytest.raises(E.NotInRange):
        E.check_balance(E.CknTriple(3, 0.0, 0.0, 1.5))


def test_balance_holds_exactly_when_q_is_critical():
    rng = np.random.default_rng(41)
    for _ in range(50):
        N = int(rng.integers(3, 7))
        a = float(rng.uniform(-(N - 2) + 0.1, 2.0))
        b = float(rng.uniform(a - 1.9, 3.0))
        q_bal = 2.0 * (N + b) / (N - 2 + a)
        if q_bal < 2.0:
            continue
        rep = E.check_balance(E.CknTriple(N, a, b, q_bal))
        assert rep.balance_ok
        off = E.check_balance(E.CknTriple(N, a, b, q_bal + 0.1))
        assert not off.balance_ok


def test_closed_form_matches_frozen_constants():
    assert E.bubble_energy_closed_form(E.CknTriple(3, 0.0, 0.0, 6.0)) == pytest.approx(
        SHARP_UNWEIGHTED_3D, rel=1e-12
    )
    assert E.bubble_energy_closed_form(E.CknTriple(4, 0.0, 0.0, 4.0)) == pytest.approx(
        SHARP_UNWEIGHTED_4D, rel=1e-12
    )
    assert E.bubble_energy_closed_form(
        E.CknTriple(3, -0.5, -1.75, 5.0)
    ) == pytest.approx(RADIAL_WEIGHTED, rel=1e-12)
    # the unweighted 3d value in elementary terms
    assert SHARP_UNWEIGHTED_3D == pytest.approx(3.0 * (math.pi / 2.0) ** (4.0 / 3.0), rel=1e-13)


def test_closed_form_requires_the_balance():
    with pytest.raises(E.BalanceViolated):
        E.bubble_energy_closed_form(E.CknTriple(3, 0.0, 1.0, 6.0))


def test_quadrature_agrees_with_closed_form_on_the_bubble():
    cases = [
        (E.CknTriple(3, 0.0, 0.0, 6.0), SHARP_UNWEIGHTED_3D),
        (E.CknTriple(4, 0.0, 0.0, 4.0), SHARP_UNWEIGHTED_4D),
        # band-violated but balanced: the quotient is still a well-defined
        # integral and still matches the Beta expression
        (E.CknTriple(3, -0.5, -1.0, 8.0), 3.058726945237685),
    ]
    for triple, frozen in cases:
        closed = E.bubble_energy_closed_form(triple)
        assert closed == pytest.approx(frozen, rel=1e-12)
        rep = E.energy(triple, _bubble_profile(triple.N, triple.a, triple.b))
        assert rep.rayleigh == pytest.approx(closed, rel=1e-8)


def test_energy_is_dilation_and_amplitude_invariant():
    triple = E.CknTriple(3, 0.0, 0.0, 6.0)
    params = E.ProblemParams(3, 0.0, 0.0, 5.0)

    values = []
    for lam in (0.1, 1.0, 10.0):
        prof = E.bubble(params, lambda_scale=lam)
        rep = E.energy(triple, lambda r: E.bubble_eval(prof, r))
        values.append(rep.rayleigh)
    assert max(values) - min(values) <= 1e-8 * max(values)

    base = _bubble_profile(3, 0.0, 0.0)
    values = []
    for c in (0.5, 2.0, 10.0):
        rep = E.energy(triple, lambda r, c=c: tuple(c * x for x in base(r)))
        values.append(rep.rayleigh)
    assert max(values) - min(values) <= 1e-10 * max(values)


def test_best_constant_radial_cases():
    rep = E.best_constant(E.CknTriple(3, 0.0, 0.0, 6.0))
    assert rep.closed_form == pytest.approx(SHARP_UNWEIGHTED_3D, rel=1e-12)
    assert rep.s_estimate == pytest.approx(SHARP_UNWEIGHTED_3D, rel=1e-8)

    rep = E.best_constant(E.CknTriple(3, -0.5, -1.75, 5.0))
    assert rep.closed_form == pytest.approx(RADIAL_WEIGHTED, rel=1e-12)
    assert rep.s_estimate == pytest.approx(RADIAL_WEIGHTED, rel=1e-8)


def test_best_constant_refuses_outside_its_theory():
    # off balance
    with pytest.raises(E.BalanceViolated):
        E.best_constant(E.CknTriple(3, 0.0, 1.0, 6.0))
    # balanced but band-violated
    with pytest.raises(E.BalanceViolated):
        E.best_constant(E.CknTriple(3, -0.5, -1.0, 8.0))
    # balanced, in band, but the radial bubble is not the minimizer
    with pytest.raises(E.SymmetryBreakingRegion):
        E.best_constant(E.CknTriple(3, 0.5, 1.0, 16.0 / 3.0))
    # balanced and in band, but N - 2 + a = 0
    with pytest.raises(E.DegenerateWeight):
        E.best_constant(E.CknTriple(3, -1.0, -3.0, 4.0))


def test_divergent_profiles_are_reported_not_truncated():
    triple = E.CknTriple(3, 0.0, 0.0, 6.0)
    # tail too flat: r^2 v^6 ~ 1/r at infinity
    with pytest.raises(E.NonintegrableProfile):
        E.energy(
            triple,
            lambda r: ((1.0 + r * r) ** -0.25, -0.5 * r * (1.0 + r * r) ** -1.25),
        )
    # origin blow-up: r^2 (v')^2 ~ r^-4
    with pytest.raises(E.NonintegrableProfile):
        E.energy(triple, lambda r: (r**-2.0, -2.0 * r**-3.0))


def test_bubble_is_a_local_minimum_in_the_radial_class():
    triple = E.CknTriple(3, -0.5, -1.75, 5.0)
    s = E.best_constant(triple).s_estimate
    base = _bubble_profile(3, -0.5, -1.75)

    def bump(r):
        u = r - 2.0
        if abs(u) >= 1.0:
            return 0.0, 0.0
        g = 1.0 - u * u
        return g**3, -6.0 * u * g**2

    excess = {}
    for eps in (1e-2, 5e-3):
        def perturbed(r, eps=eps):
            v, dv = base(r)
            bv, bdv = bump(r)
            return v + eps * bv, dv + eps * bdv

        rep = E.energy(triple, perturbed)
        assert rep.rayleigh >= s - 1e-8
        excess[eps] = rep.rayleigh - s

    # the excess shrinks quadratically with the perturbation size
    assert excess[1e-2] > 0 and excess[5e-3] > 0
    assert excess[1e-2] / excess[5e-3] == pytest.approx(4.0, abs=0.5)


def test_quadrature_mismatch_is_a_named_error(monkeypatch):
    true_form = E.ckn.bubble_energy_closed_form
    monkeypatch.setattr(
        E.ckn, "bubble_energy_closed_form", lambda t: 1.01 * true_form(t)
    )
    with pytest.raises(E.QuadratureMismatch, match="disagree"):
        E.best_constant(E.CknTriple(3, 0.0, 0.0, 6.0))


# rayleigh on the ckn_grid anchor rows (N = 3, q set by balance), as
# computed by the decade-wise scipy quad version of the quadrature
PINNED_ANCHORS = {
    (-0.25, -1.25): 2.5484981659983363,
    (0.0, -1.0): 2.894405018076772,
    (0.5, -0.5): 3.6352951449463498,
    (1.0, 0.0): 4.489322312172197,
}


@pytest.mark.parametrize("a, b", sorted(PINNED_ANCHORS))
def test_best_constant_keeps_the_pinned_anchor_values(a, b):
    triple = E.CknTriple(3, a, b, 2.0 * (3 + b) / (1.0 + a))
    rep = E.best_constant(triple)
    assert type(rep.rayleigh) is float
    assert rep.rayleigh == pytest.approx(PINNED_ANCHORS[a, b], rel=1e-13)
    # the scalar-handle path runs the same quadrature
    scalar = E.energy(triple, _bubble_profile(3, a, b))
    assert scalar.rayleigh == pytest.approx(rep.rayleigh, rel=1e-13)
    assert scalar.grad_norm_sq == pytest.approx(rep.grad_norm_sq, rel=1e-13)
    assert scalar.q_norm == pytest.approx(rep.q_norm, rel=1e-13)


def test_gk21_constants_are_exact_on_polynomials():
    lo, hi = 0.3, 7.0
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = centre + half * E.ckn._GK21_NODES
    k21, g10 = E.ckn._K21_WEIGHTS, E.ckn._G10_WEIGHTS
    assert nodes.shape == (21,) and g10.shape == (10,)
    for k in range(32):
        exact = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
        assert half * np.dot(k21, nodes**k) == pytest.approx(exact, rel=1e-14)
        if k <= 19:
            gauss = half * np.dot(g10, nodes[1::2] ** k)
            assert gauss == pytest.approx(exact, rel=1e-14)
    assert math.fsum(k21) == pytest.approx(2.0, rel=1e-15)
    assert math.fsum(g10) == pytest.approx(2.0, rel=1e-15)


def _b_on_symmetry_breaking_curve(N, a):
    """b with b = q beta_fs(N, a) and q = 2(N+b)/(N-2+a), solved for b."""
    beta = E.beta_fs(N, a)
    return 2.0 * N * beta / (N - 2.0 + a - 2.0 * beta)


def test_best_constant_refuses_exactly_where_fs_region_breaks_symmetry():
    N, seen = 3, set()
    for a in np.linspace(0.1, 2.5, 9):
        b_sb = _b_on_symmetry_breaking_curve(N, a)
        for b in (b_sb - 1e-9, b_sb + 1e-9):
            q = 2.0 * (N + b) / (N - 2.0 + a)
            triple = E.CknTriple(N, float(a), float(b), q)
            assert E.check_balance(triple).verdict == E.ADMISSIBLE
            flag = E.fs_region(E.ProblemParams(N, float(a), float(b), q - 1.0))
            assert flag == (E.SYMMETRY_BREAKING if b > b_sb else E.RADIAL_MINIMIZER)
            seen.add(flag)
            if flag == E.SYMMETRY_BREAKING:
                with pytest.raises(E.SymmetryBreakingRegion):
                    E.best_constant(triple)
            else:
                rep = E.best_constant(triple)
                assert rep.rayleigh == pytest.approx(rep.closed_form, rel=1e-6)
    assert seen == {E.SYMMETRY_BREAKING, E.RADIAL_MINIMIZER}


def test_decade_refinement_converges_or_stops_at_the_subinterval_limit():
    ends = np.array([1.0, 10.0, 100.0])
    total, g_ends, _ = E.ckn._refine_decades(lambda r: r**-2.5, ends, ())
    exact = (ends[:-1] ** -1.5 - ends[1:] ** -1.5) / 1.5
    np.testing.assert_allclose(total, exact, rtol=1e-14)
    np.testing.assert_array_equal(g_ends, ends**-2.5)

    sizes = []

    def wiggle(r):
        sizes.append(r.size)
        return 1.0 + np.cos(1e4 * r)

    total, _, _ = E.ckn._refine_decades(wiggle, ends, ())
    assert np.isfinite(total).all()
    # no subinterval of either decade converges, so each stops after
    # _LIMIT - 1 bisections, two new halves apiece
    intervals = (sum(sizes) - len(ends)) // 21
    assert intervals == 2 * (1 + 2 * (E.ckn._LIMIT - 1))


def test_scalar_handle_may_overflow_past_the_tail_stop():
    # v ~ 1/r; r**20 overflows a Python float past r ~ 1e15, beyond the
    # decade where the tail stops but inside the block evaluated with it
    def prof(r):
        s = 1.0 + r**20
        return s**-0.05, -r**19 * s**-1.05

    rep = E.energy(E.CknTriple(3, 0.0, 0.0, 6.0), prof)
    assert rep.rayleigh == pytest.approx(5.943491075634604, rel=1e-12)
