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


@pytest.mark.parametrize("c", [1e-60, 1e-52, 1e-50, 1e-30, 1e30, 1e60])
def test_energy_keeps_amplitudes_far_from_one(c):
    # |v|^q under- or overflows at the origin stub unless energy rescales;
    # at 1e-52 and 1e-50 the plain quadrature succeeds, but sums subnormal
    # values of |v|^q (its q-mass is 1e-311 and 1e-299)
    triple = E.CknTriple(3, 0.0, 0.0, 6.0)
    base = _bubble_profile(3, 0.0, 0.0)
    ref = E.energy(triple, base)
    rep = E.energy(triple, lambda r: tuple(c * x for x in base(r)))
    assert rep.rayleigh == pytest.approx(ref.rayleigh, rel=1e-10)
    assert rep.q_norm == pytest.approx(c * ref.q_norm, rel=1e-10)
    assert rep.grad_norm_sq == pytest.approx(c * c * ref.grad_norm_sq, rel=1e-10)


def _vanishing_profiles():
    # r^7 e^-r and r^2 e^-r^2: |v|^q underflows at the origin stub, yet the
    # plain quadrature works, so energy must not rescale them
    def seventh(r):
        e = math.exp(-r)
        return r**7 * e, (7 * r**6 - r**7) * e

    def second(r):
        e = math.exp(-r * r)
        return r * r * e, (2 * r - 2 * r**3) * e

    return [
        (seventh, "0x1.3860cc7bc7923p+4", "0x1.4725cdf8f2e33p+11", "0x1.fe2387f493742p+26"),
        (second, "0x1.f7e26d62fbda7p+3", "0x1.03feed3cb576cp-1", "0x1.03de5a3796f69p+2"),
    ]


def test_energy_keeps_the_bits_of_profiles_that_vanish_at_the_origin():
    # frozen values of the unscaled quadrature, before amplitudes were rescaled
    triple = E.CknTriple(3, 0.0, 0.0, 6.0)
    for profile, rayleigh, q_norm, grad in _vanishing_profiles():
        rep = E.energy(triple, profile)
        assert (rep.rayleigh.hex(), rep.q_norm.hex(), rep.grad_norm_sq.hex()) == (
            rayleigh, q_norm, grad
        )


@pytest.mark.parametrize("c", [1e-60, 1e60])
def test_energy_rescales_profiles_that_vanish_at_the_origin(c):
    triple = E.CknTriple(3, 0.0, 0.0, 6.0)
    for profile, rayleigh, _, _ in _vanishing_profiles():
        rep = E.energy(triple, lambda r: tuple(c * x for x in profile(r)))
        assert rep.rayleigh == pytest.approx(float.fromhex(rayleigh), rel=1e-10)


def test_energy_probes_the_amplitude_only_for_a_mass_near_subnormal(monkeypatch):
    # a profile whose plain pass gives larger norm integrals makes no
    # handle call beyond that pass
    from emdenlab import ckn

    probes = []
    shift = ckn._amplitude_shift
    monkeypatch.setattr(ckn, "_amplitude_shift", lambda *args: probes.append(1) or shift(*args))
    triple = E.CknTriple(3, 0.0, 0.0, 6.0)
    base = _bubble_profile(3, 0.0, 0.0)
    profiles = [profile for profile, *_ in _vanishing_profiles()]
    for c in (1.0, 1e-47):  # q-mass 1.3 and 1.3e-281
        profiles.append(lambda r, c=c: tuple(c * x for x in base(r)))
    for profile in profiles:
        E.energy(triple, profile)
    assert probes == []
    E.energy(triple, lambda r: tuple(1e-52 * x for x in base(r)))
    assert probes == [1]


@pytest.mark.parametrize(
    "profile",
    [lambda r: (0.0, math.exp(-r)), lambda r: (math.exp(-r), 0.0)],
    ids=["zero-q-norm", "zero-gradient"],
)
def test_energy_names_a_degenerate_profile(profile):
    # each used to raise a bare ValueError
    with pytest.raises(E.DegenerateProfile):
        E.energy(E.CknTriple(3, 0.0, 0.0, 6.0), profile)


@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_energy_names_norms_beyond_double_range(c):
    # the quotient is fine, but c^2 times the gradient norm is not a double
    base = _bubble_profile(3, 0.0, 0.0)
    with pytest.raises(E.NormOutOfRange, match="gradient norm"):
        E.energy(E.CknTriple(3, 0.0, 0.0, 6.0), lambda r: tuple(c * x for x in base(r)))


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


# rayleigh of energy on the scalar bubble handle at the ckn_grid anchor rows
# (N = 3, q set by balance), as computed by the decade-wise scipy quad
# version of the quadrature; the decade GK21 still gives them
PINNED_ANCHORS = {
    (-0.25, -1.25): 2.5484981659983363,
    (0.0, -1.0): 2.894405018076772,
    (0.5, -0.5): 3.6352951449463498,
    (1.0, 0.0): 4.489322312172197,
}


def _bubble_log_norms(N, a, b, q):
    """log G and log Q of the v(0) = 1 bubble from their Beta forms.

    v = (1 + (lam r)^sigma)^(-m) with A lam^g = 1 gives
    G = omega A^2 m^2 sigma B(m+2, m) and Q = omega A^q B(m+1, m+1)/sigma.
    """
    sigma = 2.0 + b - a
    m = (N - 2.0 + a) / sigma
    log_A = math.log(m * (m + 1.0) * sigma**2) / (q - 2.0)
    log_omega = math.log(E.sphere_area(N))
    log_G = log_omega + 2.0 * log_A + math.log(m * m * sigma) + (
        math.lgamma(m + 2.0) + math.lgamma(m) - math.lgamma(2.0 * m + 2.0)
    )
    log_Q = log_omega + q * log_A - math.log(sigma) + (
        2.0 * math.lgamma(m + 1.0) - math.lgamma(2.0 * m + 2.0)
    )
    return log_G, log_Q


@pytest.mark.parametrize("a, b", sorted(PINNED_ANCHORS))
def test_best_constant_keeps_the_pinned_anchor_values(a, b):
    triple = E.CknTriple(3, a, b, 2.0 * (3 + b) / (1.0 + a))
    rep = E.best_constant(triple)
    assert type(rep.rayleigh) is float
    assert type(rep.grad_norm_sq) is float and type(rep.q_norm) is float
    assert rep.rayleigh == pytest.approx(E.bubble_energy_closed_form(triple), rel=1e-13)
    log_G, log_Q = _bubble_log_norms(3, a, b, triple.q)
    assert rep.grad_norm_sq == pytest.approx(math.exp(log_G), rel=1e-13)
    assert rep.q_norm == pytest.approx(math.exp(log_Q / triple.q), rel=1e-13)
    # the scalar-handle path keeps the decade quadrature and its values
    scalar = E.energy(triple, _bubble_profile(3, a, b))
    assert scalar.rayleigh == pytest.approx(PINNED_ANCHORS[a, b], rel=1e-13)


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


def _refined_decade(g, lo, hi):
    """g at the decade's ends and its refined integral, as energy forms them."""
    val, err, g_ends = E.ckn._gk21(g, np.array([lo]), np.array([hi]), np.array([lo, hi]))
    return E.ckn._refine(g, lo, hi, val, err), g_ends


def test_decade_refinement_converges_or_stops_at_the_subinterval_limit():
    for lo, hi in ((1.0, 10.0), (10.0, 100.0)):
        total, g_ends = _refined_decade(lambda r: r**-2.5, lo, hi)
        assert total == pytest.approx((lo**-1.5 - hi**-1.5) / 1.5, rel=1e-14)
        np.testing.assert_array_equal(g_ends, np.array([lo, hi]) ** -2.5)

        sizes = []

        def wiggle(r, sizes=sizes):
            sizes.append(r.size)
            return 1.0 + np.cos(1e4 * r)

        total, _ = _refined_decade(wiggle, lo, hi)
        assert math.isfinite(total)
        # no subinterval converges, so the decade stops after _LIMIT - 1
        # bisections, two new halves apiece
        intervals = (sum(sizes) - 2) // 21
        assert intervals == 1 + 2 * (E.ckn._LIMIT - 1)


def test_scalar_handle_may_overflow_past_the_tail_stop():
    # v ~ 1/r; r**20 overflows a Python float past r ~ 1e15, beyond the
    # decade where the tail stops, and no radius past that decade is asked for
    radii = []

    def prof(r):
        radii.append(r)
        s = 1.0 + r**20
        return s**-0.05, -r**19 * s**-1.05

    rep = E.energy(E.CknTriple(3, 0.0, 0.0, 6.0), prof)
    assert rep.rayleigh == pytest.approx(5.943491075634604, rel=1e-12)
    assert max(radii) < 1e15


@pytest.mark.parametrize("sigma", [1e-2, 0.05, 0.2, 0.49])
@pytest.mark.parametrize("N, a", [(3, -0.5), (3, 0.5), (4, -0.5), (4, 0.25), (4, 0.5)])
def test_best_constant_holds_across_the_band_edge_strip(N, a, sigma):
    # a - 2 < b < a - 1.5: the bubble spans about 1/sigma decades of r
    b = a - 2.0 + sigma
    triple = E.CknTriple(N, a, b, 2.0 * (N + b) / (N - 2.0 + a))
    assert E.check_balance(triple).verdict == E.ADMISSIBLE
    rep = E.best_constant(triple)
    assert rep.rayleigh == pytest.approx(E.bubble_energy_closed_form(triple), rel=1e-12)


def test_closed_form_holds_where_its_beta_values_underflow():
    # sigma = 0.003 at a = 1: B(m+1, m+1) ~ 4^-667 underflows, the norms of
    # the v(0) = 1 bubble and the quotient do not
    b = 1.0 - 2.0 + 0.003
    triple = E.CknTriple(3, 1.0, b, 2.0 * (3 + b) / 2.0)
    closed = E.bubble_energy_closed_form(triple)
    assert math.isfinite(closed)
    assert E.best_constant(triple).rayleigh == pytest.approx(closed, rel=1e-12)


# a ckn_band_edge row (seed 2) with sigma = 3.7e-4: the v(0) = 1 bubble's
# gradient mass is about 10^4340
STRIP_OUT_OF_RANGE = (2.4275882562467754, 0.4279581335187795)


def test_best_constant_names_norms_outside_double_range():
    a, b = STRIP_OUT_OF_RANGE
    triple = E.CknTriple(3, a, b, 2.0 * (3 + b) / (1.0 + a))
    with pytest.raises(E.NormOutOfRange, match=r"10\^\d+"):
        E.best_constant(triple)
    # the quotient itself stays of order one
    assert 1.0 < E.bubble_energy_closed_form(triple) < 10.0
