import random
from fractions import Fraction

import numpy as np
import pytest

from ncplane.grid import GridSpec, Wavefunction, gaussian, norm, spectral_translate
from ncplane.heisenberg import AlgebraElement, algebra_bracket
from ncplane.sampling import random_algebra_element
from ncplane.operators import (
    PhaseUndefined,
    apply_momentum,
    apply_position,
    apply_u,
    apply_v,
    apply_w,
    commutator_check,
    quantize_apply,
    quantized_cocycle_check,
    weyl_check,
)

SPEC = GridSpec(n=128, l=16.0, theta=0.25)
PACKET = gaussian(SPEC, center=(0.5, -1.0), sigma=1.2, momentum=(0.6, -0.4))


def zero_state(spec=SPEC):
    return Wavefunction(spec, np.zeros((spec.n, spec.n), dtype=complex))


class TestBasicOperators:
    def test_position_reduces_to_multiplication_at_theta_zero(self):
        spec = GridSpec(n=128, l=16.0, theta=0.0)
        wfn = gaussian(spec, sigma=1.0)
        q1, q2 = spec.meshes()
        assert np.allclose(apply_position(wfn, 0).values, q1 * wfn.values)
        assert np.allclose(apply_position(wfn, 1).values, q2 * wfn.values)

    def test_momentum_matches_analytic_gaussian(self):
        sigma, k0 = 1.5, (0.8, -0.3)
        wfn = gaussian(SPEC, sigma=sigma, momentum=k0)
        q1, _ = SPEC.meshes()
        analytic = -1j * SPEC.hbar * (-q1 / (2 * sigma ** 2) + 1j * k0[0]) * wfn.values
        assert np.allclose(apply_momentum(wfn, 0).values, analytic, atol=1e-9)

    def test_position_correction_term(self):
        # at nonzero theta the position operator picks up the derivative
        # along the other axis, with opposite signs on the two axes
        wfn = gaussian(SPEC, sigma=1.0)
        q1, q2 = SPEC.meshes()
        p1 = apply_momentum(wfn, 0).values / SPEC.hbar   # -i d_1 psi
        p2 = apply_momentum(wfn, 1).values / SPEC.hbar
        expected_0 = q1 * wfn.values - 0.5 * SPEC.theta * p2
        expected_1 = q2 * wfn.values + 0.5 * SPEC.theta * p1
        assert np.allclose(apply_position(wfn, 0).values, expected_0, atol=1e-12)
        assert np.allclose(apply_position(wfn, 1).values, expected_1, atol=1e-12)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            apply_position(PACKET, 2)
        with pytest.raises(ValueError):
            apply_momentum(PACKET, -1)

    def test_operators_are_hermitian_on_packets(self):
        from ncplane.grid import inner

        other = gaussian(SPEC, center=(-0.5, 0.75), sigma=1.4, momentum=(0.2, 0.1))
        for op in (lambda w: apply_position(w, 0),
                   lambda w: apply_position(w, 1),
                   lambda w: apply_momentum(w, 0),
                   lambda w: apply_momentum(w, 1)):
            lhs = inner(op(PACKET), other)
            rhs = inner(PACKET, op(other))
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestExponentiatedOperators:
    def test_u_is_translation(self):
        moved = apply_u(gaussian(SPEC, sigma=1.0), (1.0, -0.5))
        direct = gaussian(SPEC, center=(1.0, -0.5), sigma=1.0)
        assert np.allclose(moved.values, direct.values, atol=1e-10)

    def test_u_v_w_are_unitary(self):
        for op in (lambda w: apply_u(w, (0.7, -1.1)),
                   lambda w: apply_v(w, (0.4, 0.9)),
                   lambda w: apply_w(w, 0.3, -2.0)):
            assert norm(op(PACKET)) == pytest.approx(norm(PACKET), abs=1e-12)

    def test_v_boost_shifts_momentum_content(self):
        spec = GridSpec(n=128, l=16.0, theta=0.0)
        wfn = gaussian(spec, sigma=1.0)
        boosted = apply_v(wfn, (0.5, -0.25))
        direct = gaussian(spec, sigma=1.0, momentum=(0.5, -0.25))
        assert np.allclose(boosted.values, direct.values, atol=1e-12)

    def test_v_drift_and_phase_commute(self):
        # b . s(b) = 0 makes the two possible operator orderings agree
        b = (0.6, 1.3)
        drift = (0.5 * SPEC.theta * b[1], -0.5 * SPEC.theta * b[0])
        q1, q2 = SPEC.meshes()
        phase = np.exp(1j * (b[0] * q1 + b[1] * q2))
        translate_first = phase * spectral_translate(SPEC, PACKET.values, drift)
        multiply_first = spectral_translate(SPEC, phase * PACKET.values, drift)
        # the drift reaches the phase factor too, so correct for it exactly:
        # translating e^{ib.q} by s multiplies by e^{-ib.s} = 1 here
        assert np.allclose(translate_first, multiply_first, atol=1e-9)
        assert np.allclose(apply_v(PACKET, b).values, translate_first, atol=1e-12)

    def test_w_is_global_phase(self):
        out = apply_w(PACKET, 0.7, 1.9)
        expected = np.exp(-1j * (0.7 * SPEC.hbar + 1.9 * SPEC.theta))
        assert np.allclose(out.values, expected * PACKET.values)


class TestWeylRelations:
    def test_all_relations_pass_on_a_packet(self):
        checks = weyl_check(PACKET, a=(0.8, 0.3), b=(0.5, -0.7))
        for name, check in checks.items():
            assert check.passed, f"{name}: error {check.error:.3e} > {check.tol}"

    def test_vv_phase_value(self):
        b, b2 = (0.5, -0.7), (-0.7, 0.5)
        checks = weyl_check(PACKET, a=(0.8, 0.3), b=b, b2=b2)
        z2 = b[0] * b2[1] - b[1] * b2[0]
        assert z2 != 0.0
        assert checks["vv"].predicted == pytest.approx(
            np.exp(1j * SPEC.theta * z2))
        assert checks["vv"].measured == pytest.approx(
            checks["vv"].predicted, abs=1e-9)

    def test_vu_phase_value(self):
        a, b = (0.8, 0.3), (0.5, -0.7)
        checks = weyl_check(PACKET, a=a, b=b)
        z1 = b[0] * a[0] + b[1] * a[1]
        assert checks["vu"].cocycle == (z1, 0.0)
        assert checks["vu"].predicted == pytest.approx(np.exp(1j * z1))

    def test_translations_commute(self):
        checks = weyl_check(PACKET, a=(1.0, 0.0), b=(0.0, 1.0))
        assert checks["uu"].predicted == 1.0 + 0.0j
        assert checks["uu"].error < 1e-10

    def test_central_element_commutes(self):
        checks = weyl_check(PACKET, a=(1.0, 0.0), b=(0.0, 1.0), w=(0.4, -1.2))
        assert checks["uw"].error < 1e-12
        assert checks["vw"].error < 1e-12

    def test_zero_state_rejected(self):
        with pytest.raises(PhaseUndefined):
            weyl_check(zero_state(), a=(1.0, 0.0), b=(0.0, 1.0))


class TestCommutators:
    def test_qq_closes_to_i_theta(self):
        checks = commutator_check(PACKET, "qq")
        assert len(checks) == 1
        assert checks[0].expected == 1j * SPEC.theta
        assert checks[0].passed, checks[0].error

    def test_pp_vanishes(self):
        checks = commutator_check(PACKET, "pp")
        assert checks[0].expected == 0.0
        assert checks[0].error < 1e-10

    def test_qp_is_canonical(self):
        checks = commutator_check(PACKET, "qp")
        assert len(checks) == 4
        by_name = {check.name: check for check in checks}
        assert by_name["[q1',p1]"].expected == 1j * SPEC.hbar
        assert by_name["[q2',p2]"].expected == 1j * SPEC.hbar
        assert by_name["[q1',p2]"].expected == 0.0
        assert by_name["[q2',p1]"].expected == 0.0
        for check in checks:
            assert check.passed, f"{check.name}: {check.error:.3e}"

    def test_qq_at_theta_zero(self):
        spec = GridSpec(n=128, l=16.0, theta=0.0)
        wfn = gaussian(spec, sigma=1.2)
        check = commutator_check(wfn, "qq")[0]
        assert check.expected == 0.0
        assert check.error < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            commutator_check(PACKET, "xy")

    def test_zero_state_rejected(self):
        with pytest.raises(PhaseUndefined):
            commutator_check(zero_state(), "qq")


class TestQuantization:
    def test_pure_translation_is_momentum(self):
        e = AlgebraElement(a=(Fraction(1), Fraction(0)))
        assert np.allclose(quantize_apply(e, PACKET).values,
                           apply_momentum(PACKET, 0).values)

    def test_pure_boost_is_position(self):
        e = AlgebraElement(b=(Fraction(0), Fraction(1)))
        assert np.allclose(quantize_apply(e, PACKET).values,
                           apply_position(PACKET, 1).values)

    def test_central_elements_scale(self):
        e = AlgebraElement(c=Fraction(2), d=Fraction(3))
        expected = (2 * SPEC.hbar + 3 * SPEC.theta) * PACKET.values
        assert np.allclose(quantize_apply(e, PACKET).values, expected)

    def test_linearity(self):
        e1 = AlgebraElement(a=(Fraction(1, 2), Fraction(-1)), b=(Fraction(1), Fraction(0)))
        e2 = AlgebraElement(a=(Fraction(0), Fraction(1)), b=(Fraction(-1, 2), Fraction(2)))
        lhs = quantize_apply(e1 + e2, PACKET).values
        rhs = quantize_apply(e1, PACKET).values + quantize_apply(e2, PACKET).values
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_commutator_reproduces_central_charge(self):
        rng = random.Random(31)
        for _ in range(25):
            e1 = AlgebraElement(
                a=(Fraction(rng.randint(-16, 16), 16), Fraction(rng.randint(-16, 16), 16)),
                b=(Fraction(rng.randint(-16, 16), 16), Fraction(rng.randint(-16, 16), 16)))
            e2 = AlgebraElement(
                a=(Fraction(rng.randint(-16, 16), 16), Fraction(rng.randint(-16, 16), 16)),
                b=(Fraction(rng.randint(-16, 16), 16), Fraction(rng.randint(-16, 16), 16)))
            check = quantized_cocycle_check(PACKET, e1, e2)
            assert check.passed, f"{check.error:.3e} vs {check.expected}"

    def test_known_central_charge(self):
        e1 = AlgebraElement(a=(Fraction(1), Fraction(0)))
        e2 = AlgebraElement(b=(Fraction(1), Fraction(0)))
        bracket = algebra_bracket(e1, e2)
        assert (bracket.c, bracket.d) == (Fraction(-1), Fraction(0))
        check = quantized_cocycle_check(PACKET, e1, e2)
        assert check.expected == -1j * SPEC.hbar
        assert check.passed


class TestFourierMultiplierForm:
    @pytest.fixture
    def fft_calls(self, monkeypatch):
        calls = {name: 0 for name in ("fft", "ifft", "fft2", "ifft2")}
        for name in calls:
            original = getattr(np.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)

        def take():
            counts = dict(calls)
            for name in calls:
                calls[name] = 0
            return counts

        return take

    @staticmethod
    def pairs(one_axis=0, two_axis=0):
        return {"fft": one_axis, "ifft": one_axis,
                "fft2": two_axis, "ifft2": two_axis}

    def test_quantize_apply_is_the_sum_of_its_parts(self):
        rng = random.Random(5)
        for _ in range(20):
            e = random_algebra_element(rng)
            central = float(e.c) * SPEC.hbar + float(e.d) * SPEC.theta
            expected = central * PACKET.values
            for axis in range(2):
                expected = (expected
                            + float(e.a[axis]) * apply_momentum(PACKET, axis).values
                            + float(e.b[axis]) * apply_position(PACKET, axis).values)
            got = quantize_apply(e, PACKET).values
            scale = np.linalg.norm(expected)
            assert np.linalg.norm(got - expected) <= 1e-12 * scale

    def test_generator_transforms(self, fft_calls):
        generic = AlgebraElement(a=(Fraction(1, 2), Fraction(-3, 4)),
                                 b=(Fraction(1, 3), Fraction(2)),
                                 c=Fraction(1), d=Fraction(-1, 5))
        quantize_apply(generic, PACKET)
        # c1 k1 + c2 k2: one 1-D pair along each axis, no 2-D transform
        assert fft_calls() == self.pairs(one_axis=2)
        quantize_apply(AlgebraElement(a=(Fraction(1), Fraction(0))), PACKET)
        assert fft_calls() == self.pairs(one_axis=1)
        quantize_apply(AlgebraElement(c=Fraction(2), d=Fraction(1)), PACKET)
        assert fft_calls() == self.pairs()
        for axis in range(2):
            apply_momentum(PACKET, axis)
            assert fft_calls() == self.pairs(one_axis=1)
            apply_position(PACKET, axis)
            assert fft_calls() == self.pairs(one_axis=1)

    def test_group_element_transforms(self, fft_calls):
        apply_u(PACKET, (0.3, -0.2))
        assert fft_calls() == self.pairs(two_axis=1)
        apply_v(PACKET, (0.3, -0.2))
        assert fft_calls() == self.pairs(two_axis=1)
        apply_w(PACKET, 0.3, -0.2)
        assert fft_calls() == self.pairs()

    def test_checks_share_first_applications(self, fft_calls):
        # u1 psi and v1 psi enter three relations each, but are made once
        weyl_check(PACKET, a=(0.8, 0.3), b=(0.5, -0.7))
        assert fft_calls() == self.pairs(two_axis=12)
        commutator_check(PACKET, "qp")
        assert fft_calls() == self.pairs(one_axis=12)
        for kind in ("qq", "pp"):
            commutator_check(PACKET, kind)
            assert fft_calls() == self.pairs(one_axis=4)

    def test_outputs_are_read_only(self):
        element = AlgebraElement(a=(Fraction(1), Fraction(2)),
                                 b=(Fraction(-1), Fraction(1, 2)), c=Fraction(1))
        outputs = [apply_position(PACKET, 0), apply_momentum(PACKET, 1),
                   apply_u(PACKET, (0.1, 0.2)), apply_v(PACKET, (0.1, 0.2)),
                   apply_w(PACKET, 0.1, 0.2), quantize_apply(element, PACKET)]
        for out in outputs:
            assert not out.values.flags.writeable
            with pytest.raises(ValueError):
                out.values[0, 0] = 1.0
