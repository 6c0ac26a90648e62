import json
import math

import numpy as np
import pytest

from ncplane.grid import (
    MAX_GRID_N,
    GridSpec,
    TailOverflow,
    Wavefunction,
    gaussian,
    inner,
    norm,
    normalized,
    spectral_derivative,
    spectral_translate,
    wavefunction_from_json,
    wavefunction_to_json,
)

SPEC = GridSpec(n=128, l=16.0, theta=0.25)


class TestGridSpec:
    @pytest.mark.parametrize("n", [15, 20, 100, 8, 0, -16])
    def test_bad_sizes(self, n):
        with pytest.raises(ValueError):
            GridSpec(n=n, l=10.0, theta=0.0)

    @pytest.mark.parametrize("n", [16, 32, 256])
    def test_good_sizes(self, n):
        assert GridSpec(n=n, l=10.0, theta=0.0).n == n

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            GridSpec(n=32, l=0.0, theta=0.0)
        with pytest.raises(ValueError):
            GridSpec(n=32, l=-1.0, theta=0.0)
        with pytest.raises(ValueError):
            GridSpec(n=32, l=10.0, theta=0.0, hbar=0.0)

    @pytest.mark.parametrize("field", ["l", "theta", "hbar"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_fields_are_named(self, field, value):
        fields = {"n": 32, "l": 10.0, "theta": 0.1, "hbar": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            GridSpec(**fields)

    # 2l/n overflows to inf at the first; at the others pi/step does
    @pytest.mark.parametrize("n, l", [(64, 1e308), (16, 5e-324), (64, 1e-320)])
    def test_step_out_of_float_range_names_l(self, n, l):
        with pytest.raises(ValueError, match="^l must give a finite grid step"):
            GridSpec(n=n, l=l, theta=0.1)

    def test_extreme_but_representable_step_is_fine(self):
        spec = GridSpec(n=64, l=1e-300, theta=0.1)
        assert np.isfinite(spec.wavenumbers()).all()
        assert np.isfinite(GridSpec(n=64, l=1e300, theta=0.1).axis_points()).all()

    def test_size_cap(self):
        # constructing the spec allocates only its two axis arrays
        assert GridSpec(n=MAX_GRID_N, l=10.0, theta=0.0).n == MAX_GRID_N
        with pytest.raises(ValueError, match=f"^n must be at most {MAX_GRID_N}"):
            GridSpec(n=2 * MAX_GRID_N, l=10.0, theta=0.0)
        with pytest.raises(ValueError, match="^n must be at most"):
            GridSpec(n=2 ** 40, l=10.0, theta=0.0)

    def test_axis_arrays_are_cached_and_frozen(self):
        assert SPEC.wavenumbers() is SPEC.wavenumbers()
        assert SPEC.axis_points() is SPEC.axis_points()
        for array in (SPEC.wavenumbers(), SPEC.axis_points()):
            assert not array.flags.writeable

    def test_negative_theta_is_fine(self):
        assert GridSpec(n=32, l=10.0, theta=-0.7).theta == -0.7

    def test_axis_points(self):
        spec = GridSpec(n=16, l=8.0, theta=0.0)
        assert spec.step == 1.0
        points = spec.axis_points()
        assert points[0] == -8.0
        assert points[-1] == 7.0


class TestWavefunction:
    def test_values_are_frozen(self):
        wfn = gaussian(SPEC)
        assert not wfn.values.flags.writeable
        with pytest.raises(ValueError):
            wfn.values[0, 0] = 1.0

    def test_holds_a_private_copy_of_the_callers_array(self):
        values = gaussian(SPEC).values.copy()
        wfn = Wavefunction(SPEC, values)
        values[0, 0] = 7.0
        values[SPEC.n // 2, SPEC.n // 2] = 7.0
        assert wfn.values[0, 0] != 7.0
        assert wfn.values[SPEC.n // 2, SPEC.n // 2] != 7.0
        assert not wfn.values.flags.writeable

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Wavefunction(SPEC, np.zeros((4, 4), dtype=complex))

    def test_norm_inner_consistency(self):
        wfn = gaussian(SPEC, center=(1.0, -2.0), sigma=1.5)
        ip = inner(wfn, wfn)
        assert ip.imag == pytest.approx(0.0, abs=1e-14)
        assert ip.real == pytest.approx(norm(wfn) ** 2, rel=1e-12)

    def test_inner_rejects_mismatched_grids(self):
        other = GridSpec(n=64, l=16.0, theta=0.25)
        with pytest.raises(ValueError):
            inner(gaussian(SPEC), gaussian(other))

    def test_normalized(self):
        wfn = Wavefunction(SPEC, 3.0 * gaussian(SPEC).values)
        assert norm(normalized(wfn)) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ValueError):
            normalized(Wavefunction(SPEC, np.zeros((SPEC.n, SPEC.n))))


class TestGaussian:
    def test_is_normalized(self):
        assert norm(gaussian(SPEC, sigma=2.0)) == pytest.approx(1.0, rel=1e-12)

    def test_tail_guard(self):
        with pytest.raises(TailOverflow):
            gaussian(SPEC, center=(11.0, 0.0), sigma=1.0)
        with pytest.raises(TailOverflow):
            gaussian(SPEC, center=(0.0, -11.0), sigma=1.0)
        # 6 sigma alone must clear the half-width
        with pytest.raises(TailOverflow):
            gaussian(SPEC, sigma=3.0)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian(SPEC, sigma=0.0)

    def test_momentum_boost_changes_phase_not_density(self):
        base = gaussian(SPEC, sigma=1.0)
        boosted = gaussian(SPEC, sigma=1.0, momentum=(2.0, -1.0))
        assert np.allclose(np.abs(base.values), np.abs(boosted.values))
        assert not np.allclose(base.values, boosted.values)


class TestSpectralOps:
    def test_derivative_matches_analytic_gaussian(self):
        sigma = 1.5
        wfn = gaussian(SPEC, sigma=sigma)
        q1, _ = SPEC.meshes()
        derived = spectral_derivative(SPEC, wfn.values, axis=0)
        analytic = -q1 / (2.0 * sigma ** 2) * wfn.values
        assert np.allclose(derived, analytic, atol=1e-10)

    def test_derivative_axis_1(self):
        sigma = 1.5
        wfn = gaussian(SPEC, sigma=sigma)
        _, q2 = SPEC.meshes()
        derived = spectral_derivative(SPEC, wfn.values, axis=1)
        analytic = -q2 / (2.0 * sigma ** 2) * wfn.values
        assert np.allclose(derived, analytic, atol=1e-10)

    def test_translate_moves_the_center(self):
        moved = spectral_translate(SPEC, gaussian(SPEC).values, (1.5, -2.0))
        direct = gaussian(SPEC, center=(1.5, -2.0)).values
        assert np.allclose(moved, direct, atol=1e-10)

    def test_translate_preserves_norm(self):
        wfn = gaussian(SPEC, sigma=0.8)
        moved = Wavefunction(SPEC, spectral_translate(SPEC, wfn.values, (0.37, 1.91)))
        assert norm(moved) == pytest.approx(norm(wfn), rel=1e-12)

    def test_translations_compose(self):
        values = gaussian(SPEC, momentum=(1.0, 0.5)).values
        once = spectral_translate(SPEC, values, (1.0, -0.5))
        once = spectral_translate(SPEC, once, (-0.25, 0.75))
        combined = spectral_translate(SPEC, values, (0.75, 0.25))
        assert np.allclose(once, combined, atol=1e-12)


class TestSerialization:
    def test_round_trip(self):
        spec = GridSpec(n=16, l=8.0, theta=0.1, hbar=2.0)
        wfn = gaussian(spec, center=(0.5, -0.25), sigma=0.9, momentum=(1.0, 0.0))
        restored = wavefunction_from_json(wavefunction_to_json(wfn))
        assert restored.spec == spec
        assert np.allclose(restored.values, wfn.values)

    def test_rejects_wrong_format_tag(self):
        spec = GridSpec(n=16, l=8.0, theta=0.0)
        payload = json.loads(wavefunction_to_json(gaussian(spec, sigma=0.9)))
        payload["format"] = "wfn-json/9"
        with pytest.raises(ValueError):
            wavefunction_from_json(json.dumps(payload))

    def test_rejects_mismatched_lengths(self):
        spec = GridSpec(n=16, l=8.0, theta=0.0)
        payload = json.loads(wavefunction_to_json(gaussian(spec, sigma=0.9)))
        payload["re"] = payload["re"][:-1]
        with pytest.raises(ValueError):
            wavefunction_from_json(json.dumps(payload))

    def test_rejects_missing_field(self):
        spec = GridSpec(n=16, l=8.0, theta=0.0)
        payload = json.loads(wavefunction_to_json(gaussian(spec, sigma=0.9)))
        del payload["hbar"]
        with pytest.raises(ValueError):
            wavefunction_from_json(json.dumps(payload))

    def test_rejects_non_finite(self):
        spec = GridSpec(n=16, l=8.0, theta=0.0)
        payload = json.loads(wavefunction_to_json(gaussian(spec, sigma=0.9)))
        payload["re"][3] = 1e400   # serializes as Infinity
        with pytest.raises(ValueError):
            wavefunction_from_json(json.dumps(payload))

    @pytest.mark.parametrize("field, value", [
        ("theta", math.nan), ("l", math.inf), ("n", 2 * MAX_GRID_N)])
    def test_rejects_out_of_range_grid(self, field, value):
        spec = GridSpec(n=16, l=8.0, theta=0.0)
        payload = json.loads(wavefunction_to_json(gaussian(spec, sigma=0.9)))
        payload[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be"):
            wavefunction_from_json(json.dumps(payload))

    def test_rejects_bad_grid_size(self):
        spec = GridSpec(n=16, l=8.0, theta=0.0)
        payload = json.loads(wavefunction_to_json(gaussian(spec, sigma=0.9)))
        payload["n"] = 12
        with pytest.raises(ValueError):
            wavefunction_from_json(json.dumps(payload))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            wavefunction_from_json("not json at all {")
        with pytest.raises(ValueError):
            wavefunction_from_json(json.dumps({"format": "wfn-json/1", "n": 16}))
