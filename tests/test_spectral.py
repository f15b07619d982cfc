"""Mode assembly and merged-spectrum solves.

Hand-checkable anchors: on the hemisphere the mode-reduced eigenfunctions
are polynomial, so small bases resolve d(d + n - 2) exactly; on tiny caps
the scaled spectrum must approach the flat-disk Bessel values computed by
the series oracle in oracles.py.
"""

import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capspec import linalg, quadrature, spectral
from capspec.bounds import EigenSequence
from capspec.errors import (
    CapspecError,
    ModeCapTooSmall,
    MonotonicityViolation,
    NotPositiveDefinite,
    NumericalError,
    QuadratureNotConverged,
    ValidationError,
)
from capspec.io import read_spectrum, spectrum_to_doc
from capspec.linalg import _inverted, generalized_sym_eigen
from capspec.quadrature import gauss_jacobi_pair, gauss_jacobi_rule
from capspec.radial import multiplicity, operator_coeffs
from capspec.spectral import (
    ConvergenceStudy,
    Problem,
    SolverConfig,
    Spectrum,
    _convergence_estimates,
    _form_orders,
    _leading_values,
    _merge,
    _merge_key,
    _raw_forms,
    _solve_mode,
    assemble_mode,
    convergence_study,
    solve_spectrum,
)

from oracles import bessel_first_zero, legendre_membrane_ground


def hemi(n, p, problem, N=16, K=6, **kw):
    return SolverConfig(n=n, p=p, theta0=math.pi / 2, problem=problem,
                        basis_size=N, requested_count=K, **kw)


class TestHemisphereClosedForms:
    def test_n2_membrane_spectrum(self):
        # Dirichlet values on the half-sphere are d(d+1) with the expected
        # multiplicities: 2, 6, 6, 12, 12, 12.
        spec = solve_spectrum(hemi(2, 1, Problem.CLAMPED))
        assert np.allclose(spec.expanded_values(), [2, 6, 6, 12, 12, 12],
                           rtol=0, atol=1e-10)

    def test_n2_entry_structure(self):
        spec = solve_spectrum(hemi(2, 1, Problem.CLAMPED))
        got = [(e.l, e.radial_index, e.multiplicity) for e in spec.entries]
        assert got == [(0, 0, 1), (1, 0, 2), (2, 0, 2), (0, 1, 1)]

    def test_n3_ground_value(self):
        spec = solve_spectrum(hemi(3, 1, Problem.CLAMPED, K=1))
        assert abs(spec.expanded_values()[0] - 3.0) < 1e-10

    def test_mode0_n2_radial_values(self):
        # l = 0 keeps the odd-degree values d(d+1), d = 1, 3, 5.
        radial_values, _, _ = _solve_mode(hemi(2, 1, Problem.CLAMPED), 0)
        assert np.allclose(radial_values[:3], [2, 12, 30], rtol=0, atol=1e-9)

    def test_assembled_forms_ground_value(self):
        a_form, b_form, _ = assemble_mode(hemi(2, 1, Problem.CLAMPED), 0)
        pairs = generalized_sym_eigen(a_form, b_form)
        assert abs(pairs.values[0] - 2.0) < 1e-10


class TestAssembly:
    def test_forms_nearly_symmetric_odd_order(self):
        cfg = SolverConfig(n=3, p=3, theta0=1.0, problem=Problem.CLAMPED,
                           basis_size=24, requested_count=8)
        a_form, b_form, health = assemble_mode(cfg, 1)
        assert health["max_form_asymmetry"] < 1e-10
        assert np.array_equal(a_form, a_form.T) and np.array_equal(b_form, b_form.T)

    def test_forms_nearly_symmetric_buckling(self):
        cfg = SolverConfig(n=3, p=3, theta0=1.0, problem=Problem.BUCKLING,
                           basis_size=24, requested_count=8)
        a_form, b_form, health = assemble_mode(cfg, 1)
        assert health["max_form_asymmetry"] < 1e-10
        assert np.array_equal(a_form, a_form.T) and np.array_equal(b_form, b_form.T)

    def test_health_is_the_worst_of_both_forms(self):
        # referee: the defect and doubling gap of each raw form, taken by hand
        cfg = SolverConfig(n=3, p=3, theta0=1.0, problem=Problem.BUCKLING,
                           basis_size=24, requested_count=8)
        coarse, fine = _raw_forms(cfg, 1)
        scales = [float(np.max(np.abs(f))) for f in fine]
        defects = [float(np.max(np.abs(f - f.T))) / m for f, m in zip(fine, scales)]
        gaps = [float(np.max(np.abs(c - f))) / m for c, f, m in zip(coarse, fine, scales)]
        a_form, b_form, health = assemble_mode(cfg, 1)
        assert health == {"max_form_asymmetry": max(defects), "quad_doubling_gap": max(gaps)}
        assert np.array_equal(a_form, (fine[0] + fine[0].T) / 2.0)
        assert np.array_equal(b_form, (fine[1] + fine[1].T) / 2.0)

    def test_asymmetric_form_warns_and_is_recorded(self, monkeypatch):
        # a stiffness form pushed 1e-6 (relative) out of symmetry at both
        # node counts passes the doubling check, warns once per reached mode
        # past ASYMMETRY_WARN (the stacked first block warns of none: it is
        # dropped and its modes are solved alone as the mode loop reaches
        # them), and the worst defect is the recorded diagnostic
        bump = 1e-6
        assert bump > spectral.ASYMMETRY_WARN
        unwrapped = spectral._raw_forms

        def skewed(*args):
            coarse, fine = unwrapped(*args)
            for forms in (coarse, fine):
                stiffness = forms[..., 0, :, :]
                stiffness[..., 0, 1] += bump * np.max(np.abs(stiffness), axis=(-2, -1))
            return coarse, fine

        monkeypatch.setattr(spectral, "_raw_forms", skewed)
        cfg = hemi(2, 2, Problem.BUCKLING, N=16, K=4)
        defects = [assemble_mode(cfg, l)[2]["max_form_asymmetry"] for l in range(3)]
        assert all(bump * (1 - 1e-6) < d < bump * (1 + 1e-6) for d in defects)
        with pytest.warns(RuntimeWarning, match="form asymmetry defect") as record:
            spec = solve_spectrum(cfg)
        reached = range(spec.diagnostics["l_max"] + 1)
        assert [str(w.message).split(" at mode ")[1].split()[0] for w in record] == [
            str(l) for l in reached]
        assert spec.diagnostics["max_form_asymmetry"] == max(
            assemble_mode(cfg, l)[2]["max_form_asymmetry"]
            for l in range(spec.diagnostics["l_max"] + 1))
        assert spectrum_to_doc(spec)["meta"]["max_form_asymmetry"] > spectral.ASYMMETRY_WARN

    def test_quad_doubling_stability(self):
        # a fixed rule at the automatic base size and one at twice that must
        # give the same eigenvalues to well below the doubling tolerance
        base = SolverConfig(n=3, p=2, theta0=1.2, problem=Problem.BUCKLING,
                            basis_size=16, requested_count=6)
        coarse = SolverConfig(n=3, p=2, theta0=1.2, problem=Problem.BUCKLING,
                              basis_size=16, requested_count=6,
                              quad_size=base.quad_base)
        fine = SolverConfig(n=3, p=2, theta0=1.2, problem=Problem.BUCKLING,
                            basis_size=16, requested_count=6,
                            quad_size=2 * base.quad_base)
        va = solve_spectrum(coarse).expanded_values()
        vb = solve_spectrum(fine).expanded_values()
        assert np.max(np.abs(va - vb) / vb) < 1e-9

    @pytest.mark.parametrize("n,p,basis,base", [
        (2, 2, 32, 50), (4, 2, 32, 51), (6, 3, 16, 37), (2, 1, 8, 25),
        (3, 2, 32, 82), (5, 3, 16, 52),
        # never above 2 (p + N - 1) + 16, the base of odd n
        (66, 1, 16, 48), (1000, 2, 32, 82)])
    def test_quad_base_by_parity(self, n, p, basis, base):
        # even n: p + N + 16 + (n - 2)/2 nodes integrate every form of mode
        # l <= 16 exactly; odd n: 2 (p + N - 1) + 16
        cfg = SolverConfig(n=n, p=p, theta0=1.0, problem=Problem.CLAMPED,
                           basis_size=basis, requested_count=4)
        assert cfg.quad_base == base
        assert replace(cfg, quad_size=40).quad_base == 40

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("p,problem", [(1, Problem.CLAMPED), (2, Problem.CLAMPED),
                                           (3, Problem.CLAMPED), (2, Problem.BUCKLING)])
    def test_even_n_base_rule_exact_to_mode_16(self, n, p, problem):
        # for even n the form integrands of mode l are polynomials of degree
        # 2 (p + N - 1) + 2l + n - 2, which the automatic base rule integrates
        # exactly up to l = 16: its forms equal those of a rule 4x its size
        # to roundoff (measured <= 2.1e-15), and at l = 20 they do not
        # (measured 3.7e-11 to 1.8e-9)
        cfg = SolverConfig(n=n, p=p, theta0=2.6, problem=problem, basis_size=32)
        wide = replace(cfg, quad_size=4 * cfg.quad_base)
        modes = list(range(17)) + [20]
        base = [_raw_forms(cfg, l)[0] for l in modes]
        ref = [_raw_forms(wide, l)[0] for l in modes]
        gaps = [np.max(np.abs(b - r), axis=(1, 2)) / np.max(np.abs(r), axis=(1, 2))
                for b, r in zip(base, ref)]
        assert max(np.max(g) for g in gaps[:-1]) <= 1e-14
        assert np.max(gaps[-1]) > 1e-12

    def test_underresolved_quadrature_raises(self):
        cfg = SolverConfig(n=2, p=2, theta0=1.0, problem=Problem.CLAMPED,
                           basis_size=16, quad_size=4, requested_count=8)
        with pytest.raises(QuadratureNotConverged):
            assemble_mode(cfg, 0)

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_trial_jets_match_chebder(self, p):
        # referee: the k-th derivative of q_j = a^p (1 + s)^p T_j(s), a the
        # half-width (1 - x0)/2, from numpy's Chebyshev product and
        # derivative, at both rules' nodes; rows past the degree vanish
        orders = p + 3
        for basis_size in (1, 8, 33):
            for theta0 in (0.6, math.pi / 2, 2.6):
                a = math.sin(theta0 / 2.0) ** 2
                spectral._trial_jets.cache_clear()
                jets = spectral._trial_jets(p, basis_size, a, 0.0, 20, orders)
                s, _ = spectral._shared_rule(0.0, 20)
                assert jets.shape == (basis_size, orders, 60)
                factor = a ** p * np.polynomial.chebyshev.chebpow([1.0, 1.0], p)
                for j in range(basis_size):
                    coeffs = np.polynomial.chebyshev.chebmul(factor, np.eye(j + 1)[j])
                    for k in range(orders):
                        want = np.polynomial.chebyshev.chebval(
                            s, np.polynomial.chebyshev.chebder(coeffs, k))
                        scale = np.max(np.abs(want))
                        assert np.max(np.abs(jets[j, k] - want)) <= 1e-13 * scale, (j, k)

    def test_operator_self_adjoint_under_weight(self):
        # integral (Dq1) q2 w == integral q1 (Dq2) w once both factors vanish
        # at x0 (the weight kills the x = 1 boundary term)
        rng = np.random.RandomState(7)
        for l, n, theta0 in ((0, 2, 1.1), (1, 3, 0.7), (2, 4, 2.0)):
            gamma = l + (n - 2) / 2.0
            s, w = gauss_jacobi_rule(gamma, 40)
            a = math.sin(theta0 / 2.0) ** 2  # the half-width (1 - x0)/2
            # 1 + x = 2 - a (1 - s)
            eff_w = w * a ** (gamma + 1.0) * (2.0 - a * (1.0 - s)) ** gamma
            for _ in range(3):
                # prefix a simple zero at x0: multiply by (x - x0) = a(s + 1)
                lin = a * np.array([1.0, 1.0])
                c1 = np.zeros(10)
                c2 = np.zeros(10)
                p1 = np.polynomial.chebyshev.chebmul(lin, rng.randint(-5, 6, size=6).astype(float))
                p2 = np.polynomial.chebyshev.chebmul(lin, rng.randint(-5, 6, size=6).astype(float))
                c1[: len(p1)] = p1
                c2[: len(p2)] = p2
                # jets (q, q', q'') at the nodes, from numpy's Chebyshev derivative
                j1, j2 = ([np.polynomial.chebyshev.chebval(s, np.polynomial.chebyshev.chebder(c, k))
                           for k in range(3)] for c in (c1, c2))
                v1, v2 = j1[0], j2[0]
                (dv1,), (dv2,) = (operator_coeffs(np.array(j), l, n, a, s) for j in (j1, j2))
                lhs = float(np.sum(dv1 * v2 * eff_w))
                rhs = float(np.sum(v1 * dv2 * eff_w))
                scale = max(abs(lhs), abs(rhs), 1.0)
                assert abs(lhs - rhs) < 1e-11 * scale


class TestSpectrumStructure:
    def test_buckling_dominates_membrane(self):
        for n, theta0 in ((2, math.pi / 2), (3, 1.3)):
            buck = SolverConfig(n=n, p=2, theta0=theta0, problem=Problem.BUCKLING,
                                basis_size=20, requested_count=1)
            memb = SolverConfig(n=n, p=1, theta0=theta0, problem=Problem.CLAMPED,
                                basis_size=20, requested_count=1)
            big = solve_spectrum(buck).expanded_values()[0]
            small = solve_spectrum(memb).expanded_values()[0]
            assert big >= small - 1e-12 * small

    def test_ground_value_shrinks_with_cap(self):
        values = []
        for theta0 in (0.8, 1.4, 2.0):
            cfg = SolverConfig(n=3, p=2, theta0=theta0, problem=Problem.CLAMPED,
                               basis_size=24, requested_count=1)
            values.append(solve_spectrum(cfg).expanded_values()[0])
        assert values[0] > values[1] > values[2]

    def test_expanded_values_sorted_and_sized(self):
        cfg = SolverConfig(n=4, p=2, theta0=1.0, problem=Problem.BUCKLING,
                           basis_size=20, requested_count=10)
        spec = solve_spectrum(cfg)
        vals = spec.expanded_values()
        assert len(vals) == 10
        assert np.all(np.diff(vals) >= 0)
        total = sum(e.multiplicity for e in spec.entries)
        without_last = total - spec.entries[-1].multiplicity
        assert total >= 10 > without_last

    def test_mode_cap_too_small(self):
        with pytest.raises(ModeCapTooSmall):
            solve_spectrum(hemi(2, 1, Problem.CLAMPED, mode_cap=2))

    def test_auto_cap_matches_fixed(self):
        auto = solve_spectrum(hemi(3, 2, Problem.BUCKLING, N=20, K=8))
        fixed = solve_spectrum(hemi(3, 2, Problem.BUCKLING, N=20, K=8,
                                    mode_cap=auto.diagnostics["l_max"]))
        assert np.array_equal(auto.expanded_values(), fixed.expanded_values())

    def test_deterministic(self):
        cfg = SolverConfig(n=3, p=3, theta0=1.9, problem=Problem.BUCKLING,
                           basis_size=20, requested_count=6)
        va = solve_spectrum(cfg).expanded_values()
        vb = solve_spectrum(cfg).expanded_values()
        assert np.array_equal(va, vb)

    def test_tie_order_ignores_last_bit(self):
        # the n=2 clamped hemisphere has (l=2, j=0) and (l=0, j=1) both at 12;
        # whichever of them rounds high, radial index 0 comes first
        up, down = math.nextafter(12.0, 13.0), math.nextafter(12.0, 11.0)
        for v_mode2, v_mode0 in ((up, down), (down, up), (12.0, 12.0)):
            records = [(v_mode0, 0, 1), (v_mode2, 2, 0), (6.0, 1, 0)]
            ordered = sorted(records, key=_merge_key)
            assert [(l, j) for _, l, j in ordered] == [(1, 0), (2, 0), (0, 1)]

    @pytest.mark.parametrize("count", [4, 5])
    def test_count_cutting_tie_level(self, count):
        # K = 4 and K = 5 both end inside the level at 12, where (l=2, j=0)
        # and (l=0, j=1) agree to the last bits; the mode loop stops on the
        # same merge as the spectrum it returns
        spec = solve_spectrum(hemi(2, 1, Problem.CLAMPED, K=count))
        assert spec.diagnostics["l_max"] == 3
        assert [(e.l, e.radial_index) for e in spec.entries] == [(0, 0), (1, 0), (2, 0)]
        expected = [2.0, 5.999999999999999, 5.999999999999999,
                    12.000000000000004, 12.000000000000004][:count]
        assert np.allclose(spec.expanded_values(), expected, rtol=0, atol=1e-12)

    def test_level_values_ascend(self):
        # the labels keep their tie order and take the level's values in
        # ascending order, so the merged values never descend by an ulp
        up, down = math.nextafter(12.0, 13.0), math.nextafter(12.0, 11.0)
        for v_mode2, v_mode0 in ((up, down), (down, up), (12.0, 12.0)):
            mode_values = [[2.0, v_mode0], [6.0], [v_mode2], [20.0]]
            merged = _merge(mode_values, 2, 8)
            assert [(l, j) for _, l, j in merged] == [
                (0, 0), (1, 0), (2, 0), (0, 1), (3, 0)]
            assert [v for v, _, _ in merged] == sorted(v for vs in mode_values for v in vs)

    def test_merge_reads_radial_indices_below_count(self):
        # a cover of 3 eigenvalues may need radial index 2, never index 3
        assert _merge([[1.0, 2.0, 3.0, 4.0]], 2, 3) == [(1.0, 0, 0), (2.0, 0, 1), (3.0, 0, 2)]
        assert _merge([[1.0, 2.0, 3.0, 4.0]], 2, 5) is None

    def test_guard_flag(self):
        wide = SolverConfig(n=4, p=1, theta0=2.9, problem=Problem.CLAMPED,
                            basis_size=28, requested_count=1)
        assert solve_spectrum(wide).diagnostics["lambda1_guard_ok"] is False
        assert solve_spectrum(hemi(4, 1, Problem.CLAMPED, K=1)).diagnostics[
            "lambda1_guard_ok"] is True

    def test_convergence_estimates_small_on_hemisphere(self):
        spec = solve_spectrum(hemi(3, 2, Problem.BUCKLING, N=24, K=8))
        assert max(spec.diagnostics["convergence"]) < 1e-10

    def test_companion_from_leading_blocks(self):
        # q_j does not depend on N and the reduction's factor is lower
        # triangular, so the companion's reduced pencils are the leading
        # blocks of each mode's one reduced matrix; the estimates are the
        # eigenvalues of those blocks, exactly
        cfg = SolverConfig(n=2, p=3, theta0=1.9, problem=Problem.BUCKLING,
                           basis_size=24, requested_count=8)
        spec = solve_spectrum(cfg)
        size = spec.diagnostics["basis_companion"]
        assert size == 20
        expected = []
        for e in spec.entries:
            _, reduced, _ = _solve_mode(cfg, e.l)
            coarse = _inverted(np.linalg.eigvalsh(reduced[:size, :size]), e.l)
            expected.append(abs(float(coarse[e.radial_index]) - e.value) / e.value)
        assert spec.diagnostics["convergence"] == expected
        assert 0.0 < max(expected) < 1e-6

    @pytest.mark.parametrize("n,p,problem,theta0", [
        (2, 3, Problem.BUCKLING, 2.6), (3, 3, Problem.CLAMPED, 2.6),
        (5, 3, Problem.CLAMPED, 2.6), (4, 3, Problem.BUCKLING, 2.6),
        (2, 1, Problem.CLAMPED, 0.6), (3, 2, Problem.BUCKLING, math.pi / 2),
        (5, 2, Problem.CLAMPED, 1.0)])
    def test_companion_matches_second_reduction(self, n, p, problem, theta0):
        # the leading blocks of one reduction give the companion values that
        # reducing the forms' leading blocks again (a second scaled Cholesky
        # and two more solves) gives, to roundoff
        cfg = SolverConfig(n=n, p=p, theta0=theta0, problem=problem,
                           basis_size=32, requested_count=8)
        spec = solve_spectrum(cfg)
        size = spec.diagnostics["basis_companion"]
        for l in sorted({e.l for e in spec.entries}):
            wanted = [e.radial_index for e in spec.entries if e.l == l]
            _, reduced, _ = _solve_mode(cfg, l)
            one = _inverted(np.linalg.eigvalsh(reduced[:size, :size]), l)[wanted]
            a_form, b_form, _ = assemble_mode(cfg, l)
            second, _, _ = linalg._reduce(b_form[:size, :size], a_form[:size, :size])
            two = _inverted(np.linalg.eigvalsh(second), l)[wanted]
            assert np.max(np.abs(one - two) / two) <= 1e-11, l

    def test_cold_solve_rule_builds(self):
        # one pair request builds the base and the doubled rule, which serve
        # every solved mode (0..4): the
        # rule carries (1 - s)^gamma0 with gamma0 = (n - 2)/2 mod 1 = 0, and
        # the companion reuses the main assembly and builds none; the
        # integrands are polynomials, so p + N + 16 = 50 nodes are exact
        self._assert_two_rule_builds(2, l_max=4, base=50)

    def test_cold_solve_rule_builds_odd_dimension(self):
        # n = 3: gamma0 = 1/2, still one pair request for modes 0..3, of
        # 2 (p + N - 1) + 16 = 82 nodes: (2 - a (1 - s))^(l + 1/2) is no
        # polynomial
        self._assert_two_rule_builds(3, l_max=3, base=82)

    @staticmethod
    def _assert_two_rule_builds(n, l_max, base):
        builds, sizes = [], []

        def counted(gamma, m):
            builds.append((gamma, m))
            rules = gauss_jacobi_pair(gamma, m)
            sizes.extend(len(x) for x, _ in rules)
            return rules

        spectral._shared_rule.cache_clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "gauss_jacobi_pair", counted)
            spec = solve_spectrum(hemi(n, 2, Problem.BUCKLING, N=32, K=8))
        assert spec.diagnostics["l_max"] == l_max
        assert builds == [((n - 2) % 2 / 2.0, base)]
        assert sizes == [base, 2 * base]

    @pytest.mark.parametrize("n", [2, 3])
    def test_cold_solve_rules_need_no_eigensolve(self, monkeypatch, n):
        # n = 2 rules (gamma0 = 0) and n = 3 rules (gamma0 = 1/2) both start
        # from asymptotic nodes; the solver's own eigensolves stay allowed
        seen = []

        def recorder(wrapped):
            def recorded(a, *args, **kwargs):
                if sys._getframe(1).f_globals["__name__"] == quadrature.__name__:
                    seen.append(a.shape[-1])
                return wrapped(a, *args, **kwargs)
            return recorded

        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, recorder(getattr(np.linalg, name)))
        spectral._shared_rule.cache_clear()
        solve_spectrum(hemi(n, 2, Problem.BUCKLING, N=32, K=8))
        assert seen == []

    def test_cold_solve_recurrence_passes_and_eigensolves(self, monkeypatch):
        # the base and doubled rules share one recurrence pass (P_m and
        # P_{m-1} at both rules' nodes give the Newton steps and, through the
        # derivative identity, the weights);
        # modes 0..4 are one block: one stacked reduction (one Cholesky and
        # two solves, each on a stack of five 32-by-32 matrices, so one
        # reduction per mode) and one values-only eigensolve of the stack,
        # and the companions of the modes l = 0..3 that hold the 8 requested
        # values take one stacked values call on 4 leading 28-by-28 blocks,
        # with no reduction of their own; no solve computes eigenvectors
        counts = {"recurrence": 0, "vectors": 0, "reduce": 0, "cholesky": 0, "solve": 0}
        shapes, reduced = [], []

        def counted(key, wrapped):
            def call(*args):
                counts[key] += 1
                return wrapped(*args)
            return call

        eigen = linalg._eigen

        def values_only(c, vectors):
            shapes.append(c.shape)
            return eigen(c, vectors)

        monkeypatch.setattr(quadrature, "_jacobi_recurrence",
                            counted("recurrence", quadrature._jacobi_recurrence))
        monkeypatch.setattr(linalg, "generalized_sym_eigen",
                            counted("vectors", linalg.generalized_sym_eigen))
        def reduction(b, a):
            reduced.append(b.shape)
            return linalg._reduce(b, a)

        monkeypatch.setattr(spectral, "_reduce", counted("reduce", reduction))
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
        monkeypatch.setattr(linalg, "_eigen", values_only)
        spectral._shared_rule.cache_clear()
        solve_spectrum(hemi(2, 2, Problem.BUCKLING, N=32, K=8))
        assert counts == {"recurrence": 1, "vectors": 0, "reduce": 1, "cholesky": 1, "solve": 2}
        assert reduced == [(5, 32, 32)]
        assert shapes == [(5, 32, 32), (4, 28, 28)]

    def test_spectrum_is_the_mode_loop_merge(self, monkeypatch):
        # each solved mode inserts its records into the running merge once
        # (20 per mode at K = 20, modes 0..6), and the spectrum takes the
        # loop's last merge rather than merging again
        keys = []

        def counted(record):
            keys.append(record)
            return _merge_key(record)

        monkeypatch.setattr(spectral, "_merge_key", counted)
        spec = solve_spectrum(hemi(2, 2, Problem.BUCKLING, N=32, K=20))
        assert spec.diagnostics["l_max"] == 6
        assert len(keys) == 20 * 7 == 140
        assert [(e.l, e.radial_index) for e in spec.entries] == [
            (0, 0), (1, 0), (2, 0), (0, 1), (3, 0), (1, 1), (4, 0), (2, 1), (0, 2),
            (5, 0), (3, 1), (1, 2)]
        expected = [6.0, 10.686091807267083, 17.276690818676173, 20.000000000000004,
                    25.802106151646083, 28.711118574717442, 36.27962603963378,
                    39.376657036543065, 41.99999999999999, 48.72013018042282,
                    52.00123640211597, 54.71847407639498]
        got = [e.value for e in spec.entries]
        assert np.allclose(got, expected, rtol=1e-13, atol=0.0)

    def test_asymmetry_diagnostic_tracked(self):
        spec = solve_spectrum(hemi(3, 3, Problem.BUCKLING, N=20, K=4))
        assert 0.0 <= spec.diagnostics["max_form_asymmetry"] < 1e-10

    @pytest.mark.parametrize("p,problem", [(2, Problem.BUCKLING), (3, Problem.CLAMPED)])
    def test_doubling_gap_diagnostic_recorded(self, p, problem):
        # the worst relative node-doubling gap over the solved modes; it
        # stays out of the spectrum file
        spec = solve_spectrum(hemi(2, p, problem, N=16, K=6))
        gap = spec.diagnostics["quad_doubling_gap"]
        assert 0.0 <= gap <= 1e-11
        assert "quad_doubling_gap" not in spectrum_to_doc(spec)["meta"]


def injected(kind, target):
    """A `_raw_forms` that gives mode `target`, wherever it is assembled,
    one failure: a non-finite entry, a stiffness doubling gap of 1e-9 of its
    scale, a stiffness asymmetry of 1e-6 of its scale, a negative first
    stiffness pivot, or a negated mass form (every mu below the band)."""
    unwrapped = spectral._raw_forms

    def forms(cfg, modes):
        coarse, fine = unwrapped(cfg, modes)
        for part, stack in enumerate(f.reshape((-1,) + f.shape[-3:]) for f in (coarse, fine)):
            for i in np.flatnonzero(np.ravel(modes) == target):
                scale = np.max(np.abs(stack[i, 0]))
                if kind == "nonfinite":
                    stack[i, 0, 0, 0] = np.nan
                elif kind == "gap" and part == 0:
                    stack[i, 0, 0, 0] += 1e-9 * scale
                elif kind == "asymmetry":
                    stack[i, 0, 0, 1] += 1e-6 * scale
                elif kind == "indefinite":
                    stack[i, 0, 0, 0] = -stack[i, 0, 0, 0]
                elif kind == "below_band":
                    stack[i, 1] = -stack[i, 1]
                forms.hits += part == 0
        return coarse, fine

    forms.hits = 0
    return forms


def solved_quietly(cfg):
    """solve_spectrum(cfg) and the messages of every warning it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = solve_spectrum(cfg)
    return spec, [str(w.message) for w in caught]


class TestModeBlocks:
    # a cap whose first block (modes 0..4 by the Bessel-zero count) holds
    # one mode past the stop: mode 3 is the last mode the loop reaches
    OVERSHOT = SolverConfig(n=2, p=2, theta0=2.6, problem=Problem.BUCKLING,
                            basis_size=16, requested_count=8)
    FAILURES = ("nonfinite", "gap", "asymmetry", "indefinite", "below_band")
    # class and message of each failure at a reached mode, as the mode-by-mode
    # solver before the blocks gave them
    PARENT = {
        ("nonfinite", 1): (ValidationError, "matrix entries must be finite"),
        ("gap", 1): (QuadratureNotConverged, "stiffness form moved by 6.691e-05 (scale "
                     "6.691e+04) under node doubling 34 -> 68 at mode 1"),
        ("asymmetry", 1): (RuntimeWarning,
                           "form asymmetry defect 1.000e-06 at mode 1 exceeds 1e-08"),
        ("indefinite", 1): (NotPositiveDefinite, "pivot 1 of 16 at or below threshold 1.070e-08"),
        ("below_band", 1): (NumericalError, "nonpositive radial eigenvalue (1/mu with mu = "
                            "-2.592970e-01) at mode 1"),
        ("nonfinite", 3): (ValidationError, "matrix entries must be finite"),
        ("gap", 3): (QuadratureNotConverged, "stiffness form moved by 3.628e-05 (scale "
                     "3.628e+04) under node doubling 34 -> 68 at mode 3"),
        ("asymmetry", 3): (RuntimeWarning,
                           "form asymmetry defect 1.000e-06 at mode 3 exceeds 1e-08"),
        ("indefinite", 3): (NotPositiveDefinite, "pivot 1 of 16 at or below threshold 5.805e-09"),
        ("below_band", 3): (NumericalError, "nonpositive radial eigenvalue (1/mu with mu = "
                            "-7.927654e-02) at mode 3"),
    }

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(2, 5),
           order=st.sampled_from([(1, Problem.CLAMPED), (2, Problem.CLAMPED), (3, Problem.CLAMPED),
                                  (2, Problem.BUCKLING), (3, Problem.BUCKLING)]),
           theta0=st.floats(0.3, 2.8), basis=st.sampled_from([8, 16, 24, 32]),
           start=st.integers(0, 6), length=st.integers(1, 5))
    def test_block_gives_the_bytes_of_blocks_of_one(self, n, order, theta0, basis, start, length):
        # LAPACK runs once per matrix of a stack and every other step is
        # elementwise or per matrix, so a mode's forms, health, reduced
        # matrix and values do not depend on the block it is solved in; a
        # block that fails raises the error of one of its modes alone
        p, problem = order
        cfg = SolverConfig(n=n, p=p, theta0=theta0, problem=problem, basis_size=basis,
                           requested_count=4)
        modes = range(start, start + length)
        alone, errors = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for l in modes:
                try:
                    forms, (health,) = spectral.assemble_modes(cfg, [l])
                    alone.append((forms[0], health, *spectral._solve_block(cfg, [l])[0]))
                except (CapspecError, RuntimeWarning) as err:
                    errors.append((type(err), str(err)))
            try:
                forms, health = spectral.assemble_modes(cfg, modes)
                solved = spectral._solve_block(cfg, modes)
            except (CapspecError, RuntimeWarning) as err:
                assert (type(err), str(err)) in errors
                return
        assert not errors and forms.shape == (length, 2, basis, basis)
        for one, block in zip(alone, zip(forms, health, *zip(*solved))):
            one_forms, one_health, values, reduced, solve_health = one
            assert one_forms.tobytes() == block[0].tobytes()
            assert one_health == block[1] == solve_health == block[4]
            assert values.tobytes() == block[2].tobytes()
            assert reduced.tobytes() == block[3].tobytes()

    @pytest.mark.parametrize("kind", FAILURES)
    def test_failure_past_the_stop_has_no_effect(self, monkeypatch, kind):
        clean, clean_warnings = solved_quietly(self.OVERSHOT)
        assert clean.diagnostics["l_max"] == 3
        hook = injected(kind, 4)
        monkeypatch.setattr(spectral, "_raw_forms", hook)
        spec, caught = solved_quietly(self.OVERSHOT)
        assert hook.hits == 1  # mode 4 was assembled, in the first block
        assert caught == clean_warnings == []
        assert spec.entries == clean.entries
        assert spec.diagnostics == clean.diagnostics
        assert spectrum_to_doc(spec) == spectrum_to_doc(clean)

    @pytest.mark.parametrize("target", [1, 3])
    @pytest.mark.parametrize("kind", FAILURES)
    def test_failure_at_a_reached_mode_raises_as_before(self, monkeypatch, kind, target):
        monkeypatch.setattr(spectral, "_raw_forms", injected(kind, target))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Exception) as err:
                solve_spectrum(self.OVERSHOT)
        kind_of, message = self.PARENT[kind, target]
        assert type(err.value) is kind_of and str(err.value) == message

    @pytest.mark.parametrize("n,l_max", [(2, 4), (3, 3), (4, 3)])
    @pytest.mark.parametrize("p", [2, 3])
    def test_one_block_holds_the_benchmark_modes(self, monkeypatch, n, l_max, p):
        # on every benchmark cap the Bessel-zero count names exactly the
        # modes the solve needs, so they are one block and nothing else
        calls = []
        unwrapped = spectral._solve_block

        def counted(cfg, modes, strict=False):
            calls.append(list(modes))
            return unwrapped(cfg, modes, strict)

        monkeypatch.setattr(spectral, "_solve_block", counted)
        for cap in (1, 1.125, 1.2, 4 / 3, 1.5, 5 / 3, 1.8, 1.875, 2):
            calls.clear()
            spec = solve_spectrum(SolverConfig(n=n, p=p, theta0=cap * math.pi / 3,
                                               problem=Problem.BUCKLING))
            assert spec.diagnostics["l_max"] == l_max, cap
            assert calls == [list(range(l_max + 1))], cap

    def test_first_block_fits_the_image_limit(self, monkeypatch):
        # with room for the images of three modes only, modes 0..2 are one
        # block and every later mode is solved alone; the spectrum is the
        # same to the last bit
        cfg = hemi(2, 2, Problem.BUCKLING, N=32, K=8)
        whole = solve_spectrum(cfg)
        calls = []
        unwrapped = spectral._solve_block

        def counted(cfg, modes, strict=False):
            calls.append(list(modes))
            return unwrapped(cfg, modes, strict)

        monkeypatch.setattr(spectral, "_solve_block", counted)
        monkeypatch.setattr(spectral, "BLOCK_JET_ENTRIES", 3 * spectral._jet_entries(cfg) + 1)
        spec = solve_spectrum(cfg)
        assert calls == [[0, 1, 2], [3], [4]]
        assert spec.entries == whole.entries and spec.diagnostics == whole.diagnostics


def referee_jets(cfg, s, orders):
    """The jets of the trial functions at the nodes s, from numpy's
    Chebyshev product and derivative, stacked (N, orders, len(s))."""
    cheb = np.polynomial.chebyshev
    factor = cfg.half_width ** cfg.p * cheb.chebpow([1.0, 1.0], cfg.p)
    return np.array([[cheb.chebval(s, cheb.chebder(cheb.chebmul(factor, np.eye(j + 1)[j]), k))
                      for k in range(orders)] for j in range(cfg.basis_size)])


def per_mode_forms(cfg, l, quad_m):
    """The forms of mode l from a rule for the full exponent
    gamma = l + (n - 2)/2, as the solver built them before every mode shared
    one rule per weight parity, with the referee's trial jets."""
    a = cfg.half_width
    gamma = l + (cfg.n - 2) / 2.0
    s, w = gauss_jacobi_rule(gamma, quad_m)
    eff_w = w * a ** (gamma + 1.0) * (2.0 - a * (1.0 - s)) ** gamma
    forms = _form_orders(cfg)
    top = max(k for _, _, k in forms)
    image = referee_jets(cfg, s, 2 * top + 1)
    sampled = [image[:, 0]]
    for _ in range(top):
        image = operator_coeffs(image, l, cfg.n, a, s)
        sampled.append(image[:, 0])
    return [((sign * sampled[i]) * eff_w) @ sampled[k].T for sign, i, k in forms]


class TestSharedRuleAgainstPerModeRule:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("theta0", [math.pi / 3, math.pi / 2])
    @pytest.mark.parametrize("p,problem", [(2, Problem.BUCKLING), (3, Problem.CLAMPED)])
    def test_forms_match(self, n, theta0, p, problem):
        cfg = SolverConfig(n=n, p=p, theta0=theta0, problem=problem,
                           basis_size=16, requested_count=6)
        for l in range(5):
            shared = _raw_forms(cfg, l)
            for quad_m, forms in zip((cfg.quad_base, 2 * cfg.quad_base), shared):
                for got, want in zip(forms, per_mode_forms(cfg, l, quad_m)):
                    scale = np.max(np.abs(want))
                    assert np.max(np.abs(got - want)) <= 1e-12 * scale, (l, quad_m)


def unshared_forms(cfg, l):
    """The (coarse, fine) forms with the sign on the left factor and every
    factor D^i q taken from the trial jets on its own, as the solver built
    them before its factors were shared."""
    a = cfg.half_width
    base = cfg.quad_base
    gamma0 = cfg.n % 2 / 2.0
    shift = l + (cfg.n - 2) // 2
    gamma = gamma0 + shift
    s, w = spectral._shared_rule(gamma0, base)
    eff_w = w * a ** (gamma + 1.0) * (1.0 - s) ** shift * (2.0 - a * (1.0 - s)) ** gamma
    jets = spectral._trial_jets(cfg.p, cfg.basis_size, a, gamma0, base,
                                spectral._jet_orders(cfg))

    def factor(i, part):
        image = jets
        for _ in range(i):
            image = operator_coeffs(image, l, cfg.n, a, s)
        return image[:, 0, part]

    return [[((sign * factor(i, part)) * eff_w[part]) @ factor(k, part).T
             for sign, i, k in _form_orders(cfg)]
            for part in (slice(0, base), slice(base, None))]


class TestSharedFactors:
    # (sign, i, k) of the stiffness and the mass form:
    # sign * integral (D^i q) (D^k q) w
    FORMS = {
        (1, Problem.CLAMPED): ((-1.0, 0, 1), (1.0, 0, 0)),
        (2, Problem.CLAMPED): ((1.0, 1, 1), (1.0, 0, 0)),
        (3, Problem.CLAMPED): ((-1.0, 1, 2), (1.0, 0, 0)),
        (4, Problem.CLAMPED): ((1.0, 2, 2), (1.0, 0, 0)),
        (2, Problem.BUCKLING): ((1.0, 1, 1), (-1.0, 0, 1)),
        (3, Problem.BUCKLING): ((-1.0, 1, 2), (-1.0, 0, 1)),
        (4, Problem.BUCKLING): ((1.0, 2, 2), (-1.0, 0, 1)),
    }

    @pytest.mark.parametrize("p,problem", sorted(FORMS))
    def test_factors_named_once(self, p, problem):
        # an even-order stiffness form pairs one factor with itself, and at
        # p in {2, 3} the buckling mass form's right factor D q is the
        # stiffness form's left one; the jets reach order 2 top, top the
        # most operator applications a factor needs
        cfg = SolverConfig(n=3, p=p, theta0=1.2, problem=problem,
                           basis_size=12, requested_count=4)
        forms = _form_orders(cfg)
        assert forms == self.FORMS[p, problem]
        assert spectral._jet_orders(cfg) == 1 + 2 * max(k for _, _, k in forms)

    @pytest.mark.parametrize("p,problem", sorted(FORMS))
    @pytest.mark.parametrize("n", [2, 3])
    def test_forms_bitwise_as_unshared(self, p, problem, n):
        cfg = SolverConfig(n=n, p=p, theta0=2.1, problem=problem,
                           basis_size=16, requested_count=6)
        for l in (0, 3):
            shared = _raw_forms(cfg, l)
            for quad_m, forms, want_forms in zip((cfg.quad_base, 2 * cfg.quad_base), shared,
                                                 unshared_forms(cfg, l)):
                for got, want in zip(forms, want_forms):
                    assert got.tobytes() == want.tobytes(), (l, quad_m)


class TestRoundoffRadialValues:
    """A mode's smallest mu belongs to its largest lambda, which no solve
    reports; within 4 * size * eps * mu_max of 0 its sign is roundoff."""

    def test_roundoff_mu_inverts_to_inf(self):
        size = 8
        floor = 4 * size * np.finfo(float).eps
        for low in (-0.99 * floor, 0.0, -0.0):
            mu = np.array([low, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 1.0])
            lam = _inverted(mu, 3)
            assert np.array_equal(lam[:-1], 1.0 / mu[:0:-1]) and lam[-1] == np.inf

    @pytest.mark.parametrize("low,top", [(-1e-10, 1.0), (-1.01 * 4 * 8 * 2.0**-52, 1.0),
                                         (-1e-3, -1e-20), (0.0, 0.0)])
    def test_below_the_band_refused(self, low, top):
        mu = np.array([low] + [top] * 7)
        with pytest.raises(NumericalError) as err:
            _inverted(mu, 3)
        assert str(err.value) == (f"nonpositive radial eigenvalue (1/mu with mu = "
                                  f"{low:.6e}) at mode 3")

    def test_reduced_matrix_below_the_band_raises(self):
        # a reduced matrix whose smallest mu is -1e-10 mu_max
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((12, 12)))
        mu = np.r_[-1e-10, np.linspace(0.1, 1.0, 11)]
        reduced = (q * mu) @ q.T
        with pytest.raises(NumericalError, match="nonpositive radial eigenvalue"):
            _leading_values({0: (reduced + reduced.T) / 2.0}, [0], 12)

    def test_estimate_from_a_lost_value_refused(self):
        # the companion block (4 x 4) holds one roundoff mu: the entries it
        # does not reach get estimates, the one it does is refused
        reduced = {0: np.diag([1.0, 0.5, 0.25, -1e-17, 0.125, 0.0625])}
        records = [(1.0, 0, 0), (2.0, 0, 1), (4.0, 0, 2)]
        assert _convergence_estimates(records, reduced, 4) == [0.0, 0.0, 0.0]
        with pytest.raises(NumericalError, match="convergence estimate needs a radial "
                                                 "eigenvalue lost to roundoff"):
            _convergence_estimates(records + [(7.9, 0, 3)], reduced, 4)

    @pytest.mark.parametrize("quad", ["auto", "odd-n base"])
    @pytest.mark.parametrize("n,p,basis,theta0", [
        (2, 3, 64, 1.0), (2, 3, 64, math.pi / 2), (3, 3, 64, 1.0), (2, 9, 16, 1.0)])
    def test_roundoff_inputs_solve(self, n, p, basis, theta0, quad):
        # clamped caps whose smallest mu in a solved mode came out between
        # -0.9 and 0 size * eps * mu_max under some rule size or weight
        # formula, and was refused for its sign; they solve with the
        # automatic rule and with the odd-n base 2 (p + N - 1) + 16
        size = None if quad == "auto" else 2 * (p + basis - 1) + 16
        cfg = SolverConfig(n=n, p=p, theta0=theta0, problem=Problem.CLAMPED,
                           basis_size=basis, requested_count=8, quad_size=size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = solve_spectrum(cfg)
        assert np.all(np.isfinite(spec.expanded_values()))
        assert max(spec.diagnostics["convergence"]) < 1e-10


class TestPencilAccuracy:
    @pytest.mark.parametrize("n", [2, 4])
    def test_graded_pencil_against_mpmath(self, n):
        """The first 8 radial values of the p=3 hemisphere buckling pencils
        at N=32 match a 40-digit solve of the same assembled forms to 1e-12
        relative. Their eigenvalues span 75 to 4e9; reducing the uninverted
        pencil by the Cholesky of B loses up to ~2e-10 here."""
        mpmath = pytest.importorskip("mpmath")
        cfg = hemi(n, 3, Problem.BUCKLING, N=32, K=8)
        for l in (0, 2, 5):
            a_form, b_form, _ = assemble_mode(cfg, l)
            with mpmath.workdps(40):
                low_inv = mpmath.inverse(
                    mpmath.cholesky(mpmath.matrix(a_form.tolist())))
                c = low_inv * mpmath.matrix(b_form.tolist()) * low_inv.T
                mu = mpmath.eigsy((c + c.T) / 2, eigvals_only=True)
                ref = np.array(sorted(float(1 / m) for m in mu)[:8])
            got = _solve_mode(cfg, l)[0][:8]
            assert np.max(np.abs(got - ref) / ref) <= 1e-12, l

    def test_values_only_matches_vectors_path(self):
        """The solver's values-only solve of the inverted clamped n=5, p=3,
        theta0=2.6, l=7 pencil at N=32 gives the first 8 values of
        generalized_sym_eigen to 1e-13 relative: both reduce by the same two
        triangular solves. Forming inv(L) explicitly instead moves them by
        ~1.5e-5 on this pencil."""
        cfg = SolverConfig(n=5, p=3, theta0=2.6, problem=Problem.CLAMPED,
                           basis_size=32, requested_count=8)
        a_form, b_form, _ = assemble_mode(cfg, 7)
        want = 1.0 / generalized_sym_eigen(b_form, a_form).values[::-1][:8]
        got = _solve_mode(cfg, 7)[0][:8]
        assert np.max(np.abs(got - want) / want) <= 1e-13


def _scaled_ground(n, p, problem, theta0):
    """Ground value times theta0^2 at basis 24."""
    cfg = SolverConfig(n=n, p=p, theta0=theta0, problem=problem,
                       basis_size=24, requested_count=1)
    return solve_spectrum(cfg).expanded_values()[0] * theta0**2


class TestFlatLimit:
    # on a cap of radius theta0 -> 0 the scaled values lambda * theta0^2
    # approach the flat-disk constants: squares of Bessel zeros
    def test_membrane_ground(self):
        # within 1% at theta0 = 0.05 and 0.02, and closer at 0.05 than at 0.1
        j01 = bessel_first_zero(0)
        deviations = [abs(_scaled_ground(2, 1, Problem.CLAMPED, t0) - j01**2) / j01**2
                      for t0 in (0.1, 0.05, 0.02)]
        assert deviations[1] < 0.01 and deviations[2] < 0.01
        assert deviations[1] < deviations[0]

    def test_membrane_second(self):
        j11 = bessel_first_zero(1)
        cfg = SolverConfig(n=2, p=1, theta0=0.02, problem=Problem.CLAMPED,
                           basis_size=24, requested_count=3)
        got = solve_spectrum(cfg).expanded_values()[1] * 0.02**2
        assert abs(got - j11**2) / j11**2 < 0.01

    def test_buckling_ground(self):
        # the plate buckling ground value on the flat disk is also j_{1,1}^2,
        # within 1% at theta0 = 0.05 and 0.02
        j11 = bessel_first_zero(1)
        for t0 in (0.05, 0.02):
            got = _scaled_ground(2, 2, Problem.BUCKLING, t0)
            assert abs(got - j11**2) / j11**2 < 0.01, t0


class TestSmallCaps:
    # every geometric factor comes from the half-width sin(theta0/2)^2, not
    # from the rounded cosine, so small caps down to the refusal limit keep
    # full relative precision

    @pytest.mark.parametrize("theta0", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_membrane_ground_matches_legendre_oracle(self, theta0):
        pytest.importorskip("mpmath")
        want = legendre_membrane_ground(theta0)
        spec = solve_spectrum(SolverConfig(n=2, p=1, theta0=theta0, problem=Problem.CLAMPED))
        assert abs(spec.entries[0].value - want) / want <= 1e-14

    @pytest.mark.parametrize("theta0", [1e-5, 1e-6, 1e-7])
    @pytest.mark.parametrize("p,problem,nu", [(2, Problem.BUCKLING, 1), (1, Problem.CLAMPED, 0)])
    def test_ground_reaches_flat_limit(self, theta0, p, problem, nu):
        # lambda_1 theta0^2 -> j^2 with a relative correction of order
        # theta0^2, at most 1e-10 here
        j2 = bessel_first_zero(nu) ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            spec = solve_spectrum(SolverConfig(n=2, p=p, theta0=theta0, problem=problem))
        assert abs(spec.entries[0].value * theta0**2 / j2 - 1.0) <= 1e-10

    def test_clamped_plate_reaches_flat_limit(self):
        # lambda_1 theta0^4 -> k^4, k the least root of J0 I1 + J1 I0 (the
        # clamped disk plate), at theta0 = 1e-7
        mpmath = pytest.importorskip("mpmath")
        k = mpmath.findroot(lambda k: mpmath.besselj(0, k) * mpmath.besseli(1, k)
                            + mpmath.besselj(1, k) * mpmath.besseli(0, k), 3.2)
        spec = solve_spectrum(SolverConfig(n=2, p=2, theta0=1e-7, problem=Problem.CLAMPED))
        assert abs(spec.entries[0].value * 1e-28 / float(k**4) - 1.0) <= 1e-10


class TestConvergenceStudy:
    def test_nested_values_non_increasing(self):
        cfg = SolverConfig(n=2, p=2, theta0=1.9, problem=Problem.BUCKLING,
                           basis_size=32, requested_count=8)
        study = convergence_study(cfg, (8, 16, 32))
        assert isinstance(study, ConvergenceStudy)
        assert study.values.shape == (3, 8)
        assert np.all(study.values[1] <= study.values[0] + 1e-10)
        assert np.all(study.values[2] <= study.values[1] + 1e-10)
        assert np.all(study.estimates < 1e-6)

    @pytest.mark.parametrize("theta0", [math.pi / 3, 2 * math.pi / 3])
    def test_monotone_off_hemisphere(self, theta0):
        # criterion 8's grid and slack at two radii besides the hemisphere
        for n in (2, 3, 4):
            for p in (2, 3):
                cfg = SolverConfig(n=n, p=p, theta0=theta0, problem=Problem.BUCKLING,
                                   basis_size=32, requested_count=8)
                study = convergence_study(cfg, (8, 16, 32))
                assert np.diff(study.values, axis=0).max() <= 1e-10, (n, p)

    def test_one_assembly_per_mode(self, monkeypatch):
        # the README study: every size is a leading block of the top size's
        # forms, so it assembles exactly the modes one top-size solve does,
        # modes 0..4, each once (all of them in one block)
        calls = []
        unwrapped = spectral.assemble_modes

        def counted(cfg, modes):
            calls.append(list(modes))
            return unwrapped(cfg, modes)

        monkeypatch.setattr(spectral, "assemble_modes", counted)
        cfg = hemi(2, 2, Problem.BUCKLING, N=32, K=8)
        spec = solve_spectrum(cfg)
        solve_calls = list(calls)
        calls.clear()
        study = convergence_study(cfg, (8, 16, 32))
        assert solve_calls == calls == [[0, 1, 2, 3, 4]]
        assert np.array_equal(study.values[-1], spec.expanded_values())

    @pytest.mark.parametrize("n,p,problem,theta0", [
        (2, 2, Problem.BUCKLING, math.pi / 2), (3, 3, Problem.BUCKLING, 2.6),
        (4, 3, Problem.CLAMPED, 1.0)])
    def test_rows_are_leading_blocks_of_one_reduction(self, monkeypatch, n, p, problem, theta0):
        # each mode is reduced once, at the top size (the first block's modes
        # in one stacked call, each later mode alone); every row is the merge
        # of the eigenvalues of the leading blocks of those reduced matrices,
        # exactly, and the rows do not rise beyond the monotone slack
        sizes = (8, 16, 24, 32)
        cfg = SolverConfig(n=n, p=p, theta0=theta0, problem=problem,
                           basis_size=32, requested_count=8)
        _, reduced, _, _ = spectral._solve_modes(cfg)
        reductions = []
        unwrapped = spectral._reduce

        def counted(a, b):
            reductions.append(a.shape)
            return unwrapped(a, b)

        monkeypatch.setattr(spectral, "_reduce", counted)
        study = convergence_study(cfg, sizes)
        assert sum(shape[0] for shape in reductions) == len(reduced)
        assert all(shape[1:] == (32, 32) for shape in reductions)
        for size, row in zip(sizes, study.values):
            values = [_inverted(np.linalg.eigvalsh(c[:size, :size]), l)
                      for l, c in enumerate(reduced)]
            records = _merge(values, n, 8)
            want = [v for v, l, _ in records for _ in range(multiplicity(l, n))][:8]
            assert np.array_equal(row, want), size
        assert np.diff(study.values, axis=0).max() <= spectral.MONOTONE_SLACK

    @pytest.mark.parametrize("theta0", [math.pi / 3, math.pi / 2, 2 * math.pi / 3])
    def test_rows_match_independent_solves(self, theta0):
        # referee: each smaller row against its own assembly at that size,
        # over the modes the top-size solve needed
        for n in (2, 3, 4):
            for p in (2, 3):
                cfg = SolverConfig(n=n, p=p, theta0=theta0, problem=Problem.BUCKLING,
                                   basis_size=32, requested_count=8)
                study = convergence_study(cfg, (8, 16, 32))
                top = solve_spectrum(cfg)
                assert np.array_equal(study.values[-1], top.expanded_values()), (n, p)
                for size, row in zip((8, 16), study.values):
                    ref = solve_spectrum(replace(
                        cfg, basis_size=size, mode_cap=top.diagnostics["l_max"]))
                    want = ref.expanded_values()
                    assert np.max(np.abs(row - want) / want) <= 1e-12, (n, p, size)

    def test_repeated_sizes_identical(self):
        cfg = SolverConfig(n=3, p=2, theta0=1.0, problem=Problem.CLAMPED,
                           basis_size=16, requested_count=4)
        study = convergence_study(cfg, (16, 16))
        assert np.array_equal(study.values[0], study.values[1])
        assert np.all(study.estimates == 0.0)

    def test_bad_size_lists(self):
        cfg = SolverConfig(n=2, p=2, theta0=1.0, problem=Problem.CLAMPED,
                           basis_size=16, requested_count=4)
        with pytest.raises(ValidationError):
            convergence_study(cfg, (16,))
        with pytest.raises(ValidationError):
            convergence_study(cfg, (16, 8))
        with pytest.raises(ValidationError, match="requested count"):
            convergence_study(cfg, (2, 16))


class TestValidation:
    def test_rejects_bad_dimension(self):
        for n in (1, 0, 2.5):
            with pytest.raises(ValidationError):
                SolverConfig(n=n, p=2, theta0=1.0, problem=Problem.CLAMPED)

    def test_rejects_bad_order(self):
        with pytest.raises(ValidationError):
            SolverConfig(n=2, p=0, theta0=1.0, problem=Problem.CLAMPED)
        with pytest.raises(ValidationError):
            SolverConfig(n=2, p=1, theta0=1.0, problem=Problem.BUCKLING)

    @pytest.mark.parametrize("problem,n,p,message", [
        ("clamped", 1, 2, "dimension must be an integer >= 2, got 1"),
        ("clamped", 2.5, 2, "dimension must be an integer >= 2, got 2.5"),
        ("clamped", 2, 0, "order must be an integer >= 1 for clamped, got 0"),
        ("buckling", 2, 1, "order must be an integer >= 2 for buckling, got 1"),
    ])
    def test_config_and_sequence_share_messages(self, problem, n, p, message):
        # SolverConfig and EigenSequence check (problem, n, p) through one
        # helper, so both raise the same message, word for word
        with pytest.raises(ValidationError) as config_err:
            SolverConfig(n=n, p=p, theta0=1.0, problem=problem)
        with pytest.raises(ValidationError) as sequence_err:
            EigenSequence(n=n, p=p, problem=problem, values=(1.0, 2.0))
        assert str(config_err.value) == str(sequence_err.value) == message

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("name", ["n", "p", "basis_size", "requested_count", "mode_cap",
                                      "quad_size"])
    def test_rejects_bools(self, name, flag):
        # bool is an int to Python, but not a count: p=True would solve and
        # write "p": true, which the spectrum reader refuses, and
        # mode_cap=False would cap the modes at 0
        fields = dict(n=2, p=1, theta0=1.0, problem=Problem.CLAMPED, basis_size=16,
                      requested_count=4, mode_cap=8, quad_size=40)
        with pytest.raises(ValidationError) as err:
            SolverConfig(**{**fields, name: flag})
        assert str(err.value).endswith(f"got {flag!r}") and "\n" not in str(err.value)
        assert SolverConfig(**fields).p == 1

    def test_rejects_bad_radius(self):
        for theta0 in (0.0, math.pi, -0.3, 4.0):
            with pytest.raises(ValidationError):
                SolverConfig(n=2, p=2, theta0=theta0, problem=Problem.CLAMPED)

    @pytest.mark.parametrize("theta0", [5e-324, 1e-200, 1e-8])
    def test_rejects_radius_whose_cosine_rounds_to_one(self, theta0):
        # such a cap has x0 = 1 and no width; it never reaches assembly
        with pytest.raises(ValidationError, match="too small: its cosine rounds to 1"):
            SolverConfig(n=2, p=2, theta0=theta0, problem=Problem.BUCKLING)
        assert SolverConfig(n=2, p=2, theta0=2e-8, problem=Problem.BUCKLING).theta0 == 2e-8

    def test_rejects_huge_dimension(self):
        # one limit for the solver and the bound layer, checked before any
        # float or big-integer work with n
        message = f"dimension must be at most {spectral.MAX_DIMENSION}, got an integer of 665 bits"
        with pytest.raises(ValidationError) as config_err:
            SolverConfig(n=10**200, p=2, theta0=1.0, problem=Problem.BUCKLING)
        with pytest.raises(ValidationError) as sequence_err:
            EigenSequence(n=10**200, p=2, problem=Problem.BUCKLING, values=(1e300, 2e300))
        assert str(config_err.value) == str(sequence_err.value) == message
        assert EigenSequence(n=spectral.MAX_DIMENSION, p=2, problem=Problem.BUCKLING,
                             values=(1e300,)).n == spectral.MAX_DIMENSION

    @pytest.mark.parametrize("n,message", [
        (1000, "stiffness form of mode 0 underflows to zero in double precision"),
        (5000, "matrix entries must be finite"),
    ])
    def test_unrepresentable_forms_refused_without_warnings(self, n, message):
        # at theta0 = 0.1 the weight's factor a^(gamma + 1), a the
        # half-width (1 - x0)/2, underflows to zero at n = 1000; at n = 5000 (1 + x)^gamma also
        # overflows, and the overflow warns of nothing before the refusal
        cfg = SolverConfig(n=n, p=2, theta0=0.1, problem=Problem.BUCKLING)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                assemble_mode(cfg, 0)
            with pytest.raises(ValidationError, match=message):
                solve_spectrum(cfg)

    def test_rejects_basis_below_count(self):
        with pytest.raises(ValidationError):
            SolverConfig(n=2, p=2, theta0=1.0, problem=Problem.CLAMPED,
                         basis_size=4, requested_count=8)

    def test_size_limits(self):
        # every size is checked before anything is allocated: the order, the
        # basis, the quadrature and the trial jets, which hold
        # (2 top + 1) * N * 3 * quad_base floats; one more is refused
        def config(**sizes):
            return SolverConfig(n=sizes.pop("n", 2), p=sizes.pop("p", 2), theta0=1.0,
                                problem=sizes.pop("problem", Problem.BUCKLING), **sizes)

        def jet_entries(cfg):
            return spectral._jet_orders(cfg) * cfg.basis_size * 3 * cfg.quad_base

        # the widest accepted basis takes the largest automatic rule (odd n),
        # which fits the rule limit after doubling
        widest = config(n=3, p=4, basis_size=spectral.MAX_BASIS_SIZE)
        assert 2 * widest.quad_base == 2092 <= quadrature.MAX_NODES
        assert jet_entries(widest) <= spectral.MAX_JET_ENTRIES
        assert config(p=spectral.MAX_ORDER, basis_size=32).p == spectral.MAX_ORDER
        assert config(p=3, basis_size=512, problem=Problem.CLAMPED).p == 3
        assert config(quad_size=quadrature.MAX_NODES // 2).quad_base == 2048
        # the largest the solver resolves (p = 2, N = 256) is far inside
        assert jet_entries(config(basis_size=256)) < spectral.MAX_JET_ENTRIES // 6
        # the even-n base, about half the odd-n one, lets these pass at n = 2
        # and not at n = 3
        for sizes in ({"p": 5, "basis_size": 512}, {"p": 8, "basis_size": 512},
                      {"p": 64, "basis_size": 128}):
            assert jet_entries(config(**sizes)) <= spectral.MAX_JET_ENTRIES
            with pytest.raises(ValidationError, match="jet samples"):
                config(n=3, **sizes)
        for sizes, match in (({"p": spectral.MAX_ORDER + 1}, "order"),
                             ({"basis_size": spectral.MAX_BASIS_SIZE + 1}, "basis size"),
                             ({"quad_size": quadrature.MAX_NODES // 2 + 1}, "quadrature size"),
                             ({"p": 9, "basis_size": spectral.MAX_BASIS_SIZE}, "jet samples"),
                             ({"p": 35, "basis_size": 256}, "jet samples"),
                             ({"p": 16, "basis_size": 512, "problem": Problem.CLAMPED},
                              "jet samples"),
                             ({"p": 64, "basis_size": 512, "problem": Problem.CLAMPED},
                              "jet samples")):
            with pytest.raises(ValidationError, match=match):
                config(**sizes)
        assert jet_entries(config(p=34, basis_size=256)) <= spectral.MAX_JET_ENTRIES
        message = ("order 9 at basis size 512 with 537 quadrature nodes needs 9073152 "
                   f"jet samples, more than {spectral.MAX_JET_ENTRIES}")
        with pytest.raises(ValidationError) as err:
            config(p=9, basis_size=512)
        assert str(err.value) == message
        # the order limit is the solver's: a spectrum file of any order is read
        assert EigenSequence(n=2, p=100, problem=Problem.BUCKLING, values=(1.0,)).p == 100

    def test_problem_accepts_string(self):
        cfg = SolverConfig(n=2, p=2, theta0=1.0, problem="buckling")
        assert cfg.problem is Problem.BUCKLING

    def test_spectrum_is_frozen(self):
        spec = solve_spectrum(hemi(2, 1, Problem.CLAMPED, K=1))
        assert isinstance(spec, Spectrum)
        with pytest.raises(Exception):
            spec.entries = ()
        scratch = spec.expanded_values()
        scratch[0] = -1.0
        assert spec.expanded_values()[0] > 0.0


STORED = Path(__file__).resolve().parents[1] / "benchmark" / "data" / "spectra"
PINNED = Path(__file__).resolve().parent / "data" / "spectra"


@pytest.mark.parametrize(
    "path",
    sorted(STORED.glob("*.json")) + sorted(
        p for p in PINNED.glob("*.json") if not p.name.endswith(".summary.json")),
    ids=lambda p: p.stem)
def test_stored_spectra_resolve(path):
    """Drift guard: re-solving each stored spectrum from its header gives
    its expanded values to 1e-12 relative: the 27 p = 2 buckling spectra of
    the benchmark and the clamped and p = 3 ones under tests/data."""
    doc = read_spectrum(path)
    cfg = SolverConfig(n=doc.n, p=doc.p, theta0=doc.theta0, problem=doc.problem,
                       basis_size=doc.meta["basis_size"],
                       requested_count=doc.meta["requested_count"])
    stored = np.array(doc.sequence().values)
    values = solve_spectrum(cfg).expanded_values()
    assert len(values) == len(stored)
    assert np.max(np.abs(values - stored) / stored) <= 1e-12
