"""Weighted multi-component models and their additive growth."""

from fractions import Fraction as F

import pytest

from filtmult import components as cp
from filtmult import filtration as ft
from filtmult import monomial as mo
from filtmult import multiplicity as mu


def swapped_roles():
    return cp.two_branch_model()


class TestValidation:
    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            cp.Component(0, (ft.adic(mo.maximal_ideal(2)),))

    def test_component_needs_filtrations(self):
        with pytest.raises(ValueError):
            cp.Component(1, ())

    def test_component_dimensions_agree(self):
        with pytest.raises(ValueError):
            cp.Component(
                1, (ft.adic(mo.maximal_ideal(2)), ft.adic(mo.ideal(1, [(2,)])))
            )

    def test_model_needs_components(self):
        with pytest.raises(ValueError):
            cp.ComponentModel(())

    def test_model_filtration_counts_agree(self):
        a = cp.Component(1, (ft.adic(mo.maximal_ideal(2)),))
        b = cp.Component(
            1, (ft.adic(mo.maximal_ideal(2)), ft.adic(mo.maximal_ideal(2)))
        )
        with pytest.raises(ValueError):
            cp.ComponentModel((a, b))

    def test_model_dimensions_agree(self):
        a = cp.Component(1, (ft.adic(mo.maximal_ideal(2)),))
        b = cp.Component(1, (ft.adic(mo.ideal(1, [(2,)])),))
        with pytest.raises(ValueError):
            cp.ComponentModel((a, b))


class TestTwoBranchModel:
    def test_structure(self):
        tb = swapped_roles()
        assert tb.dim == 2 and tb.r == 2
        kinds = [tuple(type(f) for f in c.filtrations) for c in tb.components]
        assert kinds == [
            (ft.AdicFiltration, ft.FixedPlusAdicFiltration),
            (ft.FixedPlusAdicFiltration, ft.AdicFiltration),
        ]

    def test_per_component_limits(self):
        tb = swapped_roles()
        ladder = (16, 32, 64, 128)
        expected = {
            (1, 0): (F(1, 2), F(0)),
            (0, 1): (F(0), F(1, 2)),
            (1, 1): (F(1, 2), F(1, 2)),
        }
        for n, want in expected.items():
            got = tuple(e.value for e in cp.component_limits(tb, n, ladder=ladder))
            assert got == want

    def test_growth_at_diagonal(self):
        assert cp.component_growth(swapped_roles(), (1, 1), ladder=(16, 32, 64)).value == F(1)

    def test_mixed_coefficients(self):
        rep = cp.component_mixed(swapped_roles(), ladder=(16, 32, 64), order=3)
        assert {t: e.value for t, e in rep.coeffs.items()} == {
            (2, 0): F(1),
            (1, 1): F(0),
            (0, 2): F(1),
        }

    def test_order_two_matches_here(self):
        # every branch colength is affine in the scale, so the default fit
        # is already exact
        rep = cp.component_mixed(swapped_roles(), ladder=(16, 32, 64))
        assert rep.coeffs[(1, 1)].value == F(0)


class TestWeighting:
    def test_weights_scale_linearly(self):
        m = mo.maximal_ideal(2)
        line = mo.ideal(2, [(1, 0)])

        def build(w):
            return cp.ComponentModel(
                (
                    cp.Component(w, (ft.adic(m), ft.fixed_plus_adic(line, m))),
                    cp.Component(w, (ft.fixed_plus_adic(line, m), ft.adic(m))),
                )
            )

        base = cp.component_mixed(build(1), ladder=(16, 32, 64), order=3)
        triple = cp.component_mixed(build(3), ladder=(16, 32, 64), order=3)
        for t, e in base.coeffs.items():
            assert triple.coeffs[t].value == 3 * e.value

    def test_exact_backend_adds_components(self):
        m = mo.maximal_ideal(2)
        para = mo.ideal(2, [(2, 0), (0, 1)])
        two = cp.ComponentModel(
            (
                cp.Component(1, (ft.adic(m),)),
                cp.Component(2, (ft.adic(para),)),
            )
        )
        got = cp.component_growth(two, (1,), backend=mu.TRUNCATION_EXACT, trunc_level=1)
        singles = (
            mu.exact_growth([ft.truncate(ft.adic(m), 1)], (1,), 1),
            mu.exact_growth([ft.truncate(ft.adic(para), 1)], (1,), 1),
        )
        assert got.value == 1 * singles[0] + 2 * singles[1] == F(5, 2)
        assert got.method == mu.TRUNCATION_EXACT

    def test_exact_backend_needs_truncation(self):
        two = cp.ComponentModel(
            (cp.Component(1, (ft.adic(mo.maximal_ideal(2)),)),)
        )
        with pytest.raises(ValueError):
            cp.component_growth(two, (1,), backend=mu.TRUNCATION_EXACT)

    def test_summed_sequence_is_weighted(self):
        m = mo.maximal_ideal(2)
        para = mo.ideal(2, [(2, 0), (0, 1)])
        two = cp.ComponentModel(
            (
                cp.Component(1, (ft.adic(m),)),
                cp.Component(2, (ft.adic(para),)),
            )
        )
        ladder = (2, 4, 8)
        got = cp.component_growth(two, (1,), ladder=ladder).tail
        a = mu.length_sequence([ft.adic(m)], (1,), ladder)
        b = mu.length_sequence([ft.adic(para)], (1,), ladder)
        assert got == tuple((s, va + 2 * vb) for (s, va), (_, vb) in zip(a, b))


def dim3_pair():
    para = mo.ideal(3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)])
    return cp.model([(1, [ft.adic(mo.maximal_ideal(3)), ft.adic(para)])])


def two_weighted_components():
    m = mo.maximal_ideal(2)
    return cp.model(
        [
            (1, [ft.adic(m), ft.adic(mo.ideal(2, [(2, 0), (0, 1)]))]),
            (2, [ft.adic(mo.ideal(2, [(1, 0), (0, 2)])), ft.adic(m)]),
        ]
    )


class TestCertifiedOnce:
    """The exact backend certifies each filtration's period once per call,
    however many grid points the fit samples."""

    @pytest.mark.parametrize("build", [dim3_pair, two_weighted_components])
    def test_one_period_certification_per_filtration(self, build, monkeypatch):
        model = build()
        calls = []
        real = mu.noetherian_period

        def counted(f, *args):
            calls.append(f)
            return real(f, *args)

        monkeypatch.setattr(mu, "noetherian_period", counted)
        rep = cp.component_mixed(model, backend=mu.TRUNCATION_EXACT, trunc_level=1)
        assert len(mu.sample_grid(model.dim, model.r)) == len(rep.coeffs) > 2
        assert len(calls) == sum(len(c.filtrations) for c in model.components)
