"""Weighted sums of filtration tuples living on several ring components.

Lengths over the product of component rings add up, so every growth
quantity of the model is the weight-sum of the single-component ones.
Every entry point here runs the one weighted growth pipeline of the
multiplicity module, of which a bare filtration list is the weight-one,
single-component case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .filtration import Filtration, adic, fixed_plus_adic
from .monomial import ideal, maximal_ideal
from .multiplicity import DIRECT, LimitEstimate, MixedMultiplicityReport, _WeightedGrowth


@dataclass(frozen=True)
class Component:
    """One ring component with an integer weight and its filtration tuple."""

    weight: int
    filtrations: tuple[Filtration, ...]

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise ValueError("component weight must be a positive integer")
        if not self.filtrations:
            raise ValueError("component needs at least one filtration")
        dims = {f.dim for f in self.filtrations}
        if len(dims) != 1:
            raise ValueError("filtrations on one component must share dimension")


@dataclass(frozen=True)
class ComponentModel:
    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("model needs at least one component")
        if len({len(c.filtrations) for c in self.components}) != 1:
            raise ValueError("every component must carry the same number of filtrations")
        if len({c.filtrations[0].dim for c in self.components}) != 1:
            raise ValueError("components must share ring dimension")

    @property
    def dim(self) -> int:
        return self.components[0].filtrations[0].dim

    @property
    def r(self) -> int:
        return len(self.components[0].filtrations)


def model(components) -> ComponentModel:
    return ComponentModel(tuple(Component(w, tuple(fs)) for w, fs in components))


def two_branch_model() -> ComponentModel:
    """Two plane components with swapped roles: on one, the first
    filtration is maximal-adic and the second is a fixed line plus the
    maximal-adic tail; on the other the roles are exchanged."""
    m = maximal_ideal(2)
    line = ideal(2, [(1, 0)])
    return ComponentModel(
        (
            Component(1, (adic(m), fixed_plus_adic(line, m))),
            Component(1, (fixed_plus_adic(line, m), adic(m))),
        )
    )


def _parts(model: ComponentModel):
    return [(c.weight, c.filtrations) for c in model.components]


def component_limits(
    model: ComponentModel,
    n,
    backend: str = DIRECT,
    trunc_level: int | None = None,
    ladder=None,
    order: int = 2,
) -> tuple[LimitEstimate, ...]:
    """Per-component growth limits at weight one, in model order."""
    return tuple(
        _WeightedGrowth([(1, c.filtrations)], backend, trunc_level, ladder, order).growth(n)
        for c in model.components
    )


def component_growth(
    model: ComponentModel,
    n,
    backend: str = DIRECT,
    trunc_level: int | None = None,
    ladder=None,
    order: int = 2,
) -> LimitEstimate:
    """Growth limit of the weighted model at multi-level n."""
    return _WeightedGrowth(_parts(model), backend, trunc_level, ladder, order).growth(n)


def component_mixed(
    model: ComponentModel,
    backend: str = DIRECT,
    trunc_level: int | None = None,
    ladder=None,
    order: int = 2,
) -> MixedMultiplicityReport:
    """Mixed multiplicities of the weighted model, by exact interpolation
    of the weight-summed growth on the standard sample grid."""
    return _WeightedGrowth(_parts(model), backend, trunc_level, ladder, order).mixed()


def component_multiplicities(
    model: ComponentModel,
    backend: str = DIRECT,
    trunc_level: int | None = None,
    ladder=None,
    order: int = 2,
) -> tuple[LimitEstimate, ...]:
    """Multiplicity of each filtration of the weighted model: dim! times
    the weight-summed growth at its unit vector."""
    return _WeightedGrowth(_parts(model), backend, trunc_level, ladder, order).multiplicities()
