"""System-level design metrics over a validated class model.

Six ratios, each a quotient of feature counts summed over all classes:

* ``mhf`` / ``ahf``: hidden methods / attributes over defined ones.
* ``mif`` / ``aif``: inherited methods / attributes over available ones
  (defined + inherited).
* ``pf``: overriding methods over the number of override opportunities
  (new methods times descendant count, summed per class).
* ``cf``: client relationships over the TC^2 - TC possible ordered pairs,
  not counting couplings into a class's own ancestors.

Ratios with a zero denominator are returned as structured undefined values
rather than 0 or an exception, so reports can distinguish total absence
from no opportunity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .class_model import ClassModel, _declared, _valid_index

# The six ratio names, in report order.
RATIOS = ("mhf", "ahf", "mif", "aif", "pf", "cf")


@dataclass(frozen=True)
class MetricValue:
    """A ratio with its exact integer numerator and denominator.

    ``value`` is None exactly when ``denominator`` is 0, in which case
    ``undefined_reason`` says why there was nothing to measure.
    """

    numerator: int
    denominator: int
    undefined_reason: Optional[str] = None

    def __post_init__(self):
        if (self.denominator == 0) != (self.undefined_reason is not None):
            raise ValueError("undefined_reason must accompany a zero denominator")

    @property
    def value(self) -> Optional[float]:
        if self.denominator == 0:
            return None
        return self.numerator / self.denominator

    @property
    def defined(self) -> bool:
        return self.denominator > 0

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "numerator": self.numerator,
            "denominator": self.denominator,
            "undefined_reason": self.undefined_reason,
        }


@dataclass(frozen=True)
class MoodReport:
    mhf: MetricValue
    ahf: MetricValue
    mif: MetricValue
    aif: MetricValue
    pf: MetricValue
    cf: MetricValue
    tc: int

    def to_json(self) -> dict:
        return {**{key: getattr(self, key).to_json() for key in RATIOS},
                "tc": self.tc}


def _ratio(num: int, den: int, reason: str) -> MetricValue:
    if den == 0:
        return MetricValue(num, 0, reason)
    return MetricValue(num, den)


def _tally_ratios(model: ClassModel) -> dict[str, MetricValue]:
    """The five tally-based ratios, from model-wide sums: one pass over the
    declarations, and the index's inherited and descendant counts."""
    index = _valid_index(model)
    m_d = m_h = m_n = a_d = a_h = opportunities = 0
    for decl, dc in zip(model, index.descendants):
        defined, hidden, new, attrs, hidden_attrs = _declared(decl)
        m_d += defined
        m_h += hidden
        m_n += new
        a_d += attrs
        a_h += hidden_attrs
        opportunities += new * dc
    m_i, a_i = map(sum, index.inherited)
    return {
        "mhf": _ratio(m_h, m_d, "no defined methods"),
        "ahf": _ratio(a_h, a_d, "no defined attributes"),
        "mif": _ratio(m_i, m_d + m_i, "no available methods"),
        "aif": _ratio(a_i, a_d + a_i, "no available attributes"),
        "pf": _ratio(m_d - m_n, opportunities, "no polymorphic opportunities"),
    }


def mhf(model: ClassModel) -> MetricValue:
    return _tally_ratios(model)["mhf"]


def ahf(model: ClassModel) -> MetricValue:
    return _tally_ratios(model)["ahf"]


def mif(model: ClassModel) -> MetricValue:
    return _tally_ratios(model)["mif"]


def aif(model: ClassModel) -> MetricValue:
    return _tally_ratios(model)["aif"]


def pf(model: ClassModel) -> MetricValue:
    return _tally_ratios(model)["pf"]


def cf(model: ClassModel) -> MetricValue:
    index = _valid_index(model)
    tc = len(model)
    if tc < 2:
        return MetricValue(0, 0, "TC < 2")
    return MetricValue(index.clients, tc * tc - tc)


def compute_all(model: ClassModel) -> MoodReport:
    """All six metrics plus the class count, as one immutable report.

    Every metric function raises InvalidModelError, carrying the model's
    diagnostics, when a parent name is unresolved or the parent graph is
    cyclic.
    """
    return MoodReport(**_tally_ratios(model), cf=cf(model), tc=len(model))

