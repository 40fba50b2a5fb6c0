"""Vertebrate pairs: a strongly laminar instance plus a backbone subtour.

The backbone is a connected Eulerian multi-subgraph touching every
non-singleton family set.  An edgeless backbone is legal and sits on one
designated vertex, which is why the vertex set is stored explicitly.
"""

from __future__ import annotations

from fractions import Fraction

from .checks import Checker, first_false
from .errors import ContractViolation
from .graph import EdgeMultiset, is_eulerian_connected
from .instance import StronglyLaminarInstance
from .rational import over_lcm
from .records import FrozenRecord


class VertebratePair(FrozenRecord):
    __slots__ = ("instance", "backbone", "backbone_vertices")

    def __init__(self, instance: StronglyLaminarInstance, backbone: EdgeMultiset,
                 backbone_vertices: frozenset) -> None:
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "backbone", backbone)
        object.__setattr__(self, "backbone_vertices", backbone_vertices)

    def validate(self, checker: Checker) -> None:
        inst = self.instance
        if self.backbone:
            eulerian, comps = is_eulerian_connected(self.backbone)
            checker.check(eulerian, "backbone-eulerian")
            touched = self.backbone.vertices()
            comp = next(c for c in comps if touched & c)
            checker.check(touched <= comp, "backbone-connected")
            checker.check(self.backbone_vertices == touched, "backbone-vertex-set")
        else:
            if len(self.backbone_vertices) != 1:
                raise ContractViolation(
                    "an edgeless backbone must sit on exactly one vertex"
                )
        for s in inst.family.nonsingletons():
            checker.check(bool(self.backbone_vertices & s),
                          "backbone-touches-nonsingleton",
                          lambda: sorted(s))

    def check_initialization(self, h: EdgeMultiset, checker: Checker,
                             prefix: str) -> None:
        """Re-check that h is a valid initialization: Eulerian, away from the
        backbone, and crossing no non-singleton family set.  The labels are
        the prefix followed by the clause name."""
        g = self.instance.g
        outside = self.outside_vertices()
        checker.balanced(h, prefix + "eulerian")
        eids = list(h.mult)
        ok = [g.edges[eid].tail in outside and g.edges[eid].head in outside for eid in eids]
        bad = first_false(ok)
        checker.check_many(prefix + "avoids-backbone", len(ok), bad,
                           lambda: f"edge {eids[bad]}")
        for s in self.instance.family.nonsingletons():
            checker.check(h.crossing(s) == 0, prefix + "avoids-family-cuts",
                          lambda: sorted(s))

    def outside_vertices(self) -> frozenset:
        return self.instance.ground - self.backbone_vertices

    def cost_at_most(self, edges: EdgeMultiset, kappa: Fraction, beta: Fraction) -> bool:
        """Whether c(edges) <= kappa * LP + beta * (outside singleton mass),
        compared as integers over the instance's denominators."""
        inst = self.instance
        k, b, d = over_lcm(kappa, beta)
        mass = inst.singleton_mass(self.outside_vertices())
        # c / den <= (k * lp / (den * x_den) + b * mass / den) / d
        return inst.cost_num(edges) * inst._x_den * d <= \
            k * inst._lp_num + b * mass * inst._x_den
