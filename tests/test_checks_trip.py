"""Negative tests: broken inputs and broken solvers must trip the runtime
checks instead of producing uncertified output."""

from __future__ import annotations

from fractions import Fraction

import pytest

from atsp_approx import harness
from atsp_approx.checks import Checker
from atsp_approx.cover import SubtourCoverInstance, subtour_cover
from atsp_approx.errors import ContractViolation, InternalCheckError
from atsp_approx.graph import EdgeMultiset, LaminarFamily
from atsp_approx.instance import StronglyLaminarInstance
from atsp_approx.vertebrate import TourCertificate, reduce_and_solve
from fixtures import two_tri
from oracles import outside_singleton_mass
from test_cover import make_pair

F = Fraction


def test_broken_tight_cut_is_caught():
    # halving x breaks the tight-cut clause of the instance definition
    inst = make_pair(two_tri()).instance
    bad = StronglyLaminarInstance(inst.g, inst.family, inst._x_num, 2 * inst._x_den)
    with pytest.raises(InternalCheckError):
        bad.validate(Checker())


def test_nonlaminar_family_rejected():
    with pytest.raises(ContractViolation):
        LaminarFamily([(frozenset({0, 1}), 1), (frozenset({1, 2}), 1)], 3, 1)


def test_h_crossing_family_cut_rejected():
    pair = make_pair(two_tri())
    g = pair.instance.g
    h = EdgeMultiset()
    joiners = [e.eid for e in g.edges if {e.tail, e.head} == {0, 3}]
    for eid in joiners:
        h.add(eid)
    cover = SubtourCoverInstance(pair, h)
    with pytest.raises(InternalCheckError):
        cover.validate(Checker())


def test_lazy_solver_breach_is_caught():
    # on an instance whose backbone misses a cluster, a "solver" that
    # returns nothing leaves the contracted vertex unvisited; the lifting
    # checks must fire
    from test_vertebrate import three_branch_star

    inst = three_branch_star()
    with pytest.raises(InternalCheckError) as info:
        reduce_and_solve(inst, inst.ground, lambda pair: EdgeMultiset(),
                         F(1), Checker())
    assert info.value.label == "lift-crosses-missed"


def test_overpriced_solver_breach_is_caught():
    # doubling a legitimate solution past the solver bound trips the
    # contract check before any lifting happens
    from atsp_approx.svensson import vertebrate_solve
    from test_vertebrate import three_branch_star

    inst = three_branch_star()

    def bloated(p):
        honest = vertebrate_solve(p, F(1))
        bloat = honest.copy()
        scale = 1
        bound = 2 * p.instance.lp_value + 15 * outside_singleton_mass(p)
        while bloat.cost(p.instance.g) <= bound:
            for eid, k in honest.items():
                bloat.add(eid, k)
            scale += 1
            if scale > 1000:
                pytest.skip("honest solution has zero cost")
        return bloat

    with pytest.raises(InternalCheckError) as info:
        reduce_and_solve(inst, inst.ground, bloated, F(1), Checker())
    assert info.value.label in ("solver-contract", "lifting-cost-monotone")


def test_a_tour_cheaper_than_the_optimum_trips_the_oracle(monkeypatch):
    # the oracle prunes with the certificate's cost; a cost one unit below
    # the optimum must still fail oracle-below-tour, not be taken as a bound
    g = harness.gen_instance("random-strong", 8, 5)
    opt = harness.held_karp_opt(g)
    solve = harness.solve_atsp

    def undercut(graph, epsilon, checker):
        cert = solve(graph, epsilon, checker)
        return TourCertificate(cert.tour, cert.walk, opt - F(1, graph.cost_den),
                               cert.lp_value, cert.ratio, cert.epsilon)

    monkeypatch.setattr(harness, "solve_atsp", undercut)
    with pytest.raises(InternalCheckError) as info:
        harness.run_pipeline("r8", g, F(1), with_oracle=True)
    assert info.value.label == "oracle-below-tour"


def test_check_many_counts_as_the_loop_of_checks_would():
    for conds in ([True] * 5, [True, True, False, True, False], [False], []):
        looped, batched = Checker(), Checker()
        try:
            for i, cond in enumerate(conds):
                looped.check(cond, "label", f"at {i}")
        except InternalCheckError as exc:
            looped_error = str(exc)
        else:
            looped_error = None
        first = conds.index(False) if False in conds else None
        try:
            batched.check_many("label", len(conds), first, lambda: f"at {first}")
        except InternalCheckError as exc:
            batched_error = str(exc)
        else:
            batched_error = None
        assert batched.as_dict() == looped.as_dict(), conds
        assert batched.failures == looped.failures, conds
        assert batched_error == looped_error, conds
