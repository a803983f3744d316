import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbdom import (
    LiftRecord,
    RBInstance,
    ReductionTrace,
    all_blue,
    approximate,
    build_graph,
    is_valid_solution,
    lift,
    rr_isolated,
    rr_lossy2,
    rr_pendant_exhaustive,
    scd_nbr,
    verify_psi,
)
from rbdom.pipeline import reduce_instance

from conftest import (
    coloured_instances,
    cycle_graph,
    lossy_reference,
    path_graph,
    pendant_reference,
    random_graph,
    scd_nbr_reference,
    star_graph,
    verify_psi_reference,
)


def test_isolated_recolors_all():
    g = build_graph(3, [])
    inst = all_blue(g)
    rec = rr_isolated(inst)
    assert rec == LiftRecord(frozenset({0, 1, 2}))
    assert inst.blue_count == 0
    assert lift(ReductionTrace([rec]), set()) == {0, 1, 2}


def test_isolated_noop_on_path():
    inst = all_blue(path_graph(3))
    assert rr_isolated(inst) == LiftRecord(frozenset())
    assert inst.blue_count == 3


def test_isolated_only_takes_isolated():
    g = build_graph(3, [(0, 1)])  # K2 plus isolated vertex 2
    inst = all_blue(g)
    rec = rr_isolated(inst)
    assert rec.add_set == {2}
    assert inst.blue_count == 2


def test_pendant_k2():
    inst = all_blue(build_graph(2, [(0, 1)]))
    recs = rr_pendant_exhaustive(inst)
    assert [sorted(r.add_set) for r in recs] == [[1]]  # lowest pendant is 0
    assert inst.blue_count == 0
    assert lift(ReductionTrace(recs), set()) == {1}


def test_pendant_star():
    inst = all_blue(star_graph(5))
    recs = rr_pendant_exhaustive(inst)
    assert [sorted(r.add_set) for r in recs] == [[0]]
    assert inst.blue_count == 0


def test_pendant_p4():
    inst = all_blue(path_graph(4))
    recs = rr_pendant_exhaustive(inst)
    assert [sorted(r.add_set) for r in recs] == [[1], [2]]
    assert inst.blue_count == 0
    lifted = lift(ReductionTrace(recs), set())
    assert lifted == {1, 2}
    assert is_valid_solution(all_blue(path_graph(4)), lifted)


def test_pendant_matches_reference(rng):
    for _ in range(60):
        g = random_graph(rng, n_max=30)
        inst = all_blue(g)
        recs = rr_pendant_exhaustive(inst)
        ref_reps, ref_blue = pendant_reference(g, range(g.n))
        assert [next(iter(r.add_set)) for r in recs] == ref_reps
        assert set(np.flatnonzero(inst.blue).tolist()) == ref_blue


def test_lossy_c4():
    inst = all_blue(cycle_graph(4))
    rec = rr_lossy2(inst)
    assert sorted(rec.add_set) == [0]
    assert rec.psi == {0: 2}
    assert verify_psi(inst, rec.psi)


def test_lossy_p7():
    inst = all_blue(path_graph(7))
    rec = rr_lossy2(inst)
    assert sorted(rec.add_set) == [1]
    assert rec.psi == {1: 6}
    assert set(np.flatnonzero(inst.blue).tolist()) == {3, 4, 5, 6}
    assert verify_psi(inst, rec.psi)


def test_lossy_noop_when_all_red():
    inst = RBInstance(build_graph(2, [(0, 1)]), np.zeros(2, dtype=bool))
    assert rr_lossy2(inst) == LiftRecord(frozenset(), {})


def test_lossy_matches_reference(rng):
    for _ in range(80):
        g = random_graph(rng, n_max=30)
        inst = all_blue(g)
        rec = rr_lossy2(inst)
        xs, psi, blue = lossy_reference(g, range(g.n))
        assert sorted(rec.add_set) == sorted(xs)
        assert list(rec.psi) == xs
        assert rec.psi == psi
        assert set(np.flatnonzero(inst.blue).tolist()) == blue
        assert verify_psi(inst, rec.psi)


def test_lossy_after_pendant_pipeline(rng):
    # precondition order: isolated once, pendant exhaustively, lossy once
    for _ in range(40):
        g = random_graph(rng, n_max=30)
        inst = all_blue(g)
        rr_isolated(inst)
        rr_pendant_exhaustive(inst)
        mid_blue = set(np.flatnonzero(inst.blue).tolist())
        rec = rr_lossy2(inst)
        xs, psi, blue = lossy_reference(g, mid_blue)
        assert list(rec.psi) == xs
        assert rec.psi == psi
        assert set(np.flatnonzero(inst.blue).tolist()) == blue
        assert verify_psi(inst, rec.psi)


@settings(max_examples=200)
@given(coloured_instances(n_max=40))
def test_lossy_matches_reference_on_coloured_instances(inst):
    xs, psi, blue = lossy_reference(inst.graph, np.flatnonzero(inst.blue).tolist())
    rec = rr_lossy2(inst)
    assert inst.blue.dtype == np.bool_
    assert set(np.flatnonzero(inst.blue).tolist()) == blue
    assert list(rec.psi) == xs
    assert rec.psi == psi
    assert all(type(x) is int and type(z) is int for x, z in rec.psi.items())
    assert all(type(x) is int for x in rec.add_set)


def test_scd_nbr(rng):
    g = path_graph(7)
    assert scd_nbr(g).tolist() == [2, 3, 4, 4, 4, 3, 2]
    assert scd_nbr(build_graph(0, [])).tolist() == []
    for _ in range(30):
        g = random_graph(rng, n_max=30)
        got = scd_nbr(g)
        assert got.dtype == np.int64
        assert got.tolist() == scd_nbr_reference(g)


def test_verify_psi_empty():
    assert verify_psi(all_blue(path_graph(3)), {})


def test_verify_psi_rejects_neighbor_image():
    inst = all_blue(path_graph(3))
    assert not verify_psi(inst, {0: 1})  # image adjacent to x
    assert not verify_psi(inst, {0: 0})  # image equal to x
    assert verify_psi(inst, {0: 2})


def test_verify_psi_rejects_overlapping_image_balls():
    g = path_graph(5)
    # images 2 and 3 are adjacent: closed neighborhoods overlap
    assert not verify_psi(all_blue(g), {0: 2, 4: 3})


def test_verify_psi_rejects_red_or_x_images():
    g = build_graph(6, [(0, 1), (2, 3), (4, 5)])
    inst = all_blue(g)
    inst.blue[3] = False
    assert not verify_psi(inst, {0: 3})  # image not blue
    assert not verify_psi(inst, {0: 2, 2: 4})  # image inside X
    assert not verify_psi(inst, {0: 4, 2: 4})  # not injective


@settings(max_examples=300)
@given(coloured_instances(n_max=40), st.data())
def test_verify_psi_matches_reference(inst, data):
    # arbitrary maps (distinct xs, any zs), mostly invalid; then the rule's
    # own map and that map with one drawn pair added or replaced, on the
    # instances before and after the rule
    ids = st.integers(0, inst.graph.n - 1)
    xs = data.draw(st.lists(ids, unique=True, max_size=inst.graph.n))
    zs = data.draw(st.lists(ids, min_size=len(xs), max_size=len(xs)))
    psi = dict(zip(xs, zs))
    assert verify_psi(inst, psi) == verify_psi_reference(inst, psi)
    before = inst.copy()
    rec = rr_lossy2(inst)
    maps = (rec.psi, {**rec.psi, data.draw(ids): data.draw(ids)})
    for state in (before, inst):
        for psi in maps:
            assert verify_psi(state, psi) == verify_psi_reference(state, psi)


def test_lift_identity_and_union():
    assert lift(ReductionTrace(), {3}) == {3}
    rec = next(
        iter(rr_pendant_exhaustive(all_blue(build_graph(2, [(0, 1)]))))
    )
    assert lift(ReductionTrace([rec]), set()) == {1}
    inst = all_blue(path_graph(4))
    trace = reduce_instance(inst, lossy=False)
    assert lift(trace, {np.int64(0)}) == {0, 1, 2}
    with pytest.raises(TypeError):
        lift(trace, {1.5})


@settings(max_examples=200)
@given(coloured_instances(n_max=40))
def test_lift_validity_on_random_instances(inst):
    original = inst.copy()
    trace = reduce_instance(inst, lossy=True)
    # any valid reduced solution lifts to a valid original solution
    reduced_solutions = (set(np.flatnonzero(inst.blue).tolist()), set(range(inst.graph.n)), approximate(inst))
    for s_reduced in reduced_solutions:
        assert is_valid_solution(inst, s_reduced)
        assert is_valid_solution(original, lift(trace, s_reduced))


@settings(max_examples=200)
@given(coloured_instances(n_max=40))
def test_rules_only_recolor_blue_to_red(inst):
    for rule in (rr_isolated, rr_pendant_exhaustive, rr_lossy2):
        before = inst.blue.copy()
        rule(inst)
        assert not (inst.blue & ~before).any()


@settings(max_examples=200)
@given(coloured_instances(n_max=40))
def test_images_stay_blue_after_lossy(inst):
    # the image set is a certified packing inside the reduced blue set
    rec = rr_lossy2(inst)
    assert verify_psi(inst, rec.psi)
