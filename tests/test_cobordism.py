import doctest
import itertools
import random
import sys
from math import gcd

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from abtqft import cobordism
from abtqft.cyclotomic import field_order, one, q_power
from abtqft.cobordism import (
    CobObject,
    CobordismProgram,
    F_program,
    Index1,
    Index2,
    MappingCylinder,
    MissingClosureError,
    ProgramError,
    apply_map,
    canonical_context,
    closure_factor,
    compose_maps,
    context_transfer,
    identity_map,
    load_program,
    monoidal_product,
    normalized_map,
    validate,
)
from abtqft.cobordism import _context, _inclusion, _surgery_map
from abtqft.heisenberg import HeisContext, induced_map_oracle
from abtqft.homology import (
    cylinder_correspondence,
    cylinder_frame,
    hnf,
    identity_matrix,
    index1_frame,
    intersection,
    mat_mul,
    standard_dual,
    standard_lagrangian,
    symplectic_dual_basis,
)
from abtqft.mcg import MappingClass, twist_generators
from abtqft.surgery import z_invariant, z_lens
import reference

TORUS = CobObject(g=1, L=((1, 0),))
POINT = CobObject(g=0, L=())
TWIST = ((1, 0), (1, 1))       # m -> m, l -> l + m
SWAP_AXES = ((0, 1), (-1, 0))  # m -> l, l -> -m


def _transvection(v):
    """The matrix of x -> x + (x . v) v, symplectic for every integer v."""
    n = len(v)
    return tuple(
        tuple(
            (1 if i == j else 0) + intersection(
                tuple(1 if k == i else 0 for k in range(n)), v
            ) * v[j]
            for j in range(n)
        )
        for i in range(n)
    )


def _random_symplectic(rng, g, factors=3):
    n = 2 * g
    F = identity_matrix(n)
    for _ in range(factors):
        while True:
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v):
                break
        F = mat_mul(F, _transvection(v))
    return F


def _pushed(L, F):
    return hnf(mat_mul(L, F))


def _cylinder_program(obj, F):
    return CobordismProgram(
        obj, (MappingCylinder(F),), CobObject(obj.g, _pushed(obj.L, F))
    )


def test_object_and_step_validation():
    with pytest.raises(ValueError):
        CobObject(g=1, L=((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        MappingCylinder(((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        Index2(0, 2, 4)
    # hnf canonicalization on construction
    assert CobObject(g=1, L=((-1, 0),)).L == ((1, 0),)


def test_validate_empty_and_mismatch():
    prog = CobordismProgram(TORUS, (), TORUS)
    assert hnf(validate(prog).frame[0]) == ((1, 0),)
    bad = CobordismProgram(TORUS, (), CobObject(1, ((0, 1),)))
    with pytest.raises(ProgramError):
        validate(bad)
    # a single cylinder moving the Lagrangian off the declared target
    bad2 = CobordismProgram(TORUS, (MappingCylinder(SWAP_AXES),), TORUS)
    with pytest.raises(ProgramError, match="step 1"):
        validate(bad2)
    wrong_size = CobordismProgram(
        TORUS, (MappingCylinder(identity_matrix(4)),), TORUS
    )
    with pytest.raises(ProgramError, match="step 0"):
        validate(wrong_size)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on int to str conversion")
def test_mismatch_names_a_lagrangian_too_long_to_print():
    # the refusal's message raised ValueError once the carried Lagrangian
    # had an entry of more digits than the interpreter converts
    N = 10 ** 1000
    big = MappingCylinder(((N, N - 1), (1, 1)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ProgramError, match=(
                r"^step 5: program ends at genus 1 with Lagrangian \(1 rows "
                r"of entries up to 16\d\d\d bits\), the declared target "
                r"is genus 1 with Lagrangian \(\(1, 0\),\)$")):
            validate(CobordismProgram(TORUS, (big,) * 5, TORUS))
    finally:
        sys.set_int_max_str_digits(limit)


def test_validate_cancelling_pair_chain():
    # a new handle then surgery on its meridian returns to the start,
    # whatever the Lagrangian was
    for L in (((1, 0),), ((1, 1),), ((0, 1),)):
        obj = CobObject(1, L)
        prog = CobordismProgram(obj, (Index1(), Index2(1, 1, 0)), obj)
        assert hnf(validate(prog).frame[0]) == obj.L
        # in between, the new meridian joins the embedded Lagrangian
        (a, b), = obj.L
        mid = CobObject(2, ((a, 0, b, 0), (0, 1, 0, 0)))
        validate(CobordismProgram(obj, (Index1(),), mid))


def test_cylinder_identity_and_functoriality():
    p = 3
    ident = F_program(p, _cylinder_program(TORUS, identity_matrix(2)))
    assert ident == identity_map(canonical_context(p, TORUS))
    rng = random.Random(8)
    for _ in range(6):
        F = _random_symplectic(rng, 1)
        G = _random_symplectic(rng, 1)
        tgt = CobObject(1, _pushed(_pushed(TORUS.L, F), G))
        two = CobordismProgram(
            TORUS, (MappingCylinder(F), MappingCylinder(G)), tgt
        )
        one_ = CobordismProgram(
            TORUS, (MappingCylinder(mat_mul(F, G)),), tgt
        )
        assert F_program(p, two) == F_program(p, one_)


def test_cylinder_twist_fixed_dual():
    # twist along the meridian with the longitude complement held
    # fixed: b_k picks up q^(k^2)
    for p in (3, 5):
        ctx = canonical_context(p, TORUS)
        prog = CobordismProgram(TORUS, (MappingCylinder(TWIST),), TORUS)
        m = F_program(p, prog)
        assert canonical_context(p, prog.target) == ctx
        assert m == {
            ((k,), (k,)): q_power(p, k * k) for k in range(ctx.p_prime)
        }


def test_cylinder_relabeling():
    # m -> l, l -> -m carries <m> to <l> and just relabels the basis
    p = 5
    ctx = canonical_context(p, TORUS)
    target = canonical_context(p, CobObject(1, ((0, 1),)))
    prog = CobordismProgram(TORUS, (MappingCylinder(SWAP_AXES),),
                            CobObject(1, ((0, 1),)))
    m = F_program(p, prog)
    unit = one(field_order(p))
    assert canonical_context(p, prog.target) == target
    assert set(m.values()) == {unit}
    assert sorted(z for z, _ in m) == sorted(w for _, w in m)


def test_cylinder_lagrangian_violation():
    p = 3
    ctx = canonical_context(p, TORUS)
    pushed = _context(p, *cylinder_frame(TWIST, ctx.L, ctx.Ldual))
    with pytest.raises(ValueError, match="Lagrangian"):
        context_transfer(pushed, canonical_context(
            p, CobObject(1, ((0, 1),))
        ))


def test_context_transfer_roundtrip():
    p = 5
    ctx = canonical_context(p, TORUS)
    pushed = HeisContext(
        p=p, g_minus=0, g_plus=1, L=((1, 0),), Ldual=((1, 1),)
    )
    there = context_transfer(ctx, pushed)
    back = context_transfer(pushed, ctx)
    assert compose_maps(back, there) == identity_map(ctx)
    with pytest.raises(ValueError):
        context_transfer(ctx, canonical_context(p, CobObject(1, ((0, 1),))))


@settings(max_examples=60)
@given(p=st.sampled_from((3, 4, 5, 8, 9, 12, 15)), g=st.integers(1, 3),
       data=st.data())
def test_context_transfer_matches_reference(p, g, data):
    # a frame pushed through transvections with entries up to 10^30 and
    # the canonical frame of its Lagrangian, both ways: the same map as
    # splitting each label's class on its own, in the same order
    entries = st.integers(-10 ** 30, 10 ** 30)
    vectors = data.draw(st.lists(
        st.lists(entries, min_size=2 * g, max_size=2 * g),
        min_size=1, max_size=3))
    L, W = standard_lagrangian(g), standard_dual(g)
    for v in vectors:
        L, W = cylinder_frame(_transvection(v), L, W)
    pushed = _context(p, L, W)
    canonical = canonical_context(p, CobObject(g, L))
    for a, b in ((pushed, canonical), (canonical, pushed)):
        assert list(context_transfer(a, b).items()) == list(
            reference.context_transfer(a, b).items())


def test_index1_inclusion():
    p = 3
    scalar = canonical_context(p, POINT)
    m = _inclusion(p, scalar.g, None)
    assert m == {((0,), ()): one(field_order(p))}
    assert len(index1_frame(scalar.L, scalar.Ldual)[0]) == 1
    m_app = _inclusion(p, 1, None)
    assert m_app == {
        ((k, 0), (k,)): one(field_order(p)) for k in range(3)
    }
    m_front = _inclusion(p, 1, 0)
    assert m_front == {
        ((0, k), (k,)): one(field_order(p)) for k in range(3)
    }


def test_index2_meridian_and_longitude():
    # surgery on the meridian keeps only the zero label; surgery on the
    # longitude evaluates every label to 1
    for p in (3, 5):
        ctx = canonical_context(p, TORUS)
        prog = CobordismProgram(TORUS, (Index2(0, 1, 0),), POINT)
        mer = F_program(p, prog)
        assert len(validate(prog).frame[0]) == 0
        assert mer == {((), (0,)): one(field_order(p))}
        lon = _surgery_map(p, ctx, 0, 0, 1, "auto")
        assert lon == {
            ((), (k,)): one(field_order(p)) for k in range(ctx.p_prime)
        }


def test_index2_frozen_exponents():
    # gamma = m + 2l at p = 5: coefficient q^(-k k') with 2k' = k
    p = 5
    ctx = canonical_context(p, TORUS)
    m = _surgery_map(p, ctx, 0, 1, 2, "closed")
    table = {0: 0, 1: 2, 2: 3, 3: 3, 4: 2}
    assert m == {
        ((), (k,)): q_power(p, e) for k, e in table.items()
    }
    # d = gcd(beta, p') vanishing pattern: beta = 3 at p' = 3 kills
    # every label except multiples of 3
    m3 = _surgery_map(3, canonical_context(3, TORUS), 0, 1, 3, "closed")
    assert set(w for _, w in m3) == {(0,)}


def test_index2_closed_equals_oracle_small():
    for p in (3, 5):
        ctx = canonical_context(p, TORUS)
        for al, be in itertools.product(range(-3, 4), repeat=2):
            if gcd(al, be) != 1:
                continue
            mc = _surgery_map(p, ctx, 0, al, be, "closed")
            mo = _surgery_map(p, ctx, 0, al, be, "oracle")
            assert mc == mo, (p, al, be)


def test_index2_closed_equals_oracle_nonstandard_frame():
    p = 3
    L = hnf(((1, 0, 0, 1), (0, 1, 1, 0)))
    U, W = symplectic_dual_basis(L, 2)
    ctx = HeisContext(p=p, g_minus=0, g_plus=2, L=U, Ldual=W)
    for handle in (0, 1):
        for al, be in itertools.product(range(-2, 3), repeat=2):
            if gcd(al, be) != 1:
                continue
            mc = _surgery_map(p, ctx, handle, al, be, "closed")
            mo = _surgery_map(p, ctx, handle, al, be, "oracle")
            assert mc == mo, (handle, al, be)


def test_index2_even_order_modes():
    p = 8
    ctx = canonical_context(p, TORUS)
    with pytest.raises(ValueError, match="oracle"):
        _surgery_map(p, ctx, 0, 1, 2, "closed")
    auto = _surgery_map(p, ctx, 0, 1, 2, "auto")
    oracle = _surgery_map(p, ctx, 0, 1, 2, "oracle")
    assert auto == oracle


def test_orientation_reversal_of_surgery_class():
    # the framed sphere with its orientation reversed is the same
    # surgery: gamma and -gamma induce the same map
    ctx5 = canonical_context(5, TORUS)
    ctx8 = canonical_context(8, TORUS)
    for al, be in ((1, 0), (0, 1), (1, 2), (2, 3), (3, -2)):
        for ctx, mode in ((ctx5, "closed"), (ctx5, "oracle"), (ctx8, "oracle")):
            plus = _surgery_map(ctx.p, ctx, 0, al, be, mode)
            minus = _surgery_map(ctx.p, ctx, 0, -al, -be, mode)
            assert plus == minus


def test_program_empty_is_identity():
    for p in (3, 5):
        obj = CobObject(1, ((1, 1),))
        prog = CobordismProgram(obj, (), obj)
        assert F_program(p, prog) == identity_map(canonical_context(p, obj))


def test_program_cancellation_is_identity():
    # index-1 then index-2 crossing the new belt sphere once is the
    # cylinder of the induced diffeomorphism, here isotopic to the
    # identity; framing alpha and slot position do not matter
    p = 3
    for L in (((1, 0),), ((1, 1),)):
        obj = CobObject(1, L)
        for pos, handle in ((None, 1), (0, 0)):
            for alpha in (0, 1, -2):
                steps = (
                    Index1(pos),
                    Index2(handle, alpha, 1),
                )
                prog = CobordismProgram(obj, steps, obj)
                assert F_program(p, prog) == identity_map(
                    canonical_context(p, obj)
                ), (L, pos, alpha)
    genus2 = CobObject(2, ((1, 0, 0, 0), (0, 1, 0, 0)))
    prog2 = CobordismProgram(genus2, (Index1(1), Index2(1, 0, 1)), genus2)
    assert F_program(p, prog2) == identity_map(canonical_context(p, genus2))


def test_program_conjugated_surgery():
    # pushing the surgery sphere through a diffeomorphism first gives
    # the same composite map
    p = 3
    tgt = POINT
    # genus 1: twist then surger the image of the longitude
    A = CobordismProgram(
        TORUS, (MappingCylinder(TWIST), Index2(0, 1, 1)), tgt
    )
    B = CobordismProgram(TORUS, (Index2(0, 0, 1),), tgt)
    assert F_program(p, A) == F_program(p, B)
    # genus 2: swap the handles then surger the other meridian
    swap = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    genus2 = CobObject(2, ((1, 0, 0, 0), (0, 1, 0, 0)))
    torus_tgt = CobObject(1, ((1, 0),))
    A2 = CobordismProgram(
        genus2, (MappingCylinder(swap), Index2(1, 1, 0)), torus_tgt
    )
    B2 = CobordismProgram(genus2, (Index2(0, 1, 0),), torus_tgt)
    assert F_program(p, A2) == F_program(p, B2)


def test_program_disjoint_surgeries_commute():
    p = 3
    genus2 = CobObject(2, ((1, 0, 0, 0), (0, 1, 0, 0)))
    A = CobordismProgram(genus2, (Index2(0, 1, 2), Index2(0, 2, 3)), POINT)
    B = CobordismProgram(genus2, (Index2(1, 2, 3), Index2(0, 1, 2)), POINT)
    assert F_program(p, A) == F_program(p, B)
    # an index-1 handle insertion and a surgery on the old handle
    P1 = CobordismProgram(TORUS, (Index1(0), Index2(1, 1, 2)), TORUS)
    P2 = CobordismProgram(TORUS, (Index2(0, 1, 2), Index1(0)), TORUS)
    assert F_program(p, P1) == F_program(p, P2)


def test_program_random_cylinder_inverse():
    p = 5
    rng = random.Random(23)
    for _ in range(5):
        F = _random_symplectic(rng, 1)
        Finv = _symplectic_inverse(F)
        tgt = CobObject(1, _pushed(TORUS.L, F))
        prog = CobordismProgram(
            TORUS, (MappingCylinder(F), MappingCylinder(Finv)), TORUS
        )
        assert F_program(p, prog) == identity_map(canonical_context(p, TORUS))


def _symplectic_inverse(F):
    n = len(F)
    g = n // 2
    J = tuple(
        tuple(
            (1 if j == g + i else 0) - (1 if i >= g and j == i - g else 0)
            for j in range(n)
        )
        for i in range(n)
    )
    Jinv = tuple(tuple(-v for v in row) for row in J)
    return mat_mul(mat_mul(J, tuple(zip(*F))), Jinv)


def test_program_against_oracle_start_vector():
    # every map sends the start vector consistently with the tensor
    # construction: the column of b_0 agrees between modes
    p = 5
    ctx = canonical_context(p, TORUS)
    for al, be in ((1, 1), (2, 1), (1, 3)):
        closed = _surgery_map(p, ctx, 0, al, be, "closed")
        oracle = _surgery_map(p, ctx, 0, al, be, "oracle")
        col = {z: v for (z, w), v in closed.items() if w == (0,)}
        col_o = {z: v for (z, w), v in oracle.items() if w == (0,)}
        assert col == col_o and col


_PRIMITIVE = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
    lambda gamma: gcd(*gamma) == 1)


@given(p=st.sampled_from((3, 5, 7)),
       word=st.lists(st.sampled_from(("ta", "ta'", "tb", "tb'")),
                     max_size=3),
       gamma=st.none() | _PRIMITIVE)
def test_program_closed_route_equals_oracle(p, word, gamma):
    """Genus-1 programs at odd order: an index-2 step on a primitive
    class, a cylinder on a twist word of length at most 3, or the
    cylinder then the step.  A program's modes differ only at index-2
    steps, so a lone cylinder is checked against the oracle on its
    correspondence instead."""
    assume(word or gamma)
    event("p=%d %s" % (p, "cylinder" if gamma is None else
                       "cylinder, index-2" if word else "index-2"))
    lib = twist_generators(1)
    f = MappingClass.identity(1)
    for name in word:
        f = f * lib[name]
    if gamma is None:
        ctx = canonical_context(p, TORUS)
        corr = cylinder_correspondence(f.matrix, ctx.L, ctx.Ldual)
        # between carried frames a cylinder's map is the identity
        assert induced_map_oracle(p, corr) == identity_map(ctx)
        prog = _cylinder_program(TORUS, f.matrix)
    else:
        steps = (MappingCylinder(f.matrix),) if word else ()
        prog = CobordismProgram(TORUS, steps + (Index2(0, *gamma),), POINT)
    closed = F_program(p, prog, "closed")
    assert closed and closed == F_program(p, prog, "oracle")


def test_monoidal_product():
    p = 3
    prod = monoidal_product(TORUS, TORUS)
    assert prod == CobObject(2, ((1, 0, 0, 0), (0, 1, 0, 0)))
    mixed = monoidal_product(CobObject(1, ((1, 1),)), TORUS)
    assert mixed.g == 2 and len(mixed.L) == 2
    # dimension count on the product of canonical contexts
    assert len(canonical_context(p, prod).labels()) == 3 ** 2

    f1 = F_program(p, _cylinder_program(TORUS, TWIST))
    q2 = CobordismProgram(TORUS, (Index2(0, 0, 1),), POINT)
    f2 = F_program(p, q2)
    embedded_twist = (
        (1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1),
    )
    prod_prog = CobordismProgram(
        prod,
        (MappingCylinder(embedded_twist), Index2(1, 0, 1)),
        CobObject(1, _pushed(TORUS.L, TWIST)),
    )
    assert F_program(p, prod_prog) == monoidal_product(f1, f2)
    # id on one factor: id (x) F(C)
    ident = identity_map(canonical_context(p, TORUS))
    prod_id = CobordismProgram(prod, (Index2(1, 0, 1),), TORUS)
    assert F_program(p, prod_id) == monoidal_product(ident, f2)


def test_normalized_map_builtins():
    p = 5
    cyl = _cylinder_program(TORUS, TWIST)
    assert normalized_map(p, cyl) == F_program(p, cyl)
    grow = CobordismProgram(
        TORUS, (Index1(),), CobObject(2, ((1, 0, 0, 0), (0, 1, 0, 0)))
    )
    assert normalized_map(p, grow) == F_program(p, grow)
    # surgery on the meridian closes off to S^2 x S^1, factor 1
    mer = CobordismProgram(TORUS, (Index2(0, 1, 0),), POINT)
    assert normalized_map(p, mer) == F_program(p, mer)
    # gamma = alpha m + beta l closes off to the lens space L(beta, alpha)
    lens = CobordismProgram(TORUS, (Index2(0, 1, 2),), POINT)
    factor = z_lens(p, 2, 1)
    raw = F_program(p, lens)
    assert normalized_map(p, lens) == {k: factor * v for k, v in raw.items()}
    # an explicit closure presentation gives the same factor
    assert normalized_map(p, lens, closure=((2,),)) == normalized_map(p, lens)
    assert z_invariant(p, ((2,),)) == factor
    composite = CobordismProgram(TORUS, (Index1(), Index2(1, 1, 0)), TORUS)
    with pytest.raises(ProgramError, match="closure"):
        normalized_map(p, composite)


@st.composite
def _short_programs(draw):
    """Programs of at most one step on the torus, the step drawn from
    each kind, and now and then a second step."""
    steps = []
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        kind = draw(st.sampled_from(["cylinder", "index1", "index2"]))
        if kind == "cylinder":
            steps.append(MappingCylinder(draw(st.sampled_from(
                [TWIST, SWAP_AXES, ((1, 1), (0, 1))]))))
        elif kind == "index1":
            steps.append(Index1())
        else:
            alpha = draw(st.integers(-9, 9))
            beta = draw(st.integers(-9, 9))
            assume(gcd(alpha, beta) == 1)
            steps.append(Index2(0, alpha, beta))
    return CobordismProgram(TORUS, tuple(steps), TORUS)


@given(st.sampled_from([3, 4, 5, 7, 8, 12]), _short_programs(),
       st.sampled_from([None, (), ((2,),), ((0, 1), (1, 3))]))
def test_closure_factor_is_the_command_line_branch(p, prog, closure):
    want = reference.closure_factor(p, prog.steps, closure)
    if want is None:
        with pytest.raises(MissingClosureError, match="closure"):
            closure_factor(p, prog, closure)
    else:
        assert closure_factor(p, prog, closure) == want


def test_spread_surgery_class_is_rejected():
    # a class meeting two frame pairs needs a conjugating cylinder and
    # is refused rather than guessed, by the walk, at every order
    mix = ((1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    src = CobObject(2, ((1, 0, 0, 0), (0, 1, 0, 0)))
    prog = CobordismProgram(
        src, (MappingCylinder(mix), Index2(0, 1, 0)), CobObject(1, ((0, 1),))
    )
    with pytest.raises(ProgramError, match="step 1: .*conjugate"):
        validate(prog)
    for p in (3, 4):
        with pytest.raises(ProgramError, match="step 1: .*conjugate"):
            F_program(p, prog)


def test_apply_and_compose_maps():
    p = 3
    ctx = canonical_context(p, TORUS)
    m = F_program(p, CobordismProgram(TORUS, (MappingCylinder(TWIST),),
                                      TORUS))
    vec = {(1,): one(field_order(p)), (2,): q_power(p, 1)}
    out = apply_map(m, vec)
    assert out == {
        (1,): q_power(p, 1), (2,): q_power(p, 1 + 4)
    }
    assert compose_maps(identity_map(ctx), m) == m


def test_load_program():
    doc = {
        "source": {"g": 1, "L": [[1, 0]]},
        "steps": [
            {"kind": "index1", "position": 0},
            {"kind": "index2", "handle": 0, "gamma": [1, 0]},
        ],
        "target": {"g": 1, "L": [[1, 0]]},
    }
    prog = load_program(doc)
    assert prog.steps == (Index1(0), Index2(0, 1, 0))
    assert hnf(validate(prog).frame[0]) == ((1, 0),)
    with pytest.raises(ProgramError, match="step 0"):
        load_program({
            "source": {"g": 0, "L": []},
            "steps": [{"kind": "index3"}],
            "target": {"g": 0, "L": []},
        })
    with pytest.raises(ProgramError):
        load_program({"steps": []})
    with pytest.raises(ProgramError, match="step 0"):
        load_program({
            "source": {"g": 0, "L": []},
            "steps": [{"kind": "index2", "handle": 0, "gamma": [2, 4]}],
            "target": {"g": 0, "L": []},
        })


def test_doctests():
    assert doctest.testmod(cobordism).failed == 0


# -- the walk against the ambient reference, and functoriality -------------


def _random_object(rng, g):
    if g == 0:
        return POINT
    return CobObject(g, _pushed(standard_lagrangian(g),
                                _random_symplectic(rng, g)))


_CLASSES = st.sampled_from([(a, b) for a in range(-4, 5)
                            for b in range(-4, 5) if gcd(a, b) == 1])


@st.composite
def _programs(draw, max_genus=3, faults=True, min_steps=0, source=None):
    """Programs at genus at most ``max_genus`` of at most five steps:
    cylinders on random symplectic matrices, index-1 steps at any slot
    and index-2 steps on primitive classes of any handle, ending on the
    declared target.  With ``faults``, also cylinders of the wrong size,
    handles and positions out of range, and wrong targets."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if source is None:
        source = _random_object(rng, draw(st.integers(0, max_genus)))
    g = source.g
    steps = []
    for _ in range(draw(st.integers(min_steps, 5))):
        kind = draw(st.sampled_from(
            ["index1"] * (g < max_genus)
            + ["cylinder", "cylinder", "index2"] * (g > 0)
            + ["fault"] * faults))
        if kind == "cylinder":
            steps.append(MappingCylinder(_random_symplectic(rng, g)))
        elif kind == "index1":
            steps.append(Index1(draw(st.none() | st.integers(0, g))))
            g += 1
        elif kind == "index2":
            steps.append(Index2(draw(st.integers(0, g - 1)),
                                *draw(_CLASSES)))
            g -= 1
        else:
            steps.append(draw(st.sampled_from([
                MappingCylinder(identity_matrix(2 * g + 2)),
                Index1(-1), Index1(g + 1), Index2(-1, 1, 0),
                Index2(g, 0, 1)])))
    try:
        target = CobObject(*reference.ambient_chain(source, steps)[-1])
    except ProgramError:
        target = source
    if faults and draw(st.booleans()):
        target = _random_object(rng, draw(st.integers(0, max_genus)))
    return CobordismProgram(source, tuple(steps), target)


def _step_of(exc):
    return int(str(exc).split(":")[0].split()[1])


@settings(max_examples=200, deadline=None)
@given(_programs())
def test_walk_validates_as_the_ambient_reference(prog):
    """The walk carries the reference's Lagrangian to every step (each
    prefix validates against it), or refuses with its message; the one
    exception is a class spread over two frame pairs, which the walk
    refuses where the reference goes on."""
    try:
        want = reference.validate(prog)
    except ProgramError as exc:
        want = exc
    try:
        validate(prog)
    except ProgramError as exc:
        if "conjugate" in str(exc):
            event("spread class")
            assert (not isinstance(want, ProgramError)
                    or _step_of(want) > _step_of(exc))
            return
        event("refused")
        assert str(exc) == str(want)
    else:
        event("valid")
        for i, L in enumerate(want):
            validate(CobordismProgram(prog.source, prog.steps[:i],
                                      CobObject(len(L), L)))


def _two_adic(n):
    return (n & -n).bit_length() - 1


@st.composite
def _two_factors(draw):
    """Two programs P1, P2 at genus at most 2, P2 starting where P1
    ends; half of them stay at genus at most 1, where no surgery class
    is spread over two frame pairs."""
    top = draw(st.sampled_from([1, 2]))
    first = draw(_programs(max_genus=top, faults=False, min_steps=1))
    second = draw(_programs(max_genus=top, faults=False, min_steps=1,
                            source=first.target))
    return first, second


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(3, "closed"), (5, "closed"), (3, "oracle"),
                        (4, "oracle")]), _two_factors())
def test_program_maps_compose(route, factors):
    """F(P2 P1) = F(P2) F(P1) at genus at most 2 (the oracle tensors at
    most 3^5 pairs), and F of a validated program is F of the bare one."""
    p, mode = route
    first, second = factors
    prog = CobordismProgram(first.source, first.steps + second.steps,
                            second.target)
    try:
        walks = [validate(prog), validate(first), validate(second)]
    except ProgramError as exc:
        assert "conjugate" in str(exc)
        assume(False)
    # the oracle's designated-class assertion, a known defect at even p
    assume(p % 2 or not any(
        s and _two_adic(s[4]) == _two_adic(p // 2)
        for walk in walks for s in walk.surgeries))
    event("p=%d %s, an index-2 step in P2: %s"
          % (p, mode, any(walks[2].surgeries)))
    got = F_program(p, walks[0], mode)
    assert got == F_program(p, prog, mode)
    assert got == compose_maps(F_program(p, walks[2], mode),
                               F_program(p, walks[1], mode))
