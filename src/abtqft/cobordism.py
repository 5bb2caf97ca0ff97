"""Cobordisms between surfaces-with-Lagrangians as programs of simple
steps, and the functor taking them to linear maps of Schrodinger
modules.

A program lists mapping cylinders, index-1 and index-2 surgeries
between a declared source and target.  Step payloads are written in
the ambient handle coordinates of the surface they act on: cylinder
matrices act on ``(a_1..a_g, b_1..b_g)``, an index-1 step inserts a
handle slot, and an index-2 step removes its designated slot, the
surgery class being ``alpha*m_k + beta*l_k`` there.

One p-free walk, :func:`validate`, checks a program and carries its
frame, starting from the canonical frame of the source object (the
Lagrangian basis plus its symplectic complement): a cylinder pushes the
whole frame forward, an index-1 step adjoins the new slot pair, an
index-2 step consumes the frame pair spanning the surgery class and
projects the rest to the surviving slots.  The carried Lagrangian is
the source Lagrangian pushed through the steps' correspondences; it
must land on the declared target.  An index-2 class spread over
several frame pairs is out of scope and refused; insert a conjugating
cylinder first.  :func:`F_program` evaluates the walk at an order p
and is the only functor on programs: in the carried frame a cylinder
adds no map, an index-1 step is the label inclusion and an index-2 step
a per-handle coefficient; the composite is rewritten once into the
canonical frame of the target (:func:`context_transfer`), so it is
frame-independent.

Index-2 coefficients come in two modes: a closed per-handle formula
(odd p only; for p divisible by 4 the exponent is ambiguous by a sign)
and the bimodule-tensor oracle, which is the ground truth the closed
form is tested against.

``normalized_map`` rescales by ``closure_factor``, the invariant of the
closed-off cobordism: built in for programs of at most one step, it
must be supplied as a surgery presentation otherwise.
"""

from __future__ import annotations

from math import gcd
from operator import index

from .cyclotomic import (field_degree, field_order, one, p_prime,
                         p_prime_power, q_power)
from .heisenberg import (
    HeisContext,
    apply_map,
    compose_maps,
    identity_map,
    induced_map_oracle,
    labels,
    oracle_pairs,
    oracle_work,
    split_coords,
)
from .homology import (
    combine,
    cylinder_frame,
    hnf,
    index1_frame,
    index2_correspondence,
    intersection,
    is_lagrangian,
    is_symplectic,
    symplectic_dual_basis,
)
from .surgery import z_invariant, z_lens
from .value import Value, json_int, set_field

__all__ = [
    "CobObject",
    "MappingCylinder",
    "Index1",
    "Index2",
    "CobordismProgram",
    "ProgramError",
    "MissingClosureError",
    "ValidatedProgram",
    "validate",
    "canonical_context",
    "context_transfer",
    "F_program",
    # the sparse maps of heisenberg, re-exported
    "identity_map",
    "compose_maps",
    "apply_map",
    "closed_off_lens",
    "closure_factor",
    "normalized_map",
    "load_program",
    "program_work", "entry_work",
]


class ProgramError(ValueError):
    """A program is not a well-formed morphism between its declared
    objects."""


class MissingClosureError(ProgramError):
    """A composite program was normalized without a closure."""


class CobObject(Value):
    __slots__ = ("g", "L")

    def __init__(self, g, L):
        set_field(self, "g", g)
        set_field(self, "L", hnf(L))
        if not is_lagrangian(self.L, g):
            raise ValueError("object Lagrangian must be a Lagrangian")


class MappingCylinder(Value):
    __slots__ = ("matrix",)

    def __init__(self, matrix):
        matrix = tuple(tuple(index(v) for v in r) for r in matrix)
        set_field(self, "matrix", matrix)
        if not is_symplectic(matrix):
            raise ValueError("cylinder matrix must preserve the form")


class Index1(Value):
    __slots__ = ("position",)

    def __init__(self, position=None):
        set_field(self, "position", position)


class Index2(Value):
    __slots__ = ("handle", "alpha", "beta")

    def __init__(self, handle, alpha, beta):
        set_field(self, "handle", handle)
        set_field(self, "alpha", alpha)
        set_field(self, "beta", beta)
        if gcd(alpha, beta) != 1:
            raise ValueError("surgery class must be primitive")


class CobordismProgram(Value):
    __slots__ = ("source", "steps", "target")

    def __init__(self, source, steps, target):
        set_field(self, "source", source)
        set_field(self, "steps", steps)
        set_field(self, "target", target)


def _context(p, L, Ldual):
    return HeisContext(p=p, g_minus=0, g_plus=len(L), L=L, Ldual=Ldual)


def canonical_context(p, obj: CobObject):
    """The reference frame of an object: its Lagrangian basis together
    with the complementary basis produced by symplectic completion."""
    return _context(p, *symplectic_dual_basis(obj.L, obj.g))


def context_transfer(ctx_from, ctx_to):
    """Monomial change of frame between two contexts with the same
    Lagrangian.  A label c names the integral class sum c_i Ldual_i of
    the old frame; its split coordinates (alpha, beta) in the new frame
    are c times those of the old dual vectors, found once, so c goes to
    beta mod p' with phase q^(alpha . beta)."""
    if ctx_from.p != ctx_to.p or ctx_from.g != ctx_to.g:
        raise ValueError("contexts live on different surfaces")
    if hnf(ctx_from.L) != hnf(ctx_to.L):
        raise ValueError(
            "frames have different Lagrangians; a transfer is only "
            "monomial along a fixed Lagrangian"
        )
    p, g = ctx_from.p, ctx_from.g
    pp = p_prime(p)
    coords = [tuple(v % p for v in alpha + beta) for alpha, beta in (
        split_coords(ctx_to, w) for w in ctx_from.Ldual)]
    out = {}
    seen = set()
    for c in ctx_from.labels():
        x = combine(c, coords)
        alpha, beta = x[:g], x[g:]
        label = tuple(b % pp for b in beta)
        out[(label, c)] = q_power(p, sum(
            a * b for a, b in zip(alpha, beta)) % p)
        seen.add(label)
    if len(seen) != len(out):
        raise ArithmeticError("transfer must be a relabeling")
    return out


# -- the step maps in a carried frame --------------------------------------


def _inclusion(p, g, position):
    """Label map of an index-1 step from genus g: each label gains a zero
    component at the new slot (appended when ``position`` is None)."""
    pos = g if position is None else position
    unit = one(field_order(p))
    return {(c[:pos] + (0,) + c[pos:], c): unit
            for c in labels(p_prime(p), g)}


def _closed_coeff(p, alpha, beta, k):
    """Per-handle index-2 coefficient for odd p: None (zero) unless
    gcd(beta, p') divides k, else q^(-k k') with beta k' = alpha k
    modulo p'."""
    pp = p_prime(p)
    d = gcd(beta, pp)
    if k % d:
        return None
    kp = next(x for x in range(pp) if (beta * x - alpha * k) % pp == 0)
    return q_power(p, (-k * kp) % p)


def _surgery_map(p, ctx, j, alpha, beta, mode):
    """Label map of a surgery on alpha*u_j + beta*w_j where (u, w) is
    the frame of ctx; label slot j disappears."""
    if mode == "auto":
        mode = "closed" if p % 2 else "oracle"
    if mode == "oracle":
        corr = index2_correspondence(
            ctx.g, j, alpha, beta, ctx.L, ctx.Ldual
        )
        return induced_map_oracle(p, corr)
    if mode != "closed":
        raise ValueError("mode must be 'closed', 'oracle' or 'auto'")
    if p % 2 == 0:
        raise ValueError(
            "closed exponent formula is sign-ambiguous for even order; "
            "use the oracle mode"
        )
    m = {}
    for c in ctx.labels():
        coeff = _closed_coeff(p, alpha, beta, c[j])
        if coeff is None:
            continue
        m[(c[:j] + c[j + 1:], c)] = coeff
    return m


def _project_off(vec, gamma, g, slot, alpha, beta):
    """Image of a class orthogonal to gamma in the coordinates of the
    kept slots: subtract the gamma multiple sitting in the surgered
    slot, then delete that slot."""
    if alpha:
        t, r = divmod(vec[slot], alpha)
    else:
        t, r = divmod(vec[g + slot], beta)
    if r:
        raise ArithmeticError("class is not orthogonal to the surgery curve")
    y = tuple(a - t * b for a, b in zip(vec, gamma))
    if y[slot] or y[g + slot]:
        raise ArithmeticError("projected class keeps a part in the "
                              "surgered slot")
    keep = [i for i in range(g) if i != slot]
    return tuple(y[i] for i in keep) + tuple(y[g + i] for i in keep)


# -- one walk over a program -----------------------------------------------


class ValidatedProgram(Value):
    """A program :func:`validate` accepted, with what :func:`F_program`
    reads of its walk: per step, the carried frame (L, Ldual) and the
    class coordinates (j, a_j, b_j) of an index-2 step, None for other
    steps; and the frame carried to the end."""

    __slots__ = ("program", "surgeries", "frame")

    def __init__(self, program, surgeries, frame):
        set_field(self, "program", program)
        set_field(self, "surgeries", surgeries)
        set_field(self, "frame", frame)


def _push(step, L, Ldual):
    """The next frame and the ``surgeries`` entry of one checked step:
    a cylinder or index-1 step moves the frame to the target frame of
    its correspondence; an index-2 class alpha*m_k + beta*l_k must meet
    one frame pair j, and the other pairs are projected off it."""
    g = len(L)
    if isinstance(step, MappingCylinder):
        if len(step.matrix) != 2 * g:
            raise ProgramError("cylinder matrix size does not match genus")
        frame = cylinder_frame(step.matrix, L, Ldual)
    elif isinstance(step, Index1):
        if step.position is not None and not 0 <= step.position <= g:
            raise ProgramError("insertion position out of range")
        frame = index1_frame(L, Ldual, step.position)
    elif isinstance(step, Index2):
        if not 0 <= step.handle < g:
            raise ProgramError("surgery handle out of range")
        k, alpha, beta = step.handle, step.alpha, step.beta
        gamma = tuple(alpha * (i == k) + beta * (i == g + k)
                      for i in range(2 * g))
        a = tuple(intersection(gamma, w) for w in Ldual)
        b = tuple(intersection(u, gamma) for u in L)
        support = [i for i in range(g) if a[i] or b[i]]
        if len(support) != 1:
            raise ProgramError(
                "surgery class meets %d pairs of the carried frame; only "
                "single-handle classes are supported, conjugate by a "
                "mapping cylinder first" % len(support)
            )
        j = support[0]
        frame = tuple(
            tuple(_project_off(rows[i], gamma, g, k, alpha, beta)
                  for i in range(g) if i != j)
            for rows in (L, Ldual)
        )
        return frame, (L, Ldual, j, a[j], b[j])
    else:
        raise ProgramError("unknown step %r" % (step,))
    return frame, None


def _show(rows):
    """``repr`` of integer rows, or their size when an entry has more
    digits than the interpreter converts to a string."""
    try:
        return repr(rows)
    except ValueError:
        return "(%d rows of entries up to %d bits)" % (
            len(rows), max(abs(v).bit_length() for r in rows for v in r))


def validate(prog: CobordismProgram):
    """Carry the canonical frame of the source across every step and
    check that its Lagrangian, in Hermite normal form, is the declared
    target's; p-free.  Returns a :class:`ValidatedProgram`; raises
    :class:`ProgramError` naming the first failing step."""
    source = prog.source
    frame, surgeries = symplectic_dual_basis(source.L, source.g), []
    for i, step in enumerate(prog.steps):
        try:
            frame, surgery = _push(step, *frame)
        except ProgramError as exc:
            raise ProgramError("step %d: %s" % (i, exc)) from exc
        surgeries.append(surgery)
    g, L, target = len(frame[0]), hnf(frame[0]), prog.target
    if g != target.g or L != target.L:
        raise ProgramError(
            "step %d: program ends at genus %d with Lagrangian %s, the "
            "declared target is genus %d with Lagrangian %s"
            % (len(prog.steps), g, _show(L), target.g, _show(target.L))
        )
    return ValidatedProgram(prog, tuple(surgeries), frame)


def F_program(p, prog, mode="auto"):
    """Composite map of a :class:`ValidatedProgram`, or of a bare program
    validated first, between the canonical frames of its source and
    target.  Between carried frames a cylinder is the identity, an
    index-1 step the label inclusion and an index-2 step the surgery
    map of its frame pair."""
    walk = prog if isinstance(prog, ValidatedProgram) else validate(prog)
    final = canonical_context(p, walk.program.target)
    g = walk.program.source.g
    unit = one(field_order(p))
    total = {(c, c): unit for c in labels(p_prime(p), g)}
    for step, surgery in zip(walk.program.steps, walk.surgeries):
        if isinstance(step, Index1):
            m, g = _inclusion(p, g, step.position), g + 1
        elif surgery is not None:
            L, Ldual, *coordinates = surgery
            m, g = _surgery_map(p, _context(p, L, Ldual), *coordinates,
                                mode), g - 1
        else:
            continue
        total = compose_maps(m, total)
    if walk.frame != (final.L, final.Ldual):
        last = _context(p, *walk.frame)
        total = compose_maps(context_transfer(last, final), total)
    return total


# -- the normalized (non-projective) functor ------------------------------


def closed_off_lens(steps):
    """The lens space (beta, alpha), beta >= 0, that closes off a program
    of one index-2 step, else None."""
    if len(steps) == 1 and isinstance(steps[0], Index2):
        sign = -1 if steps[0].beta < 0 else 1
        return sign * steps[0].beta, sign * steps[0].alpha
    return None


def closure_factor(p, prog: CobordismProgram, closure=None):
    """Z of the closed-off cobordism: Z(closure) if given, else that of
    :func:`closed_off_lens`, 1 for no step or one cylinder or index-1
    step, and :class:`MissingClosureError` for a composite program."""
    if closure is not None:
        return z_invariant(p, closure)
    lens = closed_off_lens(prog.steps)
    if lens is not None:
        return z_lens(p, *lens)
    if len(prog.steps) > 1:
        raise MissingClosureError(
            "no built-in closure for a composite program; supply a "
            "surgery presentation of the closed-off manifold"
        )
    return one(field_order(p))


def normalized_map(p, prog: CobordismProgram, closure=None, mode="auto"):
    """Normalization Z(closed-off cobordism) * F_program, the factor
    being :func:`closure_factor`."""
    raw = F_program(p, prog, mode)
    factor = closure_factor(p, prog, closure)
    return {k: factor * v for k, v in raw.items()}


# -- program (de)serialization --------------------------------------------


def _integer_rows(rows):
    return tuple(tuple(json_int(x) for x in r) for r in rows)


def load_program(doc):
    """Build a program from a plain dict as read from a program file:
    {"source": {"g": .., "L": [..]}, "steps": [{"kind": ..}, ..],
    "target": {..}}.  Every number in it must be an integer."""
    def obj(d):
        return CobObject(g=json_int(d["g"]), L=_integer_rows(d["L"]))

    step_docs = doc.get("steps", ())
    if not isinstance(step_docs, (list, tuple)):
        raise ProgramError("'steps' must be a list of step objects")
    steps = []
    for i, s in enumerate(step_docs):
        if not isinstance(s, dict):
            raise ProgramError("step %d: must be an object" % i)
        kind = s.get("kind")
        try:
            if kind == "cylinder":
                steps.append(MappingCylinder(_integer_rows(s["matrix"])))
            elif kind == "index1":
                pos = s.get("position")
                steps.append(Index1(None if pos is None else json_int(pos)))
            elif kind == "index2":
                alpha, beta = s["gamma"]
                steps.append(
                    Index2(json_int(s["handle"]), json_int(alpha),
                           json_int(beta))
                )
            else:
                raise ValueError("unknown kind %r" % (kind,))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProgramError("step %d: %s" % (i, exc)) from exc
    try:
        return CobordismProgram(
            source=obj(doc["source"]),
            steps=tuple(steps),
            target=obj(doc["target"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProgramError("bad program document: %s" % (exc,)) from exc


def program_work(doc, p):
    """(steps, top genus, frames, maps, oracle, pairs): the items of the
    walk, of a route and of the oracle at order p, from the step kinds of
    ``doc`` alone; None where :func:`load_program` refuses ``doc``.  A
    route builds an entry per source label per index step and frame."""
    try:
        g, steps = json_int(doc["source"]["g"]), doc.get("steps", [])
    except (KeyError, TypeError):
        return None
    if g < 0 or not isinstance(steps, list):
        return None
    source = top = g
    labels = pairs = rows = 0
    for s in steps:
        kind = s.get("kind") if isinstance(s, dict) else None
        if kind in ("index1", "index2"):
            labels += p_prime_power(p, g) + p_prime_power(p, source)
        if kind == "index2":
            pairs += oracle_pairs(p, g)
            rows += oracle_work(p, g)["tensor_pairs"]
        g += (kind == "index1") - (kind == "index2")
        top = max(top, g)
    return (len(steps), top, {"steps": (len(steps) + 2) * (top ** 3 + 32)},
            {"entries": (labels + p_prime_power(p, g)) * field_degree(p)},
            {"tensor_pairs": rows}, pairs)


def _column_bits(rows):
    """Bits by which a row vector times these rows grows; 0 if malformed."""
    try:
        return (max(sum(abs(json_int(v)) for v in column)
                    for column in zip(*rows)) - 1).bit_length()
    except (TypeError, ValueError):
        return 0


def entry_work(doc, top):
    """The items of the carried entries :func:`validate` multiplies, for a
    ``doc`` whose :func:`program_work` reaches genus ``top``."""
    bits, words = _column_bits(doc["source"].get("L")), 0
    for s in doc.get("steps", []):
        grow = _column_bits(s.get("matrix")) if isinstance(
            s, dict) and s.get("kind") == "cylinder" else 0
        bits += grow
        words += (bits // 64 + 1) * (grow // 64 + 1)
    return {"words": top ** 3 * (words + 64 * top * (bits // 64 + 1) ** 2)}
