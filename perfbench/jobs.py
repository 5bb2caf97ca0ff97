"""The four job workloads: input generation, the job itself, and its checks.

Each workload turns a seed into an endless stream of jobs.  The stream is
made of rounds; a round holds every cell of the workload (an order p and
a job shape) once, in a seeded random order, with seeded random
parameters.  Rounds keep the mix of job sizes the same from seed to seed,
so medians and tail percentiles compare across runs.

``run`` is the timed job.  ``check`` runs off the clock and returns the
reasons the output is wrong (empty when it is right).  ``digest`` gives a
canonical text of an output, used to compare traced and untraced runs.

The known defects of the engine (``KNOWN_DEFECTS``) are kept out of the
timed jobs, so that no timed job is expected to fail: the inputs each one
hits are drawn again, or, where no rule picks them out, the job shape is
left out of the stream.  ``defect_cases`` gives fixed inputs that hit
each defect; a run runs them off the clock and names what they give.
"""

import json
import os
import random
import subprocess
import sys
import traceback
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path

from abtqft.cobordism import (
    CobObject,
    CobordismProgram,
    Index1,
    Index2,
    MappingCylinder,
    F_program,
    canonical_context,
    compose_maps,
    load_program,
)
from abtqft.cyclotomic import field_order, from_rational, make_root, q_power
from abtqft.heisenberg import (
    closed_context,
    commutant_dim,
    finite_inverse,
    finite_mul,
    monomial_of,
    to_finite,
)
from abtqft.homology import (
    cylinder_correspondence,
    index1_correspondence,
    index2_correspondence,
    intersection,
    lagrangian_compose,
    standard_dual,
    standard_lagrangian,
)
from abtqft.mcg import (
    MappingClass,
    cocycle_c,
    projective_defect,
    t_dual,
    theta,
    twist_generators,
    weil_H,
    weil_intertwiner,
)
from abtqft.surgery import (
    blow_up,
    continued_fraction,
    matrix_element,
    refined_invariant,
    refinement_classes,
    signature,
    slide,
    z_invariant,
    z_lens,
)

HERE = Path(__file__).resolve().parent

KNOWN_DEFECTS = {
    "ac6_class_sum_mismatch":
        "at p = 4 (mod 8) the refinement classes do not sum to the "
        "invariant (the AC6 counterexamples, ROADMAP item 4)",
    "oracle_designated_class_assert":
        "induced_map_oracle fails its designated-class assert at even p "
        "when the surgery class coefficient beta in the carried frame "
        "has the 2-adic valuation of p' (beta = 2 mod 4 at p = 4, 12; "
        "beta = 4 mod 8 at p = 8) (ROADMAP item 4)",
    "cli_toplevel_array_traceback":
        "a top-level JSON array ends the CLI with a traceback and exit 1 "
        "instead of exit 2 (ROADMAP item 5)",
    "cli_bool_accepted":
        "the CLI accepts JSON booleans where integers are expected and "
        "exits 0 instead of 2 (ROADMAP item 5)",
}


class Job:
    __slots__ = ("kind", "p", "args", "label", "round_end")

    def __init__(self, kind, p, label, **args):
        self.kind = kind
        self.p = p
        self.args = args
        self.label = label
        self.round_end = False


def p_prime(p):
    return p if p % 2 else p // 2


def cap_size(base, n, cap):
    """Largest m <= n with base**m <= cap."""
    while n > 0 and base ** n > cap:
        n -= 1
    return n


def random_symmetric(rng, n, lo=-3, hi=3):
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            B[i][j] = B[j][i] = rng.randint(lo, hi)
    return tuple(tuple(row) for row in B)


def random_gamma(rng, bound=3):
    """Uniform over primitive (alpha, beta) with |alpha|, |beta| <= bound."""
    while True:
        a = rng.randint(-bound, bound)
        b = rng.randint(-bound, bound)
        if gcd(a, b) == 1:
            return a, b


def random_word(rng, names, lo=1, hi=6):
    return [rng.choice(names) for _ in range(rng.randint(lo, hi))]


@lru_cache(maxsize=None)
def generators(g):
    """The twist generators of genus g, built once.  Each build validates
    every generator, which would otherwise be most of the cost of making
    inputs."""
    return twist_generators(g)


def word_class(g, word):
    lib = generators(g)
    f = MappingClass.identity(g)
    for name in word:
        f = f * lib[name]
    return f


def cyc_text(x):
    return "%d:%s" % (x.order, ",".join(str(c) for c in x.coeffs))


def nonzero(m):
    return {k: v for k, v in m.items() if v != 0}


def map_text(m):
    return ";".join("%s>%s=%s" % (t, s, cyc_text(v))
                    for (t, s), v in sorted(nonzero(m).items()))


def innermost_function(exc):
    """Name of the innermost abtqft function in an exception's traceback."""
    name = None
    for frame in traceback.extract_tb(exc.__traceback__):
        if "%sabtqft%s" % (os.sep, os.sep) in frame.filename:
            name = frame.name
    return name


def two_adic(n):
    """2-adic valuation of a nonzero integer."""
    return (n & -n).bit_length() - 1


def hits_oracle_assert(p, prog):
    """Whether the oracle meets ``oracle_designated_class_assert`` on a
    program: at even p, an index-2 step whose class has a coefficient
    beta in the carried frame with the 2-adic valuation of p'.  The frame
    is carried the way ``F_program`` carries it."""
    if p % 2:
        return False
    ctx = canonical_context(p, prog.source)
    L, Ldual = ctx.L, ctx.Ldual
    for step in prog.steps:
        if isinstance(step, MappingCylinder):
            corr = cylinder_correspondence(step.matrix, L, Ldual)
        elif isinstance(step, Index1):
            corr = index1_correspondence(L, Ldual, step.position)
        else:
            g, k = len(L), step.handle
            gamma = tuple(step.alpha * (i == k) + step.beta * (i == g + k)
                          for i in range(2 * g))
            betas = [intersection(u, gamma) for u in L]
            alphas = [intersection(gamma, w) for w in Ldual]
            support = [i for i in range(g) if alphas[i] or betas[i]]
            beta = betas[support[0]] if len(support) == 1 else 0
            return beta != 0 and two_adic(beta) == two_adic(p_prime(p))
        L, Ldual = corr.target_L, corr.target_Ldual
    return False


def split(prog):
    """The one-step programs P1, P2 of a two-step program P2 P1."""
    mid = push_target(prog.source, prog.steps[:1])
    return (CobordismProgram(prog.source, prog.steps[:1], mid),
            CobordismProgram(mid, prog.steps[1:], prog.target))


def classify_exception(p, exc):
    if (isinstance(exc, AssertionError) and p % 2 == 0
            and innermost_function(exc) == "induced_map_oracle"):
        return "oracle_designated_class_assert"
    return "raised %s in %s: %s" % (type(exc).__name__,
                                    innermost_function(exc), exc)


class Workload:
    """Base: a seeded stream of jobs in rounds of shuffled cells."""

    name = None
    orders = ()
    spawns = False    # a job starts a process

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)

    def cells(self):
        raise NotImplementedError

    def make(self, cell):
        raise NotImplementedError

    def stream(self):
        while True:
            cells = self.cells()
            self.rng.shuffle(cells)
            batch = [self.make(cell) for cell in cells]
            batch[-1].round_end = True
            yield from batch

    def warm(self):
        """Fill the cyclotomic field tables for the workload's orders."""
        for p in self.orders:
            q_power(p, 1) * q_power(p, 1)

    def failure(self, job, out):
        """Error reason for an output that is itself a failure."""
        return None

    def defect_cases(self):
        """[(known defect, job that hits it)]: fixed inputs, run off the
        clock."""
        return []


# -- closed-invariants --------------------------------------------------

COLOR_CAP = 10 ** 5   # colorings per job
MOVE_CAP = 5000       # colorings of a moved presentation the checks compute


def plan_move(rng, pp, n, free):
    """A Kirby move on the components ``free`` of an n-component
    presentation: a +-1 blow-up when the blown-up sum stays under
    MOVE_CAP, then a slide between two free components when there are
    two.  Returns (blow-up sign or None, (i, j, sign) or None)."""
    free = list(free)
    sign = None
    if pp ** (len(free) + 1) <= MOVE_CAP:
        sign = rng.choice((1, -1))
        free.append(n)
    move = None
    if len(free) >= 2:
        i, j = rng.sample(free, 2)
        move = (i, j, rng.choice((1, -1)))
    return sign, move


def rank_mod(B, p):
    """Rank of an integer matrix over F_p, p prime."""
    rows = [[v % p for v in row] for row in B]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def support_rank(F, p):
    """Rank mod the least prime factor of p of the upper-right g x g
    block of a 2g x 2g matrix."""
    g = len(F) // 2
    ell = next(d for d in range(2, p + 1) if p % d == 0)
    return rank_mod([row[g:] for row in F[:g]], ell)


def apply_move(B, sign, move):
    if sign is not None:
        B = blow_up(B, sign)
    if move is not None:
        B = slide(B, *move)
    return B


# the presentations of the AC6 acceptance test whose refinement classes
# at p = 12 miss the invariant
AC6_CASES = (((1,),), ((2, 1), (1, 2)))


class ClosedInvariants(Workload):
    """At p = 8 an invariant job also computes the refinement block that
    the ``invariant`` command emits.  At p = 12 the refinement classes of
    most presentations miss the invariant (``ac6_class_sum_mismatch``), so
    there the jobs leave the block out and the defect cases carry it."""

    name = "closed-invariants"
    orders = (5, 7, 8, 12, 13)

    def cells(self):
        cells = [("invariant", p, n) for p in self.orders for n in range(7)]
        cells += [("lens", p, n) for p in self.orders for n in (1, 3, 5)]
        cells += [("element", p, 3) for p in self.orders]
        return cells

    def make(self, cell):
        kind, p, n = cell
        rng = self.rng
        pp = p_prime(p)
        if kind == "invariant":
            n = cap_size(pp, n, COLOR_CAP)
            B = random_symmetric(rng, n)
            sign, move = plan_move(rng, pp, n, range(n))
            return Job(kind, p, "invariant p=%d B=%s" % (p, B), B=B,
                       sign=sign, move=move, refine=p % 8 == 0)
        if kind == "lens":
            # the chain length n sets the cost, so it is part of the cell
            n = cap_size(pp, n, COLOR_CAP)
            while True:
                beta = rng.randint(2, 300)
                alpha = rng.randrange(1, beta)
                if (gcd(alpha, beta) == 1
                        and len(continued_fraction(beta, alpha)) == n):
                    break
            inverse = pow(alpha, -1, beta)
            return Job(kind, p, "lens p=%d L(%d,%d)" % (p, beta, alpha),
                       beta=beta, alpha=alpha, inverse=inverse)
        # one boundary strand at a random color, the others surgered
        B = random_symmetric(rng, n)
        fixed = {rng.randrange(n): rng.randrange(pp)}
        free = [i for i in range(n) if i not in fixed]
        sign, move = plan_move(rng, pp, n, free)
        return Job(kind, p, "element p=%d B=%s fixed=%s" % (p, B, fixed),
                   B=B, fixed=fixed, sign=sign, move=move)

    def run(self, job):
        p, a = job.p, job.args
        if job.kind == "invariant":
            B = a["B"]
            value = z_invariant(p, B)
            parts = None
            if a["refine"]:
                parts = [(cls, refined_invariant(p, B, cls))
                         for cls in refinement_classes(p, B)]
            return signature(B), value, parts
        if job.kind == "lens":
            return z_lens(p, a["beta"], a["alpha"])
        return matrix_element(p, a["B"], a["fixed"], len(a["fixed"]))

    def digest(self, job, out):
        if job.kind == "invariant":
            sig, value, parts = out
            text = "%d|%s" % (sig, cyc_text(value))
            if parts is not None:
                text += "|" + ";".join("%s=%s" % (c, cyc_text(v))
                                       for c, v in parts)
            return text
        return cyc_text(out)

    def check(self, job, out):
        p, a = job.p, job.args
        reasons = []
        if job.kind == "invariant":
            _, value, parts = out
            if parts is not None:
                total = None
                for _, v in parts:
                    total = v if total is None else total + v
                agrees = value == 0 if total is None else total == value
                if not agrees:
                    reasons.append("ac6_class_sum_mismatch" if p % 8 == 4
                                   else "refinement class sum != total")
            # even p has no cheap check in place of the moved sum
            if p_prime(p) ** len(a["B"]) <= MOVE_CAP or p % 2 == 0:
                if z_invariant(p, apply_move(a["B"], a["sign"],
                                             a["move"])) != value:
                    reasons.append("Kirby move changed the invariant")
            elif p % 2:
                # a second sum this size would cost as much as the job;
                # check the modulus |Z|^2 = p^(k-1), k the nullity mod p
                k = len(a["B"]) - rank_mod(a["B"], p)
                if value * value.conjugate() != from_rational(
                        field_order(p), Fraction(p ** k, p)):
                    reasons.append("|Z|^2 != p^(nullity - 1)")
        elif job.kind == "lens":
            if z_lens(p, a["beta"], a["inverse"]) != out:
                reasons.append("L(beta, alpha) != L(beta, alpha^-1)")
        else:
            moved = apply_move(a["B"], a["sign"], a["move"])
            if matrix_element(p, moved, a["fixed"], len(a["fixed"])) != out:
                reasons.append("Kirby move on free components changed "
                               "the matrix element")
        return reasons

    def defect_cases(self):
        return [("ac6_class_sum_mismatch",
                 Job("invariant", 12, "invariant p=12 B=%s" % (B,), B=B,
                     sign=None, move=None, refine=True))
                for B in AC6_CASES]


# -- tqft-oracle --------------------------------------------------------

PAIR_CAP = 1024       # tensor pairs p'^(2 g_- + g_+) per oracle call
COMMUTANT_CAP = 625   # unknowns p'^(2g) per commutant system


def source_object(g):
    L = tuple(tuple(1 if j == i else 0 for j in range(2 * g))
              for i in range(g))
    return CobObject(g, L)


def push_target(source, steps):
    """The object a program lands on, pushed through the ambient
    correspondences of its steps."""
    g, L = source.g, source.L
    for step in steps:
        if isinstance(step, MappingCylinder):
            corr = cylinder_correspondence(step.matrix, standard_lagrangian(g),
                                           standard_dual(g))
        elif isinstance(step, Index1):
            corr = index1_correspondence(standard_lagrangian(g),
                                         standard_dual(g), step.position)
        else:
            corr = index2_correspondence(g, step.handle, step.alpha,
                                         step.beta)
        L = lagrangian_compose(corr, L)
        g = corr.g_plus
    return CobObject(g, L)


def per_handle_names(g):
    """Twists that keep the carried frame split by handle."""
    return ["ta", "ta'", "tb", "tb'"] if g == 1 else [
        "ta1", "ta1'", "tb1", "tb1'", "ta2", "ta2'", "tb2", "tb2'"]


class TqftOracle(Workload):
    name = "tqft-oracle"
    orders = (3, 4, 5, 7, 8, 12)
    shapes = ("index2", "cylinder", "composite-index1", "composite-cylinder",
              "commutant")

    def cells(self):
        cells = []
        for p in self.orders:
            for shape in self.shapes:
                lo = 0 if shape == "composite-index1" else 1
                cells += [(shape, p, lo), (shape, p, lo + 1)]
        # the largest eliminations checked against the closed route (243
        # pairs at p = 3) get a second cell each; with them p90 falls
        # inside that group instead of at its edge
        cells += [(shape, 3, 1 if shape == "composite-index1" else 2)
                  for shape in self.shapes[:4] if shape != "cylinder"]
        return cells

    def make(self, cell):
        shape, p, g = cell
        rng = self.rng
        pp = p_prime(p)
        if shape == "commutant":
            if pp ** (2 * g) > COMMUTANT_CAP:
                g = 1
            return Job(shape, p, "commutant p=%d g=%d" % (p, g), g=g)
        if shape == "cylinder":
            names = sorted(generators(g))
            steps = tuple(
                MappingCylinder(word_class(g, random_word(rng, names, 1, 3))
                                .matrix)
                for _ in range(2))
            source = source_object(g)
            prog = CobordismProgram(source, steps,
                                    push_target(source, steps))
            return Job(shape, p, "%s p=%d g=%d steps=%s" % (
                shape, p, g, steps), prog=prog)
        # the index-2 step acts on genus h, with p'^(3h - 1) pairs
        h = g + 1 if shape == "composite-index1" else g
        if pp ** (3 * h - 1) > PAIR_CAP:
            g, h = g - 1, h - 1
        source = source_object(g)
        while True:
            alpha, beta = random_gamma(rng)
            last = Index2(rng.randrange(h), alpha, beta)
            if shape == "index2":
                steps = (last,)
            elif shape == "composite-index1":
                steps = (Index1(rng.choice([None] + list(range(g + 1)))),
                         last)
            else:
                word = random_word(rng, per_handle_names(g), 1, 3)
                steps = (MappingCylinder(word_class(g, word).matrix), last)
            prog = CobordismProgram(source, steps, push_target(source, steps))
            # the check runs the oracle on both factors too
            if not any(hits_oracle_assert(p, q) for q in
                       (prog,) + (split(prog) if len(steps) == 2 else ())):
                break
        return Job(shape, p, "%s p=%d g=%d steps=%s" % (shape, p, g, steps),
                   prog=prog)

    def run(self, job):
        p = job.p
        if job.kind == "commutant":
            g = job.args["g"]
            ctx = closed_context(p, g)
            basis = [monomial_of(ctx, to_finite(
                ctx, 0, tuple(1 if j == i else 0 for j in range(2 * g))))
                for i in range(2 * g)]
            return commutant_dim(basis, ctx.labels())
        prog = job.args["prog"]
        if p % 2:
            return (F_program(p, prog, "closed"),
                    F_program(p, prog, "oracle"))
        return None, F_program(p, prog, "oracle")

    def digest(self, job, out):
        if job.kind == "commutant":
            return str(out)
        closed, oracle = out
        return "%s|%s" % ("" if closed is None else map_text(closed),
                          map_text(oracle))

    def check(self, job, out):
        p = job.p
        if job.kind == "commutant":
            return [] if out == 1 else ["commutant dimension %d != 1" % out]
        closed, oracle = out
        if closed is not None:
            if nonzero(closed) != nonzero(oracle):
                return ["closed route != oracle"]
            return []
        prog = job.args["prog"]
        if len(prog.steps) == 2:
            first, second = split(prog)
            try:
                composed = compose_maps(F_program(p, second, "oracle"),
                                        F_program(p, first, "oracle"))
            except Exception as exc:  # a failing factor fails the check
                return [classify_exception(p, exc)]
            if nonzero(composed) != nonzero(oracle):
                return ["functoriality F(P2 P1) != F(P2) F(P1)"]
            return []
        return self._check_monomial(job, oracle)

    def defect_cases(self):
        def program(p, steps):
            source = source_object(1)
            prog = CobordismProgram(source, steps,
                                    push_target(source, steps))
            return Job("index2", p, "p=%d steps=%s" % (p, steps), prog=prog)

        # beta = 2 at p = 4, 12; beta = 4 in the frame the cylinder carries
        return [("oracle_designated_class_assert", job) for job in (
            program(4, (Index2(0, 1, 2),)),
            program(12, (Index2(0, 1, 2),)),
            program(8, (MappingCylinder(((2, -1), (-1, 1))),
                        Index2(0, 2, 1))))]

    @staticmethod
    def _check_monomial(job, m):
        """A single index-2 map at even order is a partial monomial map:
        each source label goes to at most one target label, with a root
        of unity as coefficient, and p'^g / gcd(beta, p') labels live."""
        p = job.p
        step = job.args["prog"].steps[0]
        g = job.args["prog"].source.g
        M = field_order(p)
        roots = {make_root(M, j) for j in range(M)}
        live = {}
        for (target, source), v in nonzero(m).items():
            if source in live or v not in roots:
                return ["even-order index-2 map is not monomial"]
            live[source] = target
        if len(live) != p_prime(p) ** g // gcd(step.beta, p_prime(p)):
            return ["even-order index-2 map has %d live labels" % len(live)]
        return []


# -- weil-cocycle -------------------------------------------------------

TERMS_CAP = 4 * 10 ** 5  # Schur averaging terms p'^(4g) per intertwiner
# cocycles per closed-form job: one takes well under a millisecond, too
# short to time steadily on a shared host, so a job takes a chain of them
CHAIN = 24
# classes per genus the chains are drawn from: building a class from its
# word takes about a millisecond at g = 2, more than the cocycle itself
POOL = 40


class WeilCocycle(Workload):
    """Weil intertwiners (Schur averaging over p'^(4g) terms) beside the
    O(g^2) closed forms of the cocycle.  A verified cocycle also forms the
    six intertwiners of the defect ratio and multiplies them as dense
    matrices, which takes seconds per job at g = 1, p = 11 and at g = 2,
    p >= 5; its grid stops at p = 9 on genus 1 and p = 3 on genus 2 so
    that a run holds a hundred jobs."""

    name = "weil-cocycle"
    orders = (3, 5, 7, 9, 11)
    # Half the jobs are closed-form cocycle chains, so the median measures
    # the cheap path.  An intertwiner at prime p has p^(g + r) entries, r
    # the rank mod p of the upper-right block of its matrix, and a dense
    # one costs several times a sparse one.  So each intertwiner cell fixes
    # r and draws words until it matches.  The g = 2, p = 5 cells are the
    # costliest jobs, a fifth of a round: one dense cell (r = 2, whose cost
    # varies twofold with the word) and seven with r = 1, in the middle of
    # which p90 falls.  So p90 measures the costly path.
    grids = {
        "cocycle": ((1, 3), (1, 5), (1, 7), (1, 9), (1, 11), (2, 3), (2, 5),
                    (2, 7)) * 2 + ((1, 3), (1, 5), (1, 7), (1, 9)),
        "cocycle-verify": ((1, 3), (1, 5), (1, 7), (1, 9), (2, 3)),
    }
    weil_cells = ((1, 3, 1), (1, 5, 0), (1, 7, 1), (1, 9, 0), (1, 11, 0),
                  (2, 3, 1), (2, 7, 1), (2, 5, 2)) + ((2, 5, 1),) * 7

    def __init__(self, seed):
        super().__init__(seed)
        self.pools = {}

    def cells(self):
        return [(kind, g, p, None) for kind, grid in self.grids.items()
                for g, p in grid] + [("weil",) + c for c in self.weil_cells]

    def pool(self, g):
        if g not in self.pools:
            names = sorted(generators(g))
            self.pools[g] = [word_class(g, random_word(self.rng, names))
                             for _ in range(POOL)]
        return self.pools[g]

    def make(self, cell):
        kind, g, p, rank = cell
        if kind == "cocycle":
            # a chain f_0, ..., f_CHAIN asks for c(f_i, f_(i+1))
            picks = [self.rng.randrange(POOL) for _ in range(CHAIN + 1)]
            return Job(kind, p, "cocycle p=%d g=%d pool classes %s" % (
                p, g, picks), g=g, classes=[self.pool(g)[i] for i in picks])
        if kind == "weil" and p_prime(p) ** (4 * g) > TERMS_CAP:
            g, rank = 1, min(rank, 1)
        names = sorted(generators(g))
        count = 1 if kind == "weil" else 2
        while True:
            words = [random_word(self.rng, names) for _ in range(count)]
            classes = [word_class(g, w) for w in words]
            if rank is None or support_rank(classes[0].matrix, p) == rank:
                break
        return Job(kind, p, "%s p=%d g=%d words=%s" % (kind, p, g, words),
                   g=g, classes=classes)

    def run(self, job):
        p, g = job.p, job.args["g"]
        classes = job.args["classes"]
        if job.kind == "cocycle":
            return [cocycle_c(f, h, p) for f, h in zip(classes, classes[1:])]
        ctx = closed_context(p, g)
        if job.kind == "weil":
            return weil_intertwiner(classes[0].matrix, ctx)
        f, h = classes
        c = cocycle_c(f, h, p)
        lam_H = projective_defect(weil_H(f, ctx), weil_H(h, ctx),
                                  weil_H(f * h, ctx))
        lam_S = projective_defect(weil_intertwiner(f.matrix, ctx),
                                  weil_intertwiner(h.matrix, ctx),
                                  weil_intertwiner((f * h).matrix, ctx))
        return c, lam_H, lam_S

    def digest(self, job, out):
        if job.kind == "cocycle":
            return ",".join(map(str, out))
        if job.kind == "weil":
            return map_text(out)
        c, lam_H, lam_S = out
        return "%d|%s|%s" % (c, cyc_text(lam_H), cyc_text(lam_S))

    def check(self, job, out):
        p = job.p
        if job.kind == "cocycle":
            # S_H is associative up to scalars, so c is a 2-cocycle; each
            # consecutive triple f, h, k gives c(f, h) and c(h, k)
            classes = job.args["classes"]
            for i in range(len(out) - 1):
                f, h, k = classes[i:i + 3]
                if (out[i] + cocycle_c(f * h, k, p)
                        - out[i + 1] - cocycle_c(f, h * k, p)) % p:
                    return ["cocycle identity fails at link %d" % i]
            return []
        if job.kind == "cocycle-verify":
            c, lam_H, lam_S = out
            if lam_H != lam_S * q_power(p, c):
                return ["defect ratio lambda_H != lambda_S q^c"]
            return []
        ctx = closed_context(p, job.args["g"])
        F = job.args["classes"][0].matrix
        for i in range(2 * ctx.g):
            x = tuple(1 if j == i else 0 for j in range(2 * ctx.g))
            moved = tuple(sum(x[j] * F[j][k] for j in range(len(F)))
                          for k in range(len(F)))
            left = compose_maps(_rho(ctx, to_finite(ctx, 0, moved)), out)
            right = compose_maps(out, _rho(ctx, to_finite(ctx, 0, x)))
            if left != right:
                return ["intertwiner fails on generator %d" % i]
        return []


def _rho(ctx, h):
    return {(t, c): q_power(ctx.p, e)
            for c, (t, e) in monomial_of(ctx, h).as_dict().items()}


# -- cli-jobs -----------------------------------------------------------

CLI_ORDERS = (3, 4, 5, 7, 8, 12)
CLI_VALID = ("invariant", "invariant", "invariant-fixed", "refine", "refine",
             "lens", "lens", "lens", "tqft-index2", "tqft-index2",
             "tqft-cylinder", "heis-mul", "heis-inverse", "heis-matrix",
             "heis-commutant", "mcg-theta", "mcg-cocycle", "mcg-weil")
# booleans as integers and top-level arrays hit known defects; they are
# the defect cases of the workload
CLI_MALFORMED = ("bad-json", "wrong-shape")

WRONG_SHAPES = (
    ("invariant", {"B": [[1, 2]]}),
    ("invariant", {"A": [[1]]}),
    ("refine", {"B": [[1, 2], [0, 1]]}),
    ("heis", {"op": "mul", "g": 1, "x": [0, [0, 0], [0]],
              "y": [0, [1], [1]]}),
    ("heis", {"op": "pow", "g": 1}),
    ("mcg", {"op": "theta", "g": 1, "f": {"word": ["tz"]}}),
    ("mcg", {"op": "theta", "g": 1}),
    ("tqft", {"source": {"g": 1}, "steps": [], "target": {"g": 0, "L": []}}),
    ("tqft", {"source": {"g": 1, "L": [[1, 0]]}, "steps": [{"kind": "x"}],
              "target": {"g": 1, "L": [[1, 0]]}}),
)
BOOL_DOCS = (
    ("invariant", {"B": [[True]]}),
    ("refine", {"B": [[True, False], [False, True]]}),
    ("heis", {"op": "mul", "g": True, "x": [0, [1], [0]],
              "y": [0, [0], [1]]}),
    ("mcg", {"op": "theta", "g": True, "f": {"word": ["ta"]}}),
)
ARRAY_DOCS = (("invariant", []), ("refine", [[1]]), ("tqft", []),
              ("heis", [1, 2]), ("mcg", []))


def cli_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def triple(rng, pp, g):
    return [rng.randrange(3 * pp), [rng.randrange(pp) for _ in range(g)],
            [rng.randrange(pp) for _ in range(g)]]


def program_doc(prog):
    def obj(o):
        return {"g": o.g, "L": [list(r) for r in o.L]}

    steps = []
    for s in prog.steps:
        if isinstance(s, MappingCylinder):
            steps.append({"kind": "cylinder",
                          "matrix": [list(r) for r in s.matrix]})
        else:
            steps.append({"kind": "index2", "handle": s.handle,
                          "gamma": [s.alpha, s.beta]})
    return {"source": obj(prog.source), "steps": steps,
            "target": obj(prog.target)}


def malformed_job(kind, command, doc, p):
    """A document the CLI must refuse with exit code 2."""
    return Job(kind, p, "%s %s %s" % (kind, command, doc),
               argv=[command, "--p", str(p), "-"], doc=doc, ref=None,
               expect=2)


class CliJobs(Workload):
    """One ``python -m abtqft.cli`` process per job."""

    name = "cli-jobs"
    orders = CLI_ORDERS
    spawns = True

    def __init__(self, seed, src):
        super().__init__(seed)
        self.env = cli_env(src)

    def cells(self):
        return list(CLI_VALID + CLI_MALFORMED)

    def make(self, kind):
        rng = self.rng
        p = rng.choice(CLI_ORDERS)
        odd = rng.choice([q for q in CLI_ORDERS if q % 2])
        doc, argv, ref = None, None, None
        if kind in CLI_MALFORMED:
            if kind == "bad-json":
                command = rng.choice(("invariant", "tqft", "heis", "mcg"))
                text = json.dumps({"B": [list(r) for r in random_symmetric(
                    rng, 2)]} if command == "invariant" else
                    {"op": "theta", "g": 1, "f": {"word": ["ta"]}})
                doc = text[:rng.randrange(len(text))]
            else:
                command, obj = rng.choice(WRONG_SHAPES)
                doc = json.dumps(obj)
            if command == "refine":
                p = rng.choice((4, 8, 12))
            return malformed_job(kind, command, doc, p)
        pp = p_prime(p)
        if kind in ("invariant", "invariant-fixed", "refine"):
            if kind == "refine":
                p = rng.choice((4, 8, 12))
                pp = p_prime(p)
            n = rng.randint(1 if kind != "invariant" else 0, 3)
            B = random_symmetric(rng, n)
            obj = {"B": [list(r) for r in B]}
            if kind == "invariant-fixed":
                fixed = {i: rng.randrange(pp)
                         for i in rng.sample(range(n), rng.randint(1, n))}
                obj["fixed_colors"] = {str(i): c for i, c in fixed.items()}
                ref = ("fixed", B, fixed)
            else:
                ref = (kind, B)
            argv = [kind.split("-")[0], "--p", str(p), "-"]
            doc = json.dumps(obj)
        elif kind == "lens":
            while True:
                beta = rng.randint(1, 30)
                alpha = 0 if beta == 1 else rng.randrange(1, beta)
                if gcd(alpha, beta) == 1 and pp ** len(
                        continued_fraction(beta, alpha)) <= 10 ** 3:
                    break
            argv = ["lens", str(beta), str(alpha), "--p", str(p)]
            ref = ("lens", beta, alpha)
        elif kind.startswith("tqft"):
            src = source_object(1)
            while True:
                if kind == "tqft-index2":
                    alpha, beta = random_gamma(rng)
                    steps = (Index2(0, alpha, beta),)
                else:
                    names = sorted(generators(1))
                    steps = (MappingCylinder(word_class(
                        1, random_word(rng, names, 1, 3)).matrix),)
                prog = CobordismProgram(src, steps, push_target(src, steps))
                if not hits_oracle_assert(p, prog):
                    break
            doc = json.dumps(program_doc(prog))
            argv = ["tqft", "--p", str(p), "-"]
            verify = p % 2 == 1 and rng.random() < 0.5
            if verify:
                argv.append("--verify")
            ref = ("tqft", verify)
        elif kind.startswith("heis"):
            op = kind.split("-")[1]
            g = rng.choice((1, 2)) if op in ("mul", "inverse") else 1
            obj = {"op": op, "g": g}
            if op == "mul":
                obj["x"], obj["y"] = triple(rng, pp, g), triple(rng, pp, g)
            elif op == "inverse":
                obj["x"] = triple(rng, pp, g)
            elif op == "matrix":
                obj["element"] = triple(rng, pp, g)
            doc = json.dumps(obj)
            argv = ["heis", "--p", str(p), "-"]
            ref = ("heis", obj)
        else:
            op = kind.split("-")[1]
            g = rng.choice((1, 2)) if op == "theta" else 1
            if op != "theta":
                p = odd
            names = sorted(generators(g))
            obj = {"op": op, "g": g,
                   "f": {"word": random_word(rng, names, 1, 4)}}
            if op == "cocycle":
                obj["h"] = {"word": random_word(rng, names, 1, 4)}
            doc = json.dumps(obj)
            argv = ["mcg", "--p", str(p), "-"]
            verify = op == "cocycle" and rng.random() < 0.5
            if verify:
                argv.append("--verify")
            ref = ("mcg", obj, verify)
        return Job(kind, p, " ".join(argv) + ("" if doc is None else
                                              " <<< " + doc),
                   argv=argv, doc=doc, ref=ref, expect=0)

    def defect_cases(self):
        def case(defect, kind, command, obj):
            p = 8 if command == "refine" else 5
            return defect, malformed_job(kind, command, json.dumps(obj), p)

        return ([case("cli_bool_accepted", "bool", *doc)
                 for doc in BOOL_DOCS]
                + [case("cli_toplevel_array_traceback", "top-array", *doc)
                   for doc in ARRAY_DOCS])

    def command(self, job, spans_path=None):
        """The CLI module itself; with a spans file, the traced child
        script, which writes its spans there."""
        if spans_path is None:
            return [sys.executable, "-m", "abtqft.cli"] + job.args["argv"]
        return [sys.executable, str(HERE / "cli_child.py"),
                str(spans_path)] + job.args["argv"]

    def run(self, job, spans_path=None):
        doc = job.args["doc"]
        proc = subprocess.run(
            self.command(job, spans_path),
            input=(doc or "").encode(), capture_output=True, env=self.env,
            timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def digest(self, job, out):
        code, stdout, _ = out
        return "%d|%s" % (code, stdout.decode(errors="replace"))

    def failure(self, job, out):
        """Error reason when the exit code is not the documented one."""
        code, _, stderr = out
        expect = job.args["expect"]
        if code == expect:
            return None
        err = stderr.decode(errors="replace")
        if job.kind == "top-array" and code == 1 and "Traceback" in err:
            return "cli_toplevel_array_traceback"
        if job.kind == "bool" and code == 0:
            return "cli_bool_accepted"
        if (code == 1 and job.p % 2 == 0 and "AssertionError" in err
                and "induced_map_oracle" in err):
            return "oracle_designated_class_assert"
        return "exit %d, documented %d: %s" % (
            code, expect, err.strip().splitlines()[-1:] or "")

    def check(self, job, out):
        code, stdout, _ = out
        ref = job.args["ref"]
        if ref is None or code != 0:
            return []
        report = exact_part(json.loads(stdout))
        want = self.reference(job, ref)
        bad = sorted(k for k in want if report.get(k) != want[k])
        if bad:
            return ["CLI output differs from the library in %s" % bad]
        return []

    def reference(self, job, ref):
        """The exact fields of the job's report, computed in-process."""
        p = job.p
        kind = ref[0]
        if kind in ("invariant", "refine"):
            B = ref[1]
            value = z_invariant(p, B)
            want = {"value": scalar_exact(value)}
            if p % 4 == 0:
                want["refinement"] = refinement_exact(p, B, value)
            return want
        if kind == "fixed":
            _, B, fixed = ref
            return {"value": scalar_exact(
                matrix_element(p, B, fixed, len(fixed)))}
        if kind == "lens":
            return {"value": scalar_exact(z_lens(p, ref[1], ref[2]))}
        if kind == "tqft":
            m = F_program(p, load_program(json.loads(job.args["doc"])))
            want = {"map": map_exact(m)}
            if ref[1]:
                want["verified"] = "closed form equals tensor oracle"
            return want
        if kind == "heis":
            obj = ref[1]
            ctx = closed_context(p, obj["g"])
            op = obj["op"]

            def fin(key):
                k, a, b = obj[key]
                return (k % p, tuple(x % ctx.p_prime for x in a),
                        tuple(x % ctx.p_prime for x in b))

            if op in ("mul", "inverse"):
                k, a, b = (finite_mul(ctx, fin("x"), fin("y")) if op == "mul"
                           else finite_inverse(ctx, fin("x")))
                return {"result": [k, list(a), list(b)]}
            if op == "matrix":
                return {"map": map_exact(_rho(ctx, fin("element")))}
            basis = [monomial_of(ctx, to_finite(ctx, 0, e))
                     for e in ((1, 0), (0, 1))]
            return {"dimension": commutant_dim(basis, ctx.labels())}
        obj, verify = ref[1], ref[2]
        g = obj["g"]
        f = word_class(g, obj["f"]["word"])
        if obj["op"] == "theta":
            want = {"theta": list(theta(f)),
                    "matrix": [list(r) for r in f.matrix]}
            if p % 2:
                want["t"] = list(t_dual(theta(f), p))
            return want
        if obj["op"] == "cocycle":
            h = word_class(g, obj["h"]["word"])
            want = {"c": cocycle_c(f, h, p)}
            if verify:
                want["verified"] = "defect ratio matches q^c"
            return want
        return {"intertwiner": map_exact(
            weil_intertwiner(f.matrix, closed_context(p, g)))}


def exact_part(doc):
    """A report without its approximate display blocks."""
    if isinstance(doc, dict):
        return {k: exact_part(v) for k, v in doc.items() if k != "approx"}
    if isinstance(doc, list):
        return [exact_part(v) for v in doc]
    return doc


def scalar_exact(x):
    return {"order": x.order, "coeffs": [str(c) for c in x.coeffs]}


def map_exact(m):
    return {"entries": [{"target": list(t), "source": list(s),
                         "value": scalar_exact(v)}
                        for (t, s), v in sorted(nonzero(m).items())]}


def refinement_exact(p, B, total):
    parts = [(c, refined_invariant(p, B, c))
             for c in refinement_classes(p, B)]
    running = None
    for _, v in parts:
        running = v if running is None else running + v
    return {"kind": "spin" if p % 8 == 4 else "cohomology",
            "classes": [{"class": list(c), "value": scalar_exact(v)}
                        for c, v in parts],
            "sum_matches_total": (total == 0 if running is None
                                  else running == total)}


WORKLOADS = {cls.name: cls for cls in (ClosedInvariants, TqftOracle,
                                       WeilCocycle, CliJobs)}
