"""Batch front end: parse input documents, compute, print one report.

Every command reads at most one JSON document (a file path or ``-`` for
standard input), runs one computation, and prints a single JSON report
to standard output.  Exact scalars are printed as coefficient vectors
over the cyclotomic power basis together with an ``approx`` block: the
real and imaginary parts correctly rounded, half-up, to ``--digits``
significant digits (at least 1, at most 12), an exactly zero part as
``0.0``, flagged as approximate.  The block is display only and needs
no third-party module.  Reports are self-describing and round-trip
through the parsers in this module.

Before each expensive step a command adds the step's predicted run
time, its items of each kind of work priced by ``NS_PER_ITEM``, to the
job's total in integer microseconds (``_Work.add``); the step that
takes the total over ``BUDGET_US`` is refused with exit 6, naming the
step, its parameters, the predicted work and the budget.  This module
parses, prices and prints; the rules it applies live in the engine.

The command line is ``abtqft COMMAND [ARGUMENTS]``.  Options and
positionals mix in any order; an option takes its value as the next
argument or after ``=`` (``--p 5``, ``--p=5``); a long option may be
shortened to any prefix that names one option (``--dig 3``,
``--norm``); a repeated option keeps its last value; a negative number
such as ``-3`` is a positional; ``--`` makes every later argument a
positional.  ``-h`` or ``--help``, before or after the command, prints
the usage to standard output and exits 0.  A usage error prints the
usage and the offending argument to standard error and exits 2.

Exit codes are stable:

* 0 - success
* 2 - malformed input (bad JSON, a top-level value that is not an
  object, bad matrices, bad words, bad domain, a boolean or float where
  an integer is documented, bad arguments such as ``--digits`` below 1)
* 3 - unsupported order p for the requested computation
* 4 - program validation or frame errors in ``tqft``
* 5 - normalized map of a composite program without a closure matrix
* 6 - the job's predicted work exceeds the budget
"""

import io
import json
import os
import re
import sys
from itertools import islice
from math import gcd
from types import SimpleNamespace

# Each command imports the engine modules it runs inside its handler, so
# a process loads only those: invariant, refine and lens load surgery,
# heis the heisenberg chain, mcg the mcg chain and tqft cobordism.
from .cyclotomic import (
    CycNum,
    approx_parts,
    cyclotomic_polynomial,
    field_order,
    from_rational,
    p_prime,
    q_power,
)
from .value import json_int

MAX_DIGITS = 12

# Nanoseconds per item of each kind of work on the reference VM (2 vCPU,
# Python 3.11.7), the largest rate seen in fresh-process runs near the
# budget; phi is the degree of Q(zeta_M), M = lcm(8, p).
NS_PER_ITEM = {
    "colourings": 200,     # colouring x (n^2 + 16) of an even-order sum
    "pivots": 100,         # n^3 of a signature or a Gauss-sum diagonal form
    "pivot_bits": 1,       # n^4 x entry bits: a signature's minors grow
    "histogram": 100,      # n p^2 of an odd-order Gauss sum's histogram
    "field": 50,           # M^2 to set up the field, its roots and display
    "tensor_pairs": 12000,  # tensor pair x 2g relation rows x phi, a run
    "unknowns": 11000,     # commutant unknown x phi
    "terms": 900,          # Schur-averaging term
    "entries": 300,        # map entry built or multiplied x phi
    "printed": 2000,       # printed map or vector entry x (phi + 64)
    "frame": 450,          # g^3 of a genus-g frame or class check
    "steps": 2500,         # program step x (g^3 + 32): the walk's frames
    "words": 10,           # g^3 x words of a carried x a cylinder entry per
                           # step; g^4 x 64 x carried words^2 at the end
    "letters": 250,        # composed image letter, and one pass over it
}
BUDGET_US = 2 * 10 ** 6
# The most digits an integer of a ``tqft`` program may have, past the
# interpreter's default limit of 4,300: ``words`` charges one genus-1
# cylinder with entries of 33,774 digits over the budget, so every source
# and cylinder entry of an admitted program is read, while a longer
# integer, whose reading is quadratic in its digits, is refused unread.
_PROGRAM_DIGITS = 40000
_OVER = 2 ** 64  # more items of any kind than the budget admits


class CliError(Exception):
    """An error with a stable exit code."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


# -- document plumbing -----------------------------------------------------


class _Repeated(dict):
    """A JSON object that names some key more than once; like ``json``
    it keeps the last value."""

    __slots__ = ()


def _object(pairs):
    """The ``object_pairs_hook`` of every input document."""
    obj = dict(pairs)
    return obj if len(obj) == len(pairs) else _Repeated(obj)


def _read_doc(path, digits=0):
    """The JSON object in ``path`` ('-' for standard input), with
    integers of up to ``digits`` digits where the interpreter's own
    limit is lower."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    lift = 0 < limit < digits
    if lift:
        sys.set_int_max_str_digits(digits)
    try:
        if path == "-":
            doc = json.load(sys.stdin, object_pairs_hook=_object)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh, object_pairs_hook=_object)
    except (OSError, ValueError) as exc:
        raise CliError(2, "cannot read input document: %s" % (exc,))
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)
    if not isinstance(doc, dict):
        raise CliError(2, "input document must be a JSON object, got %s"
                          % type(doc).__name__)
    return doc


def _genus(doc):
    g = doc.get("g")
    try:
        if json_int(g) >= 1:
            return g
    except TypeError:
        pass
    raise CliError(2, "document needs a positive integer genus 'g'")


def _check_p(p):
    if p < 3 or p % 4 == 2:
        raise CliError(3, "order %d is unsupported (need p >= 3 and "
                          "p != 2 mod 4)" % p)


class _Work:
    """The predicted run time of one job, in integer microseconds on the
    reference VM.  Each expensive step adds its items before it runs,
    and the step that takes the total over ``BUDGET_US`` is refused."""

    def __init__(self, instance):
        self.instance = instance
        self.us = 0

    def add(self, step, **items):
        ns = sum(NS_PER_ITEM[kind] * count for kind, count in items.items())
        self.us += -(-ns // 1000)
        if self.us > BUDGET_US:
            raise CliError(6, "%s: %s brings the predicted work to %d us, "
                              "over the budget of %d us"
                           % (self.instance, step, self.us, BUDGET_US))

    def field(self, p):
        """Charge the field of order M = lcm(8, p); return its degree."""
        m = field_order(p)
        self.add("the cyclotomic field of order %d" % m, field=m * m)
        return _degree(p)


def _degree(p):
    """phi(M), the degree of the field of order M = lcm(8, p)."""
    return len(cyclotomic_polynomial(field_order(p))) - 1


def _power(base, exponent):
    """base ** exponent for base >= 2, or _OVER when that is larger."""
    return min(base ** min(exponent, 64), _OVER)


def _charge_invariant(work, p, B, free=None, signatures=1, refine=False):
    """Charge a closed invariant of B: its signatures, whose minors grow
    with B's entries, the colour sum over ``free`` (all) components and
    the refinement block: a signature and a printed value per class, and
    colour sums that together cover the colourings once."""
    n = len(B)
    free = n if free is None else free
    pp, cube = p_prime(p), n ** 3
    bits = max((abs(x) for row in B for x in row),
               default=0).bit_length() + 1
    work.add("%d signature(s) of a %d x %d linking matrix"
             % (signatures, n, n), pivots=signatures * cube,
             pivot_bits=signatures * cube * n * bits)
    if p % 2:
        work.add("the Gauss sum over %d components at p = %d" % (free, p),
                 pivots=free ** 3, histogram=free * p * p)
    else:
        work.add("the colour sum over %d components, %d^%d colourings"
                 % (free, pp, free),
                 colourings=_power(pp, free) * (n * n + 16))
    if refine:
        from .surgery import refinement_count

        count = refinement_count(B)
        k = min(count, _OVER)
        work.add("the refinement block of 2^%d classes"
                 % (count.bit_length() - 1),
                 colourings=_power(pp, n) * (n * n + 16), pivots=k * cube,
                 pivot_bits=k * cube * n * bits,
                 printed=k * (_degree(p) + 64))


def _lens_chain(beta, alpha):
    """The linking matrix z_lens surgers for L(beta, alpha), cut at 300
    unknots, more than the budget admits at any order."""
    from .surgery import chain_matrix, iter_continued_fraction

    if beta <= 0 or gcd(alpha, beta) != 1:
        return ((0,),)  # S^2 x S^1, or parameters z_lens refuses
    return chain_matrix(list(islice(
        iter_continued_fraction(beta, alpha % beta), 300)))


def _charge_heis(work, p, g, op):
    """Charge a heis job: a genus-g frame, and on the Schrodinger module
    the field and its p'^g labels, or a commutant's p'^(2g) unknowns."""
    if op in ("mul", "inverse"):
        work.add("the genus-%d frame" % g, frame=g ** 3)
    elif op in ("act", "matrix", "commutant"):
        phi, pp = work.field(p), p_prime(p)
        labels = _power(pp, g)
        if op == "commutant":
            work.add("the genus-%d commutant system of %d^%d unknowns"
                     % (g, pp, 2 * g), frame=g ** 3,
                     entries=2 * g * labels * phi,
                     unknowns=_power(pp, 2 * g) * phi)
        else:
            work.add("the genus-%d Schrodinger module's %d^%d labels"
                     % (g, pp, g), frame=g ** 3, entries=labels * phi,
                     printed=labels * (phi + 64))


def _charge_weil(work, p, g, runs):
    """Charge ``runs`` genus-g Weil intertwiners, each p'^(4g) averaging
    terms and a normalised p'^g x p'^g matrix; return phi."""
    phi, pp = work.field(p), p_prime(p)
    work.add("%d Weil intertwiner(s) of genus %d averaging %d^%d terms "
             "each" % (runs, g, pp, 4 * g), frame=g ** 3,
             terms=runs * _power(pp, 4 * g),
             entries=runs * _power(pp, 2 * g) * phi)
    return phi


def scalar_doc(x, digits):
    """Serialize an exact scalar with a flagged approximation."""
    digits = min(digits, MAX_DIGITS)
    re, im = approx_parts(x, digits)
    doc = x.to_json()
    doc["approx"] = {"re": re, "im": im, "digits": digits,
                     "approximate": True}
    return doc


def _json_rational(value):
    """A JSON rational as ``CycNum`` takes it: a string such as "-3/4"
    as it is, anything else as an integer (not a boolean or float)."""
    return value if isinstance(value, str) else json_int(value)


def parse_scalar(doc):
    """Inverse of scalar_doc on the exact part."""
    try:
        return CycNum(json_int(doc["order"]),
                      tuple(_json_rational(c) for c in doc["coeffs"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CliError(2, "bad scalar document: %s" % (exc,))


def _matrix_from(doc, key="B"):
    rows = doc.get(key)
    if rows is None:
        raise CliError(2, "input document lacks %r" % (key,))
    try:
        B = tuple(tuple(json_int(x) for x in row) for row in rows)
    except (TypeError, ValueError) as exc:
        raise CliError(2, "bad matrix: %s" % (exc,))
    n = len(B)
    if any(len(r) != n for r in B):
        raise CliError(2, "bad matrix: not square")
    if any(B[i][j] != B[j][i] for i in range(n) for j in range(n)):
        raise CliError(2, "bad matrix: not symmetric")
    return B


def _vector_doc(vec, digits):
    entries = []
    for label in sorted(vec):
        if vec[label] != 0:
            entries.append({"label": list(label),
                            "value": scalar_doc(vec[label], digits)})
    return {"entries": entries}


def _map_doc(m, digits):
    entries = []
    for target, source in sorted(m):
        v = m[(target, source)]
        if v != 0:
            entries.append({"target": list(target), "source": list(source),
                            "value": scalar_doc(v, digits)})
    return {"entries": entries}


def _parse_vector(doc, ctx):
    if not isinstance(doc, dict):
        raise CliError(2, "vector document must be a JSON object")
    entries = doc.get("entries", ())
    if not isinstance(entries, list):
        raise CliError(2, "vector 'entries' must be a list")
    out = {}
    for entry in entries:
        try:
            label = tuple(json_int(x) for x in entry["label"])
            raw = entry["value"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(2, "bad vector entry: %s" % (exc,))
        if isinstance(raw, dict):
            # compare the order before parse_scalar builds its field
            order = field_order(ctx.p)
            try:
                given = json_int(raw.get("order"))
            except TypeError:
                given = order  # left to parse_scalar, which reports it
            if given != order:
                raise CliError(2, "vector value of order %d, expected %d"
                               % (given, order))
            value = parse_scalar(raw)
        else:
            try:
                value = from_rational(field_order(ctx.p), _json_rational(raw))
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise CliError(2, "bad vector value: %s" % (exc,))
        if label in out:
            raise CliError(2, "vector label %s is given twice" % list(label))
        out[label] = value
    if any(len(label) != ctx.g for label in out):
        raise CliError(2, "vector labels do not match genus %d" % ctx.g)
    pp = ctx.p_prime
    if any(not 0 <= x < pp for label in out for x in label):
        raise CliError(2, "vector labels must lie in (Z/%d)^%d" % (pp, ctx.g))
    return out


# -- invariant / refine / lens --------------------------------------------


def _fixed_colors(doc, n):
    """The ``fixed_colors`` of an ``invariant`` document, {} when it has
    none: a JSON object whose keys are component indices below n in
    canonical decimal (ASCII digits, no leading zero), each named once,
    and whose values are integers."""
    if "fixed_colors" not in doc:
        return {}
    raw = doc["fixed_colors"]
    if not isinstance(raw, dict):
        raise CliError(2, "bad fixed_colors: expected an object, got %s"
                          % type(raw).__name__)
    if isinstance(raw, _Repeated):
        raise CliError(2, "bad fixed_colors: a component index is given "
                          "twice")
    fixed = {}
    for key, value in raw.items():
        if not (key.isascii() and key.isdigit()
                and (key[0] != "0" or key == "0")):
            raise CliError(2, "bad fixed_colors: key %r is not a component "
                              "index in canonical decimal" % (key,))
        try:
            fixed[int(key)] = json_int(value)
        except TypeError as exc:
            raise CliError(2, "bad fixed_colors: %s" % (exc,))
    if any(i >= n for i in fixed):
        raise CliError(2, "fixed_colors index out of range")
    return fixed


def cmd_invariant(args):
    from .surgery import matrix_element, signature, z_invariant

    work = _Work("invariant at p = %d" % args.p)
    _check_p(args.p)
    work.field(args.p)
    doc = _read_doc(args.input)
    B = _matrix_from(doc)
    fixed = _fixed_colors(doc, len(B))
    # the report's signature, then z_invariant's or matrix_element's
    _charge_invariant(work, args.p, B, len(B) - len(fixed), 2,
                      refine=not fixed and args.p % 4 == 0)
    report = {"command": "invariant", "p": args.p,
              "size": len(B), "signature": signature(B)}
    if fixed:
        value = matrix_element(args.p, B, fixed, len(fixed))
        report["fixed_colors"] = {str(k): v for k, v in sorted(fixed.items())}
        report["value"] = scalar_doc(value, args.digits)
        return report
    value = z_invariant(args.p, B)
    report["value"] = scalar_doc(value, args.digits)
    if args.p % 4 == 0:
        report["refinement"] = _refinement_block(args.p, B, value,
                                                 args.digits)
    return report


def _refinement_block(p, B, total, digits):
    from .surgery import refined_invariant, refinement_classes, refinement_kind

    classes = refinement_classes(p, B)
    parts = []
    running = None
    for cls in classes:
        v = refined_invariant(p, B, cls)
        parts.append({"class": list(cls), "value": scalar_doc(v, digits)})
        running = v if running is None else running + v
    if running is None:
        agrees = total == 0
    else:
        agrees = running == total
    return {"kind": refinement_kind(p), "classes": parts,
            "sum_matches_total": agrees}


def cmd_refine(args):
    from .surgery import signature, z_invariant

    _check_p(args.p)
    if args.p % 4:
        raise CliError(3, "refinements need p = 0 mod 4, got %d" % args.p)
    work = _Work("refine at p = %d" % args.p)
    work.field(args.p)
    doc = _read_doc(args.input)
    B = _matrix_from(doc)
    _charge_invariant(work, args.p, B, signatures=2, refine=True)
    total = z_invariant(args.p, B)
    return {"command": "refine", "p": args.p, "size": len(B),
            "signature": signature(B),
            "value": scalar_doc(total, args.digits),
            "refinement": _refinement_block(args.p, B, total, args.digits)}


def cmd_lens(args):
    from .surgery import z_lens

    work = _Work("lens L(%d, %d) at p = %d" % (args.beta, args.alpha, args.p))
    _check_p(args.p)
    work.field(args.p)
    _charge_invariant(work, args.p, _lens_chain(args.beta, args.alpha))
    try:
        value = z_lens(args.p, args.beta, args.alpha)
    except ValueError as exc:
        raise CliError(2, "bad lens parameters: %s" % (exc,))
    return {"command": "lens", "p": args.p,
            "beta": args.beta, "alpha": args.alpha,
            "value": scalar_doc(value, args.digits)}


# -- tqft ------------------------------------------------------------------


def _column_bits(rows):
    """Bits by which a row vector times integer rows can grow: those of
    the largest column sum of absolute values, less one; 0 if the rows
    are malformed, which ``load_program`` reports."""
    try:
        return (max(sum(abs(json_int(v)) for v in column)
                    for column in zip(*rows)) - 1).bit_length()
    except (TypeError, ValueError):
        return 0


def _charge_validation(work, doc, p):
    """Charge validating the program of ``doc`` from its shape and its
    entries, before any object is built: each step's frame work at the
    largest genus the program reaches, the products of carried entries
    by cylinder entries, and the Hermite forms of the carried Lagrangian
    at the end.  The carried entries have at most the source's column
    bits plus each cylinder's; ``load_program`` reports a malformed
    program.  Return, from the same walk, what the routes of
    ``F_program`` cost at order p: the largest genus; the labels of the
    maps built, at most one entry per source label for each index-1 or
    index-2 step and for the final change of frame (a cylinder builds
    none); and the tensor pairs of the oracle's index-2 steps, p'^(3g-1)
    from genus g, with their 2g relation rows each."""
    try:
        g, steps = json_int(doc["source"]["g"]), doc.get("steps", [])
    except (KeyError, TypeError):
        return None
    if g < 0 or not isinstance(steps, list):
        return None
    pp, source = p_prime(p), g
    top, bits, words = g, _column_bits(doc["source"].get("L")), 0
    labels = pairs = rows = 0
    for s in steps:
        kind = s.get("kind") if isinstance(s, dict) else None
        if kind in ("index1", "index2"):
            labels += _power(pp, g) + _power(pp, source)
        if kind == "index2":
            pairs += _power(pp, 3 * g - 1)
            rows += 2 * g * _power(pp, 3 * g - 1)
        g += (kind == "index1") - (kind == "index2")
        top = max(top, g)
        grow = _column_bits(s.get("matrix")) if kind == "cylinder" else 0
        bits += grow
        words += (bits // 64 + 1) * (grow // 64 + 1)
    work.add("validating %d step(s) up to genus %d" % (len(steps), top),
             steps=(len(steps) + 2) * (top ** 3 + 32),
             words=top ** 3 * (words + 64 * top * (bits // 64 + 1) ** 2))
    return top, labels + _power(pp, g), pairs, rows


def _charge_routes(work, p, phi, items, routes):
    """Charge each route of ``F_program`` the map entries, and the
    oracle its relation rows, that ``_charge_validation`` returned."""
    top, labels, pairs, rows = items
    for route in sorted(routes):
        work.add("the %s route over the genus-%d Schrodinger module, "
                 "%d^%d labels" % (route, top, p_prime(p), top),
                 entries=labels * phi)
    if "oracle" in routes:
        work.add("the tensor oracle over %d tensor pairs" % pairs,
                 tensor_pairs=rows * phi)


def cmd_tqft(args):
    from .cobordism import (F_program, MissingClosureError, ProgramError,
                            apply_map, canonical_context, closed_off_lens,
                            closure_factor, load_program, validate)

    work = _Work("tqft at p = %d" % args.p)
    _check_p(args.p)
    odd = args.p % 2 == 1
    if args.verify and not odd:
        raise CliError(3, "--verify compares the closed form against the "
                          "tensor oracle and needs odd p")
    phi = work.field(args.p)
    doc = _read_doc(args.input, _PROGRAM_DIGITS)
    items = _charge_validation(work, doc, args.p)
    try:
        prog = load_program(doc)
    except ProgramError as exc:
        raise CliError(2, "bad program: %s" % (exc,))
    closure = None
    if args.closure is not None:
        closure = _matrix_from(_read_doc(args.closure))
    try:
        walk = validate(prog)
    except ProgramError as exc:
        raise CliError(4, str(exc))
    route = args.mode if args.mode != "auto" else "closed" if odd else "oracle"
    other = "oracle" if route == "closed" else "closed"
    _charge_routes(work, args.p, phi, items,
                   {route, other} if args.verify else {route})
    # the map has one entry per source label at most
    labels = _power(p_prime(args.p), prog.source.g)
    if args.normalized:
        lens = closed_off_lens(prog.steps)
        if closure is not None or lens is not None:
            _charge_invariant(work, args.p, _lens_chain(*lens)
                              if closure is None else closure)
        work.add("normalising the map", entries=labels * phi)
    work.add("printing the map", printed=labels * (phi + 64))
    try:
        factor = (closure_factor(args.p, prog, closure)
                  if args.normalized else None)
        raw = m = F_program(args.p, walk, route)
    except MissingClosureError as exc:
        raise CliError(5, str(exc))
    except ValueError as exc:
        raise CliError(2, str(exc))
    if factor is not None:
        m = {k: factor * v for k, v in raw.items()}
    report = {"command": "tqft", "p": args.p, "mode": args.mode,
              "normalized": bool(args.normalized)}
    if args.verify:
        checked = F_program(args.p, walk, other)
        clean = {k: v for k, v in raw.items() if v != 0}
        if clean != {k: v for k, v in checked.items() if v != 0}:
            raise CliError(4, "closed form and tensor oracle disagree")
        report["verified"] = "closed form equals tensor oracle"
    if args.vector is not None:
        ctx = canonical_context(args.p, prog.source)
        vec = _parse_vector(_read_doc(args.vector), ctx)
        out = apply_map(m, vec)
        report["vector"] = _vector_doc(out, args.digits)
    else:
        report["map"] = _map_doc(m, args.digits)
    return report


# -- heis ------------------------------------------------------------------


def _parse_triple(doc, key, p, g):
    """A group element (k, a, b) of the genus-g finite Heisenberg group
    at order p, checked against g before any frame is built."""
    raw = doc.get(key)
    try:
        k = json_int(raw[0])
        a = tuple(json_int(x) for x in raw[1])
        b = tuple(json_int(x) for x in raw[2])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CliError(2, "bad group element %r: %s" % (key, exc))
    if len(a) != g or len(b) != g:
        raise CliError(2, "group element %r does not match genus %d"
                       % (key, g))
    pp = p_prime(p)
    return k % p, tuple(x % pp for x in a), tuple(x % pp for x in b)


def cmd_heis(args):
    from .heisenberg import (closed_context, commutant_dim, finite_inverse,
                             finite_mul, monomial_of, schrodinger_act,
                             to_finite)

    _check_p(args.p)
    doc = _read_doc(args.input)
    op = doc.get("op")
    g = _genus(doc)
    _charge_heis(_Work("heis %s at p = %d" % (op, args.p)), args.p, g, op)
    if op == "mul":
        x = _parse_triple(doc, "x", args.p, g)
        y = _parse_triple(doc, "y", args.p, g)
        k, a, b = finite_mul(closed_context(args.p, g), x, y)
        return {"command": "heis", "op": "mul", "p": args.p, "g": g,
                "result": [k, list(a), list(b)]}
    if op == "inverse":
        x = _parse_triple(doc, "x", args.p, g)
        k, a, b = finite_inverse(closed_context(args.p, g), x)
        return {"command": "heis", "op": "inverse", "p": args.p, "g": g,
                "result": [k, list(a), list(b)]}
    if op == "act":
        h = _parse_triple(doc, "element", args.p, g)
        ctx = closed_context(args.p, g)
        vec = _parse_vector(doc.get("vector", {}), ctx)
        out = schrodinger_act(ctx, h, vec)
        return {"command": "heis", "op": "act", "p": args.p, "g": g,
                "vector": _vector_doc(out, args.digits)}
    if op == "matrix":
        h = _parse_triple(doc, "element", args.p, g)
        m = monomial_of(closed_context(args.p, g), h).as_map()
        return {"command": "heis", "op": "matrix", "p": args.p, "g": g,
                "map": _map_doc(m, args.digits)}
    if op == "commutant":
        ctx = closed_context(args.p, g)
        basis = []
        for i in range(2 * g):
            e = tuple(1 if j == i else 0 for j in range(2 * g))
            basis.append(monomial_of(ctx, to_finite(ctx, 0, e)))
        dim = commutant_dim(basis, ctx.labels())
        return {"command": "heis", "op": "commutant", "p": args.p, "g": g,
                "dimension": dim}
    raise CliError(2, "unknown heis op %r" % (op,))


# -- mcg -------------------------------------------------------------------


def _compose(work, f, h, key, step):
    """f after h, charged first with its image letters before reduction."""
    sizes = [len(w.letters) for w in f.images]
    count = sum(sizes[abs(x) - 1] for w in h.images for x in w.letters)
    work.add("%s of mapping class %r composes %d image letters"
             % (step, key, count), letters=count)
    return f * h


def _class_from(work, doc, key, genus):
    from .mcg import FreeWord, MappingClass, twist_generators

    raw = doc.get(key)
    if raw is None:
        raise CliError(2, "document lacks mapping class %r" % (key,))
    if not isinstance(raw, dict):
        raise CliError(2, "mapping class %r must be an object" % (key,))
    if "word" in raw:
        word = raw["word"]
        if not isinstance(word, list):
            raise CliError(2, "mapping class %r: 'word' must be a list of "
                              "twist names" % (key,))
        try:
            lib = twist_generators(genus)
        except ValueError as exc:
            raise CliError(2, str(exc))
        f = MappingClass.identity(genus)
        for step, name in enumerate(word, 1):
            if not isinstance(name, str) or name not in lib:
                raise CliError(2, "unknown twist %r for genus %d"
                               % (name, genus))
            f = _compose(work, f, lib[name], key,
                         "twist %d (%s)" % (step, name))
        return f
    if "images" in raw:
        work.add("the genus-%d class %r" % (genus, key), frame=genus ** 3)
        try:
            images = tuple(FreeWord(tuple(json_int(x) for x in w))
                           for w in raw["images"])
            return MappingClass(genus, images)
        except (TypeError, ValueError) as exc:
            raise CliError(2, "bad mapping class: %s" % (exc,))
    raise CliError(2, "mapping class %r needs 'word' or 'images'" % (key,))


def cmd_mcg(args):
    from .heisenberg import closed_context, compose_maps
    from .mcg import (cocycle_c, heisenberg_twist, projective_defect, t_dual,
                      theta, weil_intertwiner)

    _check_p(args.p)
    doc = _read_doc(args.input)
    op = doc.get("op")
    genus = _genus(doc)
    work = _Work("mcg %s at p = %d, g = %d" % (op, args.p, genus))
    if op == "theta":
        f = _class_from(work, doc, "f", genus)
        th = theta(f)
        report = {"command": "mcg", "op": "theta", "p": args.p, "g": genus,
                  "theta": list(th),
                  "matrix": [list(r) for r in f.matrix]}
        if args.p % 2:
            report["t"] = list(t_dual(th, args.p))
        return report
    if op == "cocycle":
        if args.p % 2 == 0:
            raise CliError(3, "the cocycle needs odd p, got %d" % args.p)
        f = _class_from(work, doc, "f", genus)
        h = _class_from(work, doc, "h", genus)
        c = cocycle_c(f, h, args.p)
        report = {"command": "mcg", "op": "cocycle", "p": args.p,
                  "g": genus, "c": c}
        if args.verify:
            phi = _charge_weil(work, args.p, genus, 3)
            pp = p_prime(args.p)
            # two products of p'^g x p'^g matrices and three twists,
            # p'^(2g) products each
            work.add("the projective defects, %d^%d products each"
                     % (pp, 3 * genus),
                     entries=3 * _power(pp, 3 * genus) * phi)
            fh = _compose(work, f, h, "f h", "the product f h")
            ctx = closed_context(args.p, genus)
            classes = (f, h, fh)
            S = [weil_intertwiner(x.matrix, ctx) for x in classes]
            # weil_H(x) is the Heisenberg twist of x after S(x)
            H = [compose_maps(heisenberg_twist(x, ctx).as_map(), s)
                 for x, s in zip(classes, S)]
            lam_H = projective_defect(*H)
            lam_S = projective_defect(*S)
            if lam_H != lam_S * q_power(args.p, c):
                raise CliError(4, "measured defect ratio disagrees with "
                                  "the cocycle")
            report["verified"] = "defect ratio matches q^c"
        return report
    if op == "weil":
        if "matrix" in doc:
            try:
                fs = tuple(tuple(json_int(x) for x in row)
                           for row in doc["matrix"])
            except (TypeError, ValueError) as exc:
                raise CliError(2, "bad matrix: %s" % (exc,))
        else:
            fs = _class_from(work, doc, "f", genus).matrix
        phi = _charge_weil(work, args.p, genus, 1)
        work.add("printing the intertwiner", printed=(phi + 64) * _power(
            p_prime(args.p), 2 * genus))
        ctx = closed_context(args.p, genus)
        try:
            S = weil_intertwiner(fs, ctx)
        except ValueError as exc:
            raise CliError(2, str(exc))
        return {"command": "mcg", "op": "weil", "p": args.p, "g": genus,
                "matrix": [list(r) for r in fs],
                "intertwiner": _map_doc(S, args.digits),
                "intertwining": "verified by construction"}
    raise CliError(2, "unknown mcg op %r" % (op,))


# -- argument parsing ------------------------------------------------------


def _digits(text):
    """The type of ``--digits``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError("must be a positive integer, got %d" % value)
    return value


def _mode(text):
    if text not in ("auto", "closed", "oracle"):
        raise ValueError("invalid choice: %r (choose from 'auto', 'closed', "
                         "'oracle')" % (text,))
    return text


# The argument table: for each command its handler, a line of help, its
# positionals as (name, type) and its options as name: (type, default,
# help).  A flag has type None, a required option the default ``...``;
# ``-h`` and ``--help`` (entry None) are options of every parser.
_HELP = {"-h": None, "--help": None}
_OPTIONS = {
    **_HELP,
    "--p": (int, ..., "order of the root of unity (p >= 3, p != 2 mod 4)"),
    "--digits": (_digits, MAX_DIGITS, "approximation digits, at least 1 "
                                      "(capped at %d)" % MAX_DIGITS),
}
_INPUT = (("input", str),)

COMMANDS = {
    "invariant": (cmd_invariant, "closed-manifold invariant of a linking "
                                 "presentation", _INPUT, _OPTIONS),
    "refine": (cmd_refine, "parity refinements at p = 0 mod 4", _INPUT,
               _OPTIONS),
    "lens": (cmd_lens, "lens space invariant",
             (("beta", int), ("alpha", int)), _OPTIONS),
    "tqft": (cmd_tqft, "map of a surgery program", _INPUT, {
        **_OPTIONS,
        "--mode": (_mode, "auto", "auto, closed or oracle (default auto)"),
        "--vector": (str, None, "JSON vector document to apply"),
        "--normalized": (None, False, "multiply by the closed-off "
                                      "invariant"),
        "--closure": (str, None, "linking matrix document for "
                                 "--normalized on composite programs"),
        "--verify": (None, False, "check closed form against the tensor "
                                  "oracle"),
    }),
    "heis": (cmd_heis, "finite Heisenberg group utilities", _INPUT,
             _OPTIONS),
    "mcg": (cmd_mcg, "mapping class utilities", _INPUT, {
        **_OPTIONS,
        "--verify": (None, False, "measure the projective defect ratio"),
    }),
}


def _usage(command):
    if command is None:
        return "usage: abtqft [-h] {%s} ...\n" % ",".join(COMMANDS)
    _, _, positionals, options = COMMANDS[command]
    words = ["usage: abtqft", command, "[-h]"]
    for name, spec in options.items():
        if spec:
            word = name if spec[0] is None else name + " " + name[2:].upper()
            words.append(word if spec[1] is ... else "[%s]" % word)
    return " ".join(words + [name for name, _ in positionals]) + "\n"


def _help(command):
    if command is None:
        text = ("Exact invariants of closed 3-manifolds and exact TQFT maps "
                "at a root of unity of order p.\nThe input is a JSON "
                "document, '-' for standard input; 'abtqft COMMAND -h' "
                "lists the options of a command.")
        rows = [(name, spec[1]) for name, spec in COMMANDS.items()]
    else:
        _, text, _, options = COMMANDS[command]
        rows = [(name, spec[2]) for name, spec in options.items() if spec]
    return "%s\n%s\n\n%s" % (_usage(command), text, "".join(
        "  %-13s %s\n" % row for row in rows))


def _classify(token, options):
    """What an argument is before any is consumed, as argparse decides
    it: None for a positional, else the pair (the option it names, or
    None for an unknown option; the value joined to it, or None).  A
    long option may be any prefix that names one option; ``-h`` takes
    the rest of its argument as its value."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in options:
        return name, value
    if token[1] == "-":
        found = [option for option in options if option.startswith(name)]
        if len(found) > 1:
            raise CliError(2, "ambiguous option: %s could match %s"
                           % (token, ", ".join(found)))
        if found:
            return found[0], value if eq else None
    elif token[1] == "h":
        return "-h", token[2:]
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None
    return None, None


def _show_help(command, name, value):
    """Print the help, or refuse a help option given a value; ``-hh``
    is two help options."""
    if value is None or name == "-h" and value and not value.strip("h"):
        raise CliError(0, _help(command))
    raise CliError(2, "argument -h/--help: ignored explicit argument %r"
                   % value)


def _parse_command(command, tokens):
    """The namespace of one command and its unrecognized arguments.

    Arguments are consumed left to right, as argparse consumes them: an
    option takes the next argument unless that is an option or ``--``;
    a run of arguments between options fills the positionals still
    open, each with a ``--`` next to it, and the rest of the run is
    unrecognized.  A value is converted when it is consumed, so a bad
    value before a help option is an error and one after it is not.
    Where argparse dropped the value ``--`` itself and left an empty
    list, the argument counts as missing."""
    handler, _, positionals, options = COMMANDS[command]
    kinds, separated = [], False
    for token in tokens:
        kinds.append(None if separated else "--" if token == "--"
                     else _classify(token, options))
        separated = separated or token == "--"
    args = SimpleNamespace(func=handler, **{
        name[2:]: spec[1] for name, spec in options.items()
        if spec and spec[1] is not ...})

    def take(label, convert, strings):
        if "--" in strings:
            strings.remove("--")
        try:
            setattr(args, label.lstrip("-"),
                    convert(*strings) if strings else [])
        except ValueError as exc:
            raise CliError(2, "argument %s: %s" % (label, exc))

    todo, extras = list(positionals), []
    i, n = 0, len(tokens)
    while i < n:
        if not isinstance(kinds[i], tuple):
            end = i
            while end < n and not isinstance(kinds[end], tuple):
                end += 1
            while todo and None in kinds[i:end]:
                start = i
                i += (kinds[i] == "--") + 1  # a -- before the value, the value
                i += i < end and kinds[i] == "--"  # and a -- after it
                take(*todo.pop(0), tokens[start:i])
            extras += tokens[i:end]
            i = end
            continue
        name, value = kinds[i]
        i += 1
        if name is None:
            extras.append(tokens[i - 1])
        elif options[name] is None:
            _show_help(command, name, value)
        elif options[name][0] is None:
            if value is not None:
                raise CliError(2, "argument %s: ignored explicit argument "
                                  "%r" % (name, value))
            setattr(args, name[2:], True)
        else:
            if value is None:
                if i == n or kinds[i] is not None:
                    raise CliError(2, "argument %s: expected one argument"
                                   % name)
                value = tokens[i]
                i += 1
            take(name, options[name][0], [value])
    missing = [label for label in [name for name, _ in positionals] + [
        name for name, spec in options.items() if spec]
        if getattr(args, label.lstrip("-"), []) == []]
    if missing:
        raise CliError(2, "the following arguments are required: %s"
                       % ", ".join(missing))
    return args, extras


def parse_args(argv):
    """The namespace of a command line: the fields its handler reads and
    the handler as ``func``.

    The language is the one argparse accepted (see the module
    docstring), read from the table without importing argparse, gettext
    and locale.  Help raises ``CliError(0, text)`` and a usage error
    ``CliError(2, text)``, the text to print as it is."""
    command, extras, argv = None, [], list(argv)
    try:
        for i, token in enumerate(argv):
            kind = None if token == "--" else _classify(token, _HELP)
            if kind is None:
                if token not in COMMANDS:
                    raise CliError(2, "argument command: invalid choice: %r "
                                      "(choose from %s)" % (token, ", ".join(
                                          map(repr, COMMANDS))))
                command = token
                args, rest = _parse_command(command, argv[i + 1:])
                if extras + rest:
                    command = None
                    raise CliError(2, "unrecognized arguments: %s"
                                   % " ".join(extras + rest))
                return args
            if kind[0] is None:
                extras.append(token)
            else:
                _show_help(None, *kind)
        raise CliError(2, "the following arguments are required: command")
    except CliError as exc:
        if exc.code == 0:
            raise
        raise CliError(2, "%sabtqft%s: error: %s\n" % (
            _usage(command), "" if command is None else " " + command, exc))


# -- entry point -----------------------------------------------------------


def _write_json(stream, doc, sort_keys=False):
    """Write ``doc`` as indented JSON and a newline in a single write:
    ``json.dump`` hands a stream one small chunk at a time, and on an
    unbuffered stream each chunk is a system call."""
    buf = io.StringIO()
    json.dump(doc, buf, indent=2, sort_keys=sort_keys)
    buf.write("\n")
    stream.write(buf.getvalue())


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except CliError as exc:
        (sys.stderr if exc.code else sys.stdout).write(str(exc))
        return exc.code
    try:
        report = args.func(args)
    except CliError as exc:
        _write_json(sys.stderr, {"error": str(exc), "exit_code": exc.code})
        return exc.code
    _write_json(sys.stdout, report, sort_keys=True)
    return 0


def run(argv=None):
    """The ``abtqft`` program: run :func:`main`, flush its report and end
    the process at once with ``os._exit``, skipping module teardown, the
    freeing of every object and the exit-time collections.

    The interpreter's normal exit stays, and the exit code is returned,
    when a profiler or tracer is installed (``cProfile``, ``coverage``,
    ``pdb`` report or stop at exit) or when a flush fails.  An exception
    out of ``main`` propagates with its traceback and exit code 1.
    """
    code = main(argv)
    if sys.getprofile() is None and sys.gettrace() is None:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except (OSError, ValueError):
            return code
        os._exit(code)
    return code


if __name__ == "__main__":
    sys.exit(run())
