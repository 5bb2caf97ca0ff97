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

Before it enumerates anything, a command estimates its work: p'^n
colourings for a colour sum over n surgered components (``invariant``,
``refine``, ``lens``, the closing factor of ``tqft --normalized``) and
the tensor pairs of every run of the bimodule oracle in ``tqft``
(``--mode oracle``, ``auto`` at even p, ``--verify``), the p'^g labels
of the Schrodinger module in ``heis`` (``act``, ``matrix``,
``commutant``) and at the largest genus a ``tqft`` program carries,
the p'^(2g) unknowns of a ``commutant`` system, and the p'^(4g)
Schur-averaging terms of every Weil intertwiner in ``mcg`` (one for
``weil``, three for ``cocycle --verify``).  ``heis mul`` and
``inverse`` enumerate nothing, but build a genus-g frame whose check
grows as g^3.  A job over ``MAX_COLORINGS``, ``MAX_TENSOR_PAIRS``,
``MAX_LABELS``, ``MAX_COMMUTANT_UNKNOWNS``, ``MAX_AVERAGING_TERMS`` or
``MAX_GENUS`` is refused.  So is an order whose cyclotomic field
Q(zeta_M), M = lcm(8, p), is over ``MAX_FIELD_ORDER``, on every path
that builds the field, whose set-up grows as M^2: ``invariant``,
``refine``, ``lens`` and ``tqft`` always build it; ``heis mul`` and
``inverse``, and ``mcg theta`` and ``cocycle`` without ``--verify``,
never do.  A mapping class given as a twist ``word`` is composed one
twist at a time, and ``cocycle --verify`` composes f h; each
composition first predicts the letters of its image words, the sum over
the letters of the right factor's images of the length of the left
factor's image of that letter, and one over ``MAX_WORD_LETTERS`` is
refused.

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
* 6 - the job's estimated work exceeds a cap
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
    field_order,
    from_rational,
    p_prime,
    q_power,
)
from .value import json_int

MAX_DIGITS = 12

# Work caps, checked before any enumeration.  The colour sums run at
# about 0.3 M colourings/s; the oracle's elimination holds a few
# relation rows of CycNums per tensor pair, and a commutant system 2g
# rows per unknown; a ``heis matrix`` report takes about 1 KB per label;
# Schur averaging runs at about 1.3 M terms/s; the frame check of
# ``heis mul`` and ``inverse`` takes about 0.2 s at genus 100; a field
# of order 4096 and its eta, kappa and display table take about 0.4 s
# to set up, and 1.4 s at order 8072; a composition of mapping classes
# at the letter cap takes about 0.1 s (2-vCPU VM, Python 3.11).
MAX_COLORINGS = 10 ** 6
MAX_TENSOR_PAIRS = 2 * 10 ** 4
MAX_LABELS = 10 ** 4
MAX_COMMUTANT_UNKNOWNS = 10 ** 4
MAX_AVERAGING_TERMS = 10 ** 6
MAX_GENUS = 100
MAX_FIELD_ORDER = 4096
MAX_WORD_LETTERS = 10 ** 5


class CliError(Exception):
    """An error with a stable exit code."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


# -- document plumbing -----------------------------------------------------


def _read_doc(path):
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CliError(2, "cannot read input document: %s" % (exc,))
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


def _check_field(p):
    """Refuse an order whose cyclotomic field is over the cap."""
    if field_order(p) > MAX_FIELD_ORDER:
        raise CliError(6, "the cyclotomic field of order %d at p = %d is "
                          "over the cap of %d"
                       % (field_order(p), p, MAX_FIELD_ORDER))


def _bounded_power(base, exponent, cap):
    """base ** exponent for base >= 2, or cap + 1 when that exceeds
    cap; no power much larger than cap is ever built."""
    if exponent > cap.bit_length():
        return cap + 1
    return min(base ** exponent, cap + 1)


def _check_colorings(p, n):
    """Refuse a colour sum over p'^n colourings above the cap."""
    if _bounded_power(p_prime(p), n, MAX_COLORINGS) > MAX_COLORINGS:
        raise CliError(6, "a colour sum over %d components at p = %d "
                          "enumerates %d^%d colourings, over the cap of %d"
                       % (n, p, p_prime(p), n, MAX_COLORINGS))


def _check_lens(p, beta, alpha):
    """Refuse L(beta, alpha) when its chain of unknots is too long for
    the colouring cap; invalid parameters are left to z_lens."""
    from .surgery import iter_continued_fraction

    if beta > 0 and gcd(alpha, beta) == 1:
        longest = MAX_COLORINGS.bit_length()
        chain = iter_continued_fraction(beta, alpha % beta)
        n = sum(1 for _ in islice(chain, longest + 1))
        if n > longest:
            raise CliError(6, "L(%d, %d) is a chain of more than %d unknots, "
                              "over the cap of %d colourings"
                           % (beta, alpha, longest, MAX_COLORINGS))
        _check_colorings(p, n)


def _check_program(p, prog, runs):
    """Refuse ``runs`` oracle evaluations of the program when their
    tensor pairs exceed the cap, then a program whose Schrodinger
    modules have more than ``MAX_LABELS`` labels at the largest genus
    it carries (its source, or the genus after a step).  An index-2 step
    at carried genus g tensors p'^(2g-1) correspondence labels with p'^g
    incoming ones.  An invalid program is reported as such, not as too
    large."""
    from .cobordism import Index1, Index2, ProgramError, validate

    pp = p_prime(p)
    pairs, g = 0, prog.source.g
    top = g
    for step in prog.steps:
        if isinstance(step, Index1):
            g += 1
        elif isinstance(step, Index2) and g >= 1:
            pairs += _bounded_power(pp, 3 * g - 1, MAX_TENSOR_PAIRS)
            g -= 1
        top = max(top, g)
    too_many_pairs = runs * pairs > MAX_TENSOR_PAIRS
    if too_many_pairs or _bounded_power(pp, top, MAX_LABELS) > MAX_LABELS:
        try:
            validate(prog)
        except ProgramError as exc:
            raise CliError(4, str(exc))
        if too_many_pairs:
            raise CliError(6, "%d run(s) of the tensor oracle at p = %d "
                              "would enumerate more than the cap of %d "
                              "tensor pairs" % (runs, p, MAX_TENSOR_PAIRS))
        raise CliError(6, "the genus-%d Schrodinger module at p = %d has "
                          "%d^%d labels, over the cap of %d"
                       % (top, p, pp, top, MAX_LABELS))


def _check_heis(p, g, op):
    """Refuse a Schrodinger-module job over more than ``MAX_LABELS``
    labels or over a field of order above ``MAX_FIELD_ORDER``, a
    commutant system over more than ``MAX_COMMUTANT_UNKNOWNS`` unknowns,
    or a ``mul`` or ``inverse`` over more than ``MAX_GENUS`` handles;
    those two build no field and enumerate nothing, but check a genus-g
    frame."""
    pp = p_prime(p)
    if op in ("mul", "inverse") and g > MAX_GENUS:
        raise CliError(6, "a genus-%d frame is over the cap of %d handles"
                       % (g, MAX_GENUS))
    if op in ("act", "matrix", "commutant"):
        _check_field(p)
        if _bounded_power(pp, g, MAX_LABELS) > MAX_LABELS:
            raise CliError(6, "the genus-%d Schrodinger module at p = %d "
                              "has %d^%d labels, over the cap of %d"
                           % (g, p, pp, g, MAX_LABELS))
    if op == "commutant" and _bounded_power(
            pp, 2 * g, MAX_COMMUTANT_UNKNOWNS) > MAX_COMMUTANT_UNKNOWNS:
        raise CliError(6, "the genus-%d commutant system at p = %d has "
                          "%d^%d unknowns, over the cap of %d"
                       % (g, p, pp, 2 * g, MAX_COMMUTANT_UNKNOWNS))


def _check_weil(p, g, runs):
    """Refuse ``runs`` genus-g Weil intertwiners over a field of order
    above ``MAX_FIELD_ORDER``, or when their Schur averaging, p'^(4g)
    terms each, exceeds the cap."""
    _check_field(p)
    pp = p_prime(p)
    if runs * _bounded_power(pp, 4 * g, MAX_AVERAGING_TERMS) > (
            MAX_AVERAGING_TERMS):
        raise CliError(6, "%d Weil intertwiner(s) of genus %d at p = %d "
                          "average %d^%d terms each, over the cap of %d "
                          "in total"
                       % (runs, g, p, pp, 4 * g, MAX_AVERAGING_TERMS))


def scalar_doc(x, digits):
    """Serialize an exact scalar with a flagged approximation."""
    digits = min(digits, MAX_DIGITS)
    re, im = approx_parts(x, digits)
    doc = x.to_json()
    doc["approx"] = {"re": re, "im": im, "digits": digits,
                     "approximate": True}
    return doc


def _json_rational(value):
    """A JSON rational, a string such as "-3/4" or an integer, as its
    reduced pair (numerator, denominator).

    A string of the form [+-]digits or [+-]digits/digits (ASCII digits,
    a nonzero denominator) is read on integers; any other string goes to
    ``Fraction``, which reads it or raises the error it always has."""
    if not isinstance(value, str):
        return json_int(value), 1
    top, slash, bottom = value.partition("/")
    unsigned = top[1:] if top[:1] in ("+", "-") else top
    if _ascii_digits(unsigned) and (
            not slash or _ascii_digits(bottom) and bottom.strip("0")):
        n, d = int(top), int(bottom) if slash else 1
        g = gcd(n, d)
        return n // g, d // g
    from fractions import Fraction

    value = Fraction(value)
    return value.numerator, value.denominator


def _ascii_digits(text):
    return text.isascii() and text.isdigit()


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
        out[label] = value
    if any(len(label) != ctx.g for label in out):
        raise CliError(2, "vector labels do not match genus %d" % ctx.g)
    return out


# -- invariant / refine / lens --------------------------------------------


def cmd_invariant(args):
    from .surgery import matrix_element, signature, z_invariant

    _check_p(args.p)
    _check_field(args.p)
    doc = _read_doc(args.input)
    B = _matrix_from(doc)
    fixed = doc.get("fixed_colors") or {}
    if fixed:
        try:
            fixed = {int(k): json_int(v) for k, v in fixed.items()}
        except (AttributeError, TypeError, ValueError) as exc:
            raise CliError(2, "bad fixed_colors: %s" % (exc,))
        if any(not 0 <= i < len(B) for i in fixed):
            raise CliError(2, "fixed_colors index out of range")
    # the cap goes before the O(n^3) signature
    _check_colorings(args.p, len(B) - len(fixed))
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
    _check_field(args.p)
    doc = _read_doc(args.input)
    B = _matrix_from(doc)
    _check_colorings(args.p, len(B))
    total = z_invariant(args.p, B)
    return {"command": "refine", "p": args.p, "size": len(B),
            "signature": signature(B),
            "value": scalar_doc(total, args.digits),
            "refinement": _refinement_block(args.p, B, total, args.digits)}


def cmd_lens(args):
    from .surgery import z_lens

    _check_p(args.p)
    _check_field(args.p)
    _check_lens(args.p, args.beta, args.alpha)
    try:
        value = z_lens(args.p, args.beta, args.alpha)
    except ValueError as exc:
        raise CliError(2, "bad lens parameters: %s" % (exc,))
    return {"command": "lens", "p": args.p,
            "beta": args.beta, "alpha": args.alpha,
            "value": scalar_doc(value, args.digits)}


# -- tqft ------------------------------------------------------------------


def cmd_tqft(args):
    from .cobordism import (F_program, Index2, ProgramError, apply_map,
                            canonical_context, load_program, normalized_map)

    _check_p(args.p)
    _check_field(args.p)
    doc = _read_doc(args.input)
    try:
        prog = load_program(doc)
    except ProgramError as exc:
        raise CliError(2, "bad program: %s" % (exc,))
    closure = None
    if args.closure is not None:
        closure = _matrix_from(_read_doc(args.closure))
    odd = args.p % 2 == 1
    oracle_runs = ((args.mode == "oracle" or args.mode == "auto" and not odd)
                   + (args.verify and odd))
    _check_program(args.p, prog, oracle_runs)
    if args.normalized and closure is not None:
        _check_colorings(args.p, len(closure))
    elif args.normalized and len(prog.steps) == 1 and isinstance(
            prog.steps[0], Index2):
        step = prog.steps[0]
        sign = -1 if step.beta < 0 else 1
        _check_lens(args.p, sign * step.beta, sign * step.alpha)
    try:
        if args.normalized:
            try:
                m = normalized_map(args.p, prog, closure, args.mode)
            except ProgramError as exc:
                if "closure" in str(exc):
                    raise CliError(5, str(exc))
                raise
        else:
            m = F_program(args.p, prog, args.mode)
    except ProgramError as exc:
        raise CliError(4, str(exc))
    except ValueError as exc:
        raise CliError(2, str(exc))
    report = {"command": "tqft", "p": args.p, "mode": args.mode,
              "normalized": bool(args.normalized)}
    if args.verify:
        if args.p % 2 == 0:
            raise CliError(3, "--verify compares the closed form against "
                              "the tensor oracle and needs odd p")
        try:
            closed = F_program(args.p, prog, "closed")
            oracle = F_program(args.p, prog, "oracle")
        except ProgramError as exc:
            raise CliError(4, str(exc))
        clean = {k: v for k, v in closed.items() if v != 0}
        if clean != {k: v for k, v in oracle.items() if v != 0}:
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
    _check_heis(args.p, g, op)
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


def _compose(f, h, key, genus, step):
    """f after h, refused when its image words would hold more than
    ``MAX_WORD_LETTERS`` letters before free reduction."""
    sizes = [len(w.letters) for w in f.images]
    count = sum(sizes[abs(x) - 1] for w in h.images for x in w.letters)
    if count > MAX_WORD_LETTERS:
        raise CliError(6, "mapping class %r of genus %d: %s composes %d "
                          "image letters, over the cap of %d"
                       % (key, genus, step, count, MAX_WORD_LETTERS))
    return f * h


def _class_from(doc, key, genus):
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
            f = _compose(f, lib[name], key, genus,
                         "twist %d (%s)" % (step, name))
        return f
    if "images" in raw:
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
    if op == "theta":
        f = _class_from(doc, "f", genus)
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
        f = _class_from(doc, "f", genus)
        h = _class_from(doc, "h", genus)
        c = cocycle_c(f, h, args.p)
        report = {"command": "mcg", "op": "cocycle", "p": args.p,
                  "g": genus, "c": c}
        if args.verify:
            _check_weil(args.p, genus, 3)
            fh = _compose(f, h, "f h", genus, "the product f h")
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
            fs = _class_from(doc, "f", genus).matrix
        _check_weil(args.p, genus, 1)
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
