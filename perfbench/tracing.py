"""Spans around calls into the abtqft modules, recorded from outside.

``Tracer.installed()`` replaces module attributes (and ``CycNum`` methods)
by timing wrappers and restores the originals on exit.  Every reference
to a wrapped function is replaced, including names re-imported into
other modules (``surgery.eta_kappa``, ``cobordism.induced_map_oracle``,
``cli.z_invariant``), so a call is seen whichever module makes it.

A span record is ``[name, start, end, parent, job, calls, total]``.  The
hot L0 arithmetic (``ROLLUP``) is recorded as one aggregated record per
(parent, name) with its call count and summed duration, so memory stays
bounded on jobs that make millions of ``CycNum`` operations.  Self time
is computed afterwards by ``self_times``: a record's total minus the
totals of the records whose parent it is.
"""

import contextlib
import functools
import importlib
from collections import Counter
from time import perf_counter

MODULES = ("cyclotomic", "homology", "heisenberg", "surgery", "cobordism",
           "mcg", "cli")

# span name -> (module, attribute paths of the originals)
TARGETS = {
    "cyclotomic.mul": ("cyclotomic", ("CycNum.__mul__",)),
    "cyclotomic.add": ("cyclotomic", ("CycNum.__add__", "CycNum.__sub__",
                                      "CycNum.__rsub__")),
    "cyclotomic.inverse": ("cyclotomic", ("CycNum.inverse",)),
    "cyclotomic.exponent_sum": ("cyclotomic", ("exponent_sum",)),
    "cyclotomic.eta_kappa": ("cyclotomic", ("eta_kappa",)),
    "cyclotomic.to_complex": ("cyclotomic", ("to_complex",)),
    "surgery.z_invariant": ("surgery", ("z_invariant",)),
    "surgery.refined_invariant": ("surgery", ("refined_invariant",)),
    "surgery.matrix_element": ("surgery", ("matrix_element",)),
    "surgery.signature": ("surgery", ("signature",)),
    "heisenberg.induced_map_oracle": ("heisenberg", ("induced_map_oracle",)),
    "heisenberg.commutant_dim": ("heisenberg", ("commutant_dim",)),
    "heisenberg.monomial_of": ("heisenberg", ("monomial_of",)),
    "homology.correspondence": ("homology", ("cylinder_correspondence",
                                             "index1_correspondence",
                                             "index2_correspondence")),
    "homology.hnf": ("homology", ("hnf",)),
    "cobordism.F_program": ("cobordism", ("F_program",)),
    "cobordism.compose_maps": ("cobordism", ("compose_maps",)),
    "cobordism.validate": ("cobordism", ("validate",)),
    "mcg.weil_intertwiner": ("mcg", ("weil_intertwiner",)),
    "mcg.weil_H": ("mcg", ("weil_H",)),
    "mcg.projective_defect": ("mcg", ("projective_defect",)),
    "mcg.cocycle_c": ("mcg", ("cocycle_c",)),
    "mcg.theta": ("mcg", ("theta",)),
}

ROLLUP = frozenset({"cyclotomic.mul", "cyclotomic.add", "cyclotomic.inverse",
                    "cyclotomic.exponent_sum", "cyclotomic.to_complex"})

FIELDS = ("name", "start", "end", "parent", "job", "calls", "total")
NAME, START, END, PARENT, JOB, CALLS, TOTAL = range(len(FIELDS))


def _p_prime(p):
    return p if p % 2 else p // 2


# Work counts derived from a call's arguments: name -> f(args, ok) giving
# {counter: amount}.  Colorings follow the enumeration ranges in surgery;
# tensor pairs and relation rows follow the oracle's construction.

def _count_z_invariant(args, ok):
    p, B = args[0], args[1]
    return {"surgery.colorings": _p_prime(p) ** len(B)}


def _count_matrix_element(args, ok):
    p, B, fixed = args[0], args[1], args[2]
    return {"surgery.colorings": _p_prime(p) ** (len(B) - len(fixed))}


def _count_refined(args, ok):
    # each color runs over one parity class of Z/p', and p' is even
    # whenever a refinement exists, so every class has p'/2 values
    p, B = args[0], args[1]
    return {"surgery.colorings": (_p_prime(p) // 2) ** len(B)}


def _count_oracle(args, ok):
    p, corr = args[0], args[1]
    pp = _p_prime(p)
    pairs = pp ** (2 * corr.g_minus + corr.g_plus)
    return {"heisenberg.tensor_pairs": pairs,
            "heisenberg.relation_rows": 2 * corr.g_minus * pairs,
            "heisenberg.surviving": pp ** corr.g_plus if ok else 0}


def _count_weil(args, ok):
    ctx = args[1]
    return {"mcg.averaging_terms": ctx.p_prime ** (4 * ctx.g)}


COUNTERS = {
    "surgery.z_invariant": _count_z_invariant,
    "surgery.matrix_element": _count_matrix_element,
    "surgery.refined_invariant": _count_refined,
    "heisenberg.induced_map_oracle": _count_oracle,
    "mcg.weil_intertwiner": _count_weil,
}


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Collects spans and derived counts while installed."""

    def __init__(self, extra=(), scan=()):
        # scan: further modules whose references to wrapped functions are
        # replaced too, such as the benchmark's own job code
        self.scan = tuple(scan)
        # extra: (span name, importable module, attribute) triples wrapped
        # as well, e.g. the json functions the CLI calls
        self.extra = tuple(extra)
        self.records = []
        self.counts = Counter()
        self.job = None
        self._stack = [None]
        self._rollup_index = {}

    # -- recording ------------------------------------------------------

    def _wrap(self, name, fn):
        records = self.records
        stack = self._stack
        counts = self.counts
        counter = COUNTERS.get(name)
        rollup = name in ROLLUP
        rollup_index = self._rollup_index

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            start = perf_counter()
            if rollup:
                key = (parent, name)
                idx = rollup_index.get(key)
                if idx is None:
                    idx = len(records)
                    rollup_index[key] = idx
                    records.append([name, start, start, parent, self.job,
                                    0, 0.0])
            else:
                idx = len(records)
                records.append([name, start, start, parent, self.job, 1,
                                0.0])
            stack.append(idx)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                rec = records[idx]
                rec[END] = end
                rec[TOTAL] += end - start
                if rollup:
                    rec[CALLS] += 1
                if counter is not None:
                    counts.update(counter(args, ok))

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of a with block."""
        modules = {m: importlib.import_module("abtqft." + m) for m in MODULES}
        wrappers = {}
        for name, (mod, paths) in TARGETS.items():
            for path in paths:
                owner, attr = _resolve(modules[mod], path)
                original = owner.__dict__[attr]
                wrappers[id(original)] = (original, self._wrap(name, original))
        owners = (list(modules.values()) + [modules["cyclotomic"].CycNum]
                  + list(self.scan))
        saved = []
        try:
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        saved.append((owner, attr, value))
                        setattr(owner, attr, hit[1])
            for name, modname, attr in self.extra:
                owner = importlib.import_module(modname)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def layer_totals(records):
    """{name: (calls, self seconds, inclusive seconds)} over records."""
    out = {}
    for rec, own in zip(records, self_times(records)):
        calls, s, inc = out.get(rec[NAME], (0, 0.0, 0.0))
        out[rec[NAME]] = (calls + rec[CALLS], s + own, inc + rec[TOTAL])
    return out


def self_times(records):
    """Self time of each record: its total minus its children's totals."""
    own = [rec[TOTAL] for rec in records]
    for rec in records:
        parent = rec[PARENT]
        if parent is not None:
            own[parent] -= rec[TOTAL]
    return own
