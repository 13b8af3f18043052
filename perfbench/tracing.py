"""Span and counter tracing of weightsys, installed from outside the program.

``install`` replaces public functions of the seven weightsys modules with
wrappers.  A name is replaced in every weightsys module that holds it (for
example ``evaluation.chord_reduce`` as well as ``diagrams.chord_reduce``),
so calls made inside the program are seen.  Coarse boundaries record a span
(name, parent span, start, end), only for the outermost call when a function
recurses; hot inner functions are counted, not timed.  Spans stay in memory
and the child process that installed the tracer returns them at its end.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

MODULES = ("scalars", "diagrams", "superalgebras", "evaluation",
           "asymptotics", "characters", "cli")

# (module, attribute, span name); attribute "Class.method" wraps a method
SPANS = (
    ("scalars", "matrix_rank", "scalars.matrix_rank"),
    ("scalars", "sparse_rref", "scalars.sparse_rref"),
    ("scalars", "solve_linear_system", "scalars.solve_linear_system"),
    ("scalars", "rational_roots", "scalars.rational_roots"),
    ("scalars", "squarefree_part", "scalars.squarefree_part"),
    ("diagrams", "chi_bar", "diagrams.chi_bar"),
    ("diagrams", "chord_reduce", "diagrams.chord_reduce"),
    ("diagrams", "all_chord_diagrams", "diagrams.all_chord_diagrams"),
    ("diagrams", "one_vertex_diagrams", "diagrams.one_vertex_diagrams"),
    ("diagrams", "dim_A_by_stu", "diagrams.dim_A_by_stu"),
    ("diagrams", "dim_A_by_four_term", "diagrams.dim_A_by_four_term"),
    ("diagrams", "insert_at_vertex", "diagrams.insert_at_vertex"),
    ("superalgebras", "sl2", "superalgebras.build"),
    ("superalgebras", "d21", "superalgebras.build"),
    ("superalgebras", "validate", "superalgebras.validate"),
    ("superalgebras", "cartan_form_block", "superalgebras.cartan_form_block"),
    ("evaluation", "eval_verma", "evaluation.eval_verma"),
    ("evaluation", "eval_state_sum", "evaluation.eval_state_sum"),
    ("evaluation", "sweep_chords", "evaluation.sweep_chords"),
    ("evaluation", "adjoint_rep", "evaluation.adjoint_rep"),
    ("asymptotics", "top_coefficient", "asymptotics.top_coefficient"),
    ("asymptotics", "closed_form_check", "asymptotics.closed_form_check"),
    ("asymptotics", "find_n0", "asymptotics.find_n0"),
    ("characters", "build_P", "characters.build_P"),
    ("characters", "vanishing_table", "characters.vanishing_table"),
    ("characters", "build_D_element", "characters.build_D_element"),
    ("characters", "chi0_image_test", "characters.chi0_image_test"),
    ("characters", "chi_prime_D", "characters.chi_prime_D"),
    ("characters", "specialize_alpha", "characters.specialize_alpha"),
    ("characters", "load_family_table", "characters.load_family_table"),
    ("cli", "main", "cli.main"),
)

# (module, attribute, counter name)
COUNTS = (
    ("scalars", "MultiPoly.__mul__", "scalars.polymul_calls"),
    ("diagrams", "Diagram.canonical", "diagrams.canonical_calls"),
    ("diagrams", "_canonicalize", "diagrams.canonical_computed"),
    ("diagrams", "stu_expand", "diagrams.stu_expand_calls"),
    ("evaluation", "VermaCarrier.act", "evaluation.act_calls"),
    ("evaluation", "VermaCarrier.apply", "evaluation.apply_calls"),
    ("evaluation", "EndoCarrier.apply", "evaluation.apply_calls"),
)


def _size(value):
    terms = getattr(value, "terms", None)
    if terms is not None:
        return len(terms)
    try:
        return len(value)
    except TypeError:
        return 0


# span name -> (counter, function of (args, result) adding to it)
SPAN_COUNTS = {
    "scalars.matrix_rank": ("scalars.rank_rows", lambda a, r: len(a[0])),
    "diagrams.chi_bar": ("diagrams.chi_bar_terms", lambda a, r: _size(r)),
    "diagrams.chord_reduce": ("diagrams.chord_terms", lambda a, r: _size(r)),
    "evaluation.eval_verma": ("evaluation.value_terms", lambda a, r: _size(r)),
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, parent index or -1, start, end]
        self.stack = []
        self.active = Counter()
        self.counts = Counter()
        self.max_poly_terms = 0
        self.act_keys = set()

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1,
                           time.perf_counter(), None])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def spanned(self, fn, name):
        tracer = self
        extra = SPAN_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active[fn]:
                return fn(*args, **kwargs)
            tracer.counts[name + "_calls"] += 1
            tracer.active[fn] += 1
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer.active[fn] -= 1
            if extra:
                tracer.counts[extra[0]] += extra[1](args, result)
            return result
        return wrapper

    def counted(self, fn, name):
        counts = self.counts
        if name == "scalars.polymul_calls":
            tracer = self

            @functools.wraps(fn)
            def polymul(*args):
                counts[name] += 1
                result = fn(*args)
                size = _size(result)
                if size > tracer.max_poly_terms:
                    tracer.max_poly_terms = size
                return result
            return polymul
        if name == "evaluation.act_calls":
            keys = self.act_keys

            @functools.wraps(fn)
            def act(carrier, x, mono):
                counts[name] += 1
                keys.add((id(carrier), x, mono))
                return fn(carrier, x, mono)
            return act

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def summary(self):
        counts = dict(self.counts)
        counts["scalars.max_poly_terms"] = self.max_poly_terms
        counts["evaluation.act_distinct"] = len(self.act_keys)
        return {"spans": self.spans, "counts": counts}


def install(tracer):
    """Wrap the functions in SPANS and COUNTS in every weightsys module."""
    mods = [importlib.import_module(f"weightsys.{m}") for m in MODULES]
    by_name = dict(zip(MODULES, mods))
    for table, make in ((SPANS, tracer.spanned), (COUNTS, tracer.counted)):
        for mod_name, attr, name in table:
            mod = by_name[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                wrapped = make(orig, name)
                # aliases such as MultiPoly.__rmul__ = __mul__ share the wrapper
                for key, val in list(cls.__dict__.items()):
                    if val is orig:
                        setattr(cls, key, wrapped)
                continue
            orig = getattr(mod, attr)
            wrapped = make(orig, name)
            for other in mods:
                for key, val in list(vars(other).items()):
                    if val is orig:
                        setattr(other, key, wrapped)
