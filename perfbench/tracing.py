"""Spans and counters around the public functions of each pcells layer.

Tracing is installed from the benchmark's own files: every target below is
wrapped, and the wrapper is bound in place of the original under every name
that refers to it, in the defining module and in each ``pcells`` module that
imported the same object (methods are replaced on their class).  Timed
runs install nothing.

A span is ``[name, start, end, parent]``; parents precede their children in
the list because a span is appended when its call starts.  Spans stay in
memory and are written out once, when the job ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import resource
import sys
import time
import weakref
from collections import Counter

# Layer order follows the pipeline: group enumeration, KL table and basis
# conversions, p-tables and structure coefficients, cells, stars, type A
# combinatorics, verification suites.
LAYERS = ("coxeter", "hecke", "pcanonical", "cells", "stars", "typea", "verify")

SUITES = ("b2", "g2", "c3", "typea", "stars", "parabolic")


def _rss_mb() -> float:
    """Current resident set size of this process, in MiB."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- hooks that turn a call's result into counts ----------------------------

def _count_elements(tracer, args, result, state):
    tracer.counts["coxeter.elements"] += args[0].size


def _kl_table_pre(args):
    return _rss_mb()


def _kl_table_post(tracer, args, result, state):
    tracer.measures["hecke.kl_table_rss_mb"] += _rss_mb() - state
    tracer.counts["hecke.h_entries"] += sum(len(col) for col in result.h)
    tracer.counts["hecke.mu_nonzero"] += sum(len(col) for col in result.mu)


def _count_cells(tracer, args, result, state):
    tracer.counts["cells.cells"] += len(result.cells)


def _count_tau_rounds(tracer, args, result, state):
    tracer.counts["stars.tau_rounds"] += result.stabilized_at


def _count_checks(tracer, args, result, state):
    tracer.counts["verify.checks"] += sum(rep.checked for rep in result)


def _suite_span(args, kwargs):
    return f"verify.suite.{args[0] if args else kwargs['name']}"


# (module, attribute, span name, options).  Options: "span" False records
# calls without a span (hot, cheap functions); "distinct" also counts
# distinct arguments; "pre"/"post" hooks; "name" derives the span name from
# the arguments.
FUNCTIONS = [
    ("pcells.coxeter", "CoxeterSystem.__init__", "coxeter.enumerate",
     {"post": _count_elements}),
    ("pcells.coxeter", "CoxeterSystem.parabolic_subsystem",
     "coxeter.parabolic_subsystem", {}),
    ("pcells.hecke", "compute_kl_table", "hecke.compute_kl_table",
     {"pre": _kl_table_pre, "post": _kl_table_post}),
    ("pcells.hecke", "change_basis", "hecke.change_basis", {}),
    ("pcells.hecke", "std_multiply", "hecke.std_multiply", {}),
    ("pcells.hecke", "bar_involution", "hecke.bar_involution", {}),
    ("pcells.hecke", "kl_multiply_by_generator",
     "hecke.kl_multiply_by_generator", {"span": False}),
    ("pcells.pcanonical", "load_table", "pcanonical.load_table", {}),
    ("pcells.pcanonical", "load_fixture", "pcanonical.load_fixture", {}),
    ("pcells.pcanonical", "validate_table", "pcanonical.validate_table", {}),
    ("pcells.pcanonical", "identity_table", "pcanonical.identity_table", {}),
    ("pcells.pcanonical", "restrict_to_parabolic",
     "pcanonical.restrict_to_parabolic", {}),
    ("pcells.pcanonical", "structure_coefficients",
     "pcanonical.structure_coefficients", {"distinct": True}),
    ("pcells.pcanonical", "pcan_general_product",
     "pcanonical.pcan_general_product", {"distinct": True}),
    ("pcells.pcanonical", "verify_parabolic_factorization",
     "pcanonical.verify_parabolic_factorization", {}),
    ("pcells.cells", "compute_cells", "cells.compute_cells",
     {"post": _count_cells}),
    ("pcells.cells", "elementary_relations", "cells.elementary_relations", {}),
    ("pcells.cells", "subquotient_wgraph", "cells.subquotient_wgraph", {}),
    ("pcells.cells", "extract_wgraph", "cells.extract_wgraph", {}),
    ("pcells.cells", "verify_wgraph_relations",
     "cells.verify_wgraph_relations", {}),
    ("pcells.cells", "check_descent_invariant",
     "cells.check_descent_invariant", {}),
    ("pcells.cells", "inverse_duality_check", "cells.inverse_duality_check", {}),
    ("pcells.cells", "check_parabolic_compatibility",
     "cells.check_parabolic_compatibility", {}),
    ("pcells.cells", "propagate_nondecomposition",
     "cells.propagate_nondecomposition", {}),
    ("pcells.cells", "decomposition_criterion",
     "cells.decomposition_criterion", {}),
    ("pcells.stars", "tau_partition", "stars.tau_partition",
     {"post": _count_tau_rounds}),
    ("pcells.stars", "tau_tilde_partition", "stars.tau_tilde_partition",
     {"post": _count_tau_rounds}),
    ("pcells.stars", "check_base_change_relations",
     "stars.check_base_change_relations", {}),
    ("pcells.stars", "check_structure_coefficient_relations",
     "stars.check_structure_coefficient_relations", {}),
    ("pcells.stars", "check_string_vanishing", "stars.check_string_vanishing",
     {}),
    ("pcells.stars", "check_coefficient_sliding",
     "stars.check_coefficient_sliding", {}),
    ("pcells.stars", "star_closure_check", "stars.star_closure_check", {}),
    ("pcells.typea", "rs_correspondence", "typea.rs_correspondence", {}),
    ("pcells.typea", "inverse_rs", "typea.inverse_rs", {}),
    ("pcells.typea", "verify_typea_cell_theorem",
     "typea.verify_typea_cell_theorem", {}),
    ("pcells.verify", "run_suite", "verify.run_suite",
     {"name": _suite_span, "post": _count_checks}),
]

# Ring operations, counted only: a span per addition would cost more than
# the addition, so these are installed in a separate counting pass.
ARITHMETIC = [
    ("pcells.laurent", "LaurentPoly.__add__", "laurent.add", {"span": False}),
    ("pcells.laurent", "LaurentPoly.__mul__", "laurent.mul", {"span": False}),
    ("pcells.laurent", "LaurentPoly.__rmul__", "laurent.mul", {"span": False}),
]


class Tracer:
    """In-memory spans, call counts, distinct-argument sets and counters of
    one job."""

    def __init__(self, run_id: str, spans: bool):
        self.run_id = run_id
        self.record_spans = spans
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.distinct: dict[str, set] = {}
        self.counts: Counter = Counter()
        self.measures: Counter = Counter()
        self._serials: dict[int, int] = {}
        self._next_serial = itertools.count()
        self._alive: list = []

    # -- argument keys -------------------------------------------------------

    def _key(self, value):
        if value is None or isinstance(value, (int, str, float)):
            return value
        if isinstance(value, tuple):
            return tuple(self._key(v) for v in value)
        # Objects are identified by a serial number, dropped when the object
        # dies so that a later object reusing its id gets a new one.
        key = id(value)
        serial = self._serials.get(key)
        if serial is None:
            serial = self._serials[key] = next(self._next_serial)
            try:
                weakref.finalize(value, self._serials.pop, key, None)
            except TypeError:  # not weakly referable: keep it alive instead
                self._alive.append(value)
        return ("@", serial)

    # -- wrapping --------------------------------------------------------------

    def wrap(self, fn, name: str, options: dict):
        span = options.get("span", True) and self.record_spans
        distinct = options.get("distinct", False)
        pre, post = options.get("pre"), options.get("post")
        name_of = options.get("name")
        spans, stack, calls = self.spans, self._stack, self.calls
        if distinct:
            seen = self.distinct.setdefault(name, set())
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name_of(args, kwargs) if name_of else name
            calls[label] += 1
            if distinct:
                seen.add(tracer._key((args, tuple(sorted(kwargs.items())))))
            state = pre(args) if pre else None
            if not span:
                result = fn(*args, **kwargs)
            else:
                rec = [label, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
            if post:
                post(tracer, args, result, state)
            return result

        return wrapper

    def install(self, targets) -> None:
        """Wrap each target and rebind every reference to it."""
        for module_name, attribute, name, options in targets:
            module = sys.modules[module_name]
            owner_name, _, member = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[member]
                setattr(owner, member, self.wrap(original, name, options))
                continue
            original = getattr(module, member)
            wrapper = self.wrap(original, name, options)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "pcells"
                                       or mod_name.startswith("pcells.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    # -- output ----------------------------------------------------------------

    def exact_counts(self) -> dict[str, int]:
        """Every count that must repeat exactly across traced runs."""
        out = {f"calls.{k}": v for k, v in self.calls.items()}
        out.update({f"distinct.{k}": len(v) for k, v in self.distinct.items()})
        out.update(self.counts)
        return dict(sorted(out.items()))

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "run": self.run_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics derived from spans and counts

# metric -> span names whose outermost instances it sums
INCLUSIVE = {
    "coxeter.enumerate_s": ("coxeter.enumerate", "coxeter.parabolic_subsystem"),
    "hecke.kl_table_s": ("hecke.compute_kl_table",),
    "hecke.change_basis_s": ("hecke.change_basis",),
    "hecke.std_multiply_s": ("hecke.std_multiply",),
    "pcanonical.load_table_s": ("pcanonical.load_table",
                                "pcanonical.load_fixture"),
    "pcanonical.structure_coefficients_s": ("pcanonical.structure_coefficients",),
    "pcanonical.product_s": ("pcanonical.pcan_general_product",),
    "pcanonical.parabolic_factorization_s": (
        "pcanonical.verify_parabolic_factorization",),
    "cells.elementary_relations_s": ("cells.elementary_relations",),
    "cells.wgraph_s": ("cells.subquotient_wgraph", "cells.extract_wgraph",
                       "cells.verify_wgraph_relations"),
    "stars.tau_s": ("stars.tau_partition", "stars.tau_tilde_partition"),
    "stars.relations_s": ("stars.check_base_change_relations",
                          "stars.check_structure_coefficient_relations",
                          "stars.check_string_vanishing",
                          "stars.check_coefficient_sliding"),
    "typea.rs_s": ("typea.rs_correspondence", "typea.inverse_rs"),
    "typea.cell_theorem_s": ("typea.verify_typea_cell_theorem",),
    **{f"verify.suite_s.{s}": (f"verify.suite.{s}",) for s in SUITES},
}

# metric -> span name whose self time (minus direct children) it sums
SELF = {"cells.condense_s": "cells.compute_cells"}

# metric -> wrapped names whose calls it sums
CALLS = {
    "hecke.change_basis_calls": ("hecke.change_basis",),
    "hecke.std_multiply_calls": ("hecke.std_multiply",),
    "hecke.kl_multiply_by_generator_calls": ("hecke.kl_multiply_by_generator",),
    "pcanonical.structure_coefficients_calls": (
        "pcanonical.structure_coefficients",),
    "pcanonical.product_calls": ("pcanonical.pcan_general_product",),
    "typea.rs_calls": ("typea.rs_correspondence", "typea.inverse_rs"),
    "laurent.add_calls": ("laurent.add",),
    "laurent.mul_calls": ("laurent.mul",),
}

# metric prefix -> wrapped name with distinct-argument counting; each gives
# <prefix>_distinct and <prefix>_distinct_ratio (distinct / calls)
DISTINCT = {
    "pcanonical.structure_coefficients": "pcanonical.structure_coefficients",
    "pcanonical.product": "pcanonical.pcan_general_product",
}

COUNTS = ("coxeter.elements", "hecke.h_entries", "hecke.mu_nonzero",
          "cells.cells", "stars.tau_rounds", "verify.checks")
MEASURES = ("hecke.kl_table_rss_mb",)


def span_metrics(spans: list[list], wall_s: float,
                 scale: float = 1.0) -> dict[str, float]:
    """Inclusive, self and per-layer self times, each multiplied by scale,
    and the share of the traced wall time wall_s that no span covers."""
    n = len(spans)
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * n
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]

    def inclusive(names) -> float:
        names = set(names)
        inside = [False] * n  # some ancestor is one of the names
        total = 0.0
        for i, (name, _, _, parent) in enumerate(spans):
            if parent >= 0:
                inside[i] = inside[parent] or spans[parent][0] in names
            if name in names and not inside[i]:
                total += dur[i]
        return total

    out = {metric: inclusive(names) for metric, names in INCLUSIVE.items()}
    for metric, name in SELF.items():
        out[metric] = sum(dur[i] - child[i] for i in range(n)
                          if spans[i][0] == name)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(dur[i] - child[i] for i in range(n)
                                     if spans[i][0].split(".", 1)[0] == layer)
    out = {metric: value * scale for metric, value in out.items()}
    covered = sum(dur[i] for i in range(n) if spans[i][3] < 0)
    out["trace.uncovered_share"] = max(wall_s - covered, 0.0) / wall_s
    return out


def count_metrics(counts: dict[str, int]) -> dict[str, float]:
    """Call totals, distinct-argument ratios with their bases, counters."""
    out: dict[str, float] = {}
    for metric, names in CALLS.items():
        out[metric] = sum(counts.get(f"calls.{name}", 0) for name in names)
    for prefix, name in DISTINCT.items():
        calls = counts.get(f"calls.{name}", 0)
        distinct = counts.get(f"distinct.{name}", 0)
        out[f"{prefix}_distinct"] = distinct
        out[f"{prefix}_distinct_ratio"] = distinct / calls if calls else 0.0
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    return out
