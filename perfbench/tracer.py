"""A tracer that observes toyshtlab from outside, without editing it.

``Tracer.install`` replaces each traced public function by a timing wrapper,
rebinding the name in every ``toyshtlab`` module namespace that holds the
original, so a call that ``divisors`` makes through
``from .toysht import enumerate_toysht`` is seen as well as one made through
``toysht.enumerate_toysht``.  Registered checks are reached through
``cli.REGISTRY``, so its entries are rebound too.  ``Tracer.uninstall``
restores every binding.

Each call is one span (name, start, end, parent).  A generator gets one span
per resume, never per call, and is driven lazily: callers that stop early
(``selftest_negated``, the chart searches) still stop early.  Spans are kept
in flat arrays in memory and reduced by ``summary`` once the traced pass is
over; ``write`` stores them as a binary table.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from functools import wraps
from time import perf_counter

# (module, attribute, is a generator function); a dotted attribute names a
# method on a class of the module
TRACED = (
    ("gf", "field_make", False),
    ("linalg", "rref", False),
    ("linalg", "echelonize", False),
    ("linalg", "intersect", False),
    ("linalg", "perp", False),
    ("linalg", "enumerate_grassmannian", True),
    ("toysht", "enumerate_toysht", True),
    ("toysht", "is_toy_shtuka", False),
    ("toysht", "dichotomy_check", False),
    ("charts", "schubert_multiplicity_probe", False),
    ("charts", "jtype_flag_pullback_probe", False),
    ("charts", "rank1_curve", False),
    ("charts", "chart_equivalence_check", False),
    ("charts", "rank_le1", False),
    ("charts", "valuation_probe", False),
    ("divisors", "schubert_decomposition_check", False),
    ("divisors", "partial_frobenius_divisor_pullback_check", False),
    ("divisors", "radon_forward", False),
    ("divisors", "radon_backward", False),
    ("divisors", "incidence_lists", False),
    ("tate", "fourier", False),
    ("tate", "radon_finite", False),
    ("tate", "eps_extend", False),
    ("tate", "eps_extend_dual", False),
    ("tate", "gamma_identity_check", False),
    ("tate", "FiniteTateModel.pair_zero_table", False),
    ("cli", "run", False),
)


def _short(attr: str) -> str:
    return attr.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._nid: dict[str, int] = {}
        # one entry per span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.calls = Counter()      # calls per name (generators: objects made)
        self.yielded = Counter()    # items per generator name
        self.raised = Counter()     # (name, exception type) -> count
        self.loci: list[tuple] = []  # enumerate_toysht arguments, per call
        self._undo: list = []

    # --- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._nid:
            self._nid[name] = len(self.names)
            self.names.append(name)
        return self._nid[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    # --- wrappers ----------------------------------------------------------

    def _wrap_call(self, name: str, fn):
        nid = self._id(name)
        calls, raised, open_, close = self.calls, self.raised, self._open, self._close

        @wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            except Exception as ex:
                raised[(name, type(ex).__name__)] += 1
                raise
            finally:
                close(idx)

        return traced

    def _wrap_gen(self, name: str, fn):
        nid = self._id(name)
        tracer = self

        def drive(it):
            try:
                while True:
                    idx = tracer._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer.yielded[name] += 1
                    yield item
            finally:
                it.close()

        @wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            if name == "toysht.enumerate_toysht":
                tracer._note_locus(*args, **kwargs)
            return drive(fn(*args, **kwargs))

        return traced

    def _note_locus(self, field, N, n, *rest, **kwargs):
        self.loci.append((field.p, field.e, field.m, field.modulus, N, n))

    # --- install / uninstall -----------------------------------------------

    def _rebind_everywhere(self, orig, new) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "toyshtlab" or modname.startswith("toyshtlab.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, orig))

    def install(self) -> None:
        import toyshtlab.cli as cli

        for modname, attr, is_gen in TRACED:
            mod = sys.modules[f"toyshtlab.{modname}"]
            name = f"{modname}.{_short(attr)}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = vars(cls)[meth]
                setattr(cls, meth, self._wrap_call(name, orig))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrap = self._wrap_gen if is_gen else self._wrap_call
            self._rebind_everywhere(orig, wrap(name, orig))
        for check, fn in list(cli.REGISTRY.items()):
            cli.REGISTRY[check] = self._wrap_call(f"cli.check.{check}", fn)
            self._undo.append((cli.REGISTRY, check, fn))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._undo.clear()

    # --- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: spans, inclusive seconds and self seconds.

        Inclusive time counts only outermost spans of a name, so a function
        that re-enters itself is not counted twice; self time is a span's
        duration minus the durations of its direct children.
        """
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.span_parent
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        names = self.span_name
        spans, incl, self_s = Counter(), Counter(), Counter()
        for i in range(n):
            nid = names[i]
            spans[nid] += 1
            self_s[nid] += dur[i] - child[i]
            j = parent[i]
            while j >= 0 and names[j] != nid:
                j = parent[j]
            if j < 0:
                incl[nid] += dur[i]
        return {
            self.names[nid]: {"spans": spans[nid], "s": incl[nid], "self_s": self_s[nid]}
            for nid in spans
        }

    def write(self, path: str) -> None:
        """Store the span table: a JSON header line naming the columns and
        span names, then the four arrays as raw machine values."""
        header = {
            "names": self.names,
            "columns": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "spans": len(self.span_start),
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
