"""Per-layer tracing installed from outside the program.

`Tracer.install()` replaces the public functions and operators of each
qabel module with timing wrappers.  A function imported by name into other
modules is replaced in every `qabel.*` namespace that holds it, and both
forms of a binary operator are wrapped.  Nothing in `src/` is edited.

Two kinds of hooks:

* span hooks record one span per call (name, start, end, parent span,
  run id) in a per-thread list kept in memory until the run ends;
* hot hooks, for the `qfield` kernels and `QRat` operators that run
  millions of times, only add to a per-thread count and self time.

Self time is a call's duration minus the time of the hooked calls nested in
it.  A span's children on other threads (the checks of `verify --jobs 2`)
are subtracted at the end as the union of their intervals.  A hook whose
target is missing is skipped and reported, so later refactors that rename
a kernel lose that metric instead of failing the run.
"""
from __future__ import annotations

import itertools
import sys
import threading
import time

_perf = time.perf_counter


def _pmul_extra(args, r, ex):
    if r:
        deg = len(r) - 1
        if deg > ex.get("max_deg", -1):
            ex["max_deg"] = deg
        bits = max(max(r), -min(r)).bit_length()
        if bits > ex.get("max_bits", 0):
            ex["max_bits"] = bits


def _pgcd_extra(args, r, ex):
    f, g = args
    if len(f) <= 1 or len(g) <= 1:
        ex["trivial"] = ex.get("trivial", 0) + 1
    if r == (1,):
        ex["unit"] = ex.get("unit", 0) + 1


def _mpoly_mul_extra(args, r, ex):
    n = len(getattr(r, "_t", ()))
    if n > ex.get("terms_max", 0):
        ex["terms_max"] = n


# (layer name, module, dotted attribute names, kind, extra-stat hook).
# Each attribute is looked up in `module`; every qabel namespace binding the
# same object is patched too.
HOOKS = [
    ("qfield.pmul", "qabel.qfield", ["_pmul"], "hot", _pmul_extra),
    ("qfield.pgcd", "qabel.qfield", ["_pgcd"], "hot", _pgcd_extra),
    ("qfield.prem", "qabel.qfield", ["_prem"], "hot", None),
    ("qfield.divexact", "qabel.qfield", ["_divexact"], "hot", None),
    ("qfield.qrat.add", "qabel.qfield", ["QRat.__add__", "QRat.__radd__"], "hot", None),
    ("qfield.qrat.mul", "qabel.qfield", ["QRat.__mul__", "QRat.__rmul__"], "hot", None),
    ("qfield.qrat.new", "qabel.qfield", ["QRat.__init__"], "hot", None),
    ("qfield.qrat.str", "qabel.qfield", ["QRat.__str__"], "hot", None),
    ("mpoly.add", "qabel.mpoly", ["MPoly.__add__", "MPoly.__radd__"], "hot", None),
    ("mpoly.mul", "qabel.mpoly", ["MPoly.__mul__", "MPoly.__rmul__"], "span", _mpoly_mul_extra),
    ("mpoly.scale", "qabel.mpoly", ["MPoly.scale"], "span", None),
    ("mpoly.subst", "qabel.mpoly", ["MPoly.subst_many"], "span", None),
    ("mpoly.str", "qabel.mpoly", ["MPoly.__str__"], "span", None),
    ("series.mul", "qabel.series", ["PowerSeries.__mul__"], "span", None),
    ("series.div", "qabel.series", ["PowerSeries.__truediv__"], "span", None),
    ("series.abel_sum", "qabel.series", ["abel_sum"], "span", None),
    ("series.ps_exp", "qabel.series", ["ps_exp"], "span", None),
    ("operators.qderiv", "qabel.operators", ["qderiv"], "span", None),
    ("operators.dseries_apply", "qabel.operators", ["dseries_apply"], "span", None),
    ("operators.delta_op", "qabel.operators", ["delta_op"], "span", None),
    ("operators.Qn_apply", "qabel.operators", ["Qn_apply"], "span", None),
    ("abel.abel_poly", "qabel.abel", ["abel_poly"], "span", None),
    ("abel.abel_expand", "qabel.abel", ["abel_expand"], "span", None),
    ("abel.lagrange_coeffs", "qabel.abel", ["lagrange_coeffs"], "span", None),
    ("registry.verify", "qabel.registry", ["verify"], "span", None),
    ("registry.check", "qabel.registry", ["check_identity"], "span", None),
    ("cli.run", "qabel.cli", ["run_command"], "span", None),
    ("cli.parse", "qabel.cli", ["_build_arg_parser", "parse_expr"], "span", None),
    ("cli.render", "qabel.cli", ["Report.render"], "span", None),
]

# Spans that start a new run id: one request is one CLI command, or one
# registry check inside `verify`.
_ROOTS = ("cli.run", "registry.check")

# Extra stats merged across threads by max; the others are summed counts.
_MAXIMA = ("max_deg", "max_bits", "terms_max")

# lru_cache'd functions read through cache_info(), never wrapped for it.
CACHES = [
    ("qcomb.qint", "qabel.qcomb", "qint"),
    ("qcomb.qfac", "qabel.qcomb", "qfac"),
    ("qcomb.qbinom", "qabel.qcomb", "qbinom"),
    ("abel.abel_poly", "qabel.abel", "abel_poly"),
]


class _ThreadState:
    __slots__ = ("stack", "stats", "extras", "spans", "thread")

    def __init__(self):
        # stack entries: [child_time, span_id, run_id]
        self.stack: list[list] = []
        self.stats: dict[str, list] = {}
        self.extras: dict[str, dict] = {}
        self.spans: list[tuple] = []
        self.thread = threading.get_ident()


class Tracer:
    def __init__(self, hooks=HOOKS):
        self._hooks = hooks
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._outer_span = None  # parent for spans opened on a fresh thread
        self.patched: list[tuple[str, str]] = []  # (layer, "module.attr")
        self.missing: list[tuple[str, str]] = []
        self.cache_fns: dict[str, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def _hot(self, name, fn, extra):
        state = self._state

        def wrapper(*args, **kw):
            st = state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [0.0, parent[1] if parent else None, parent[2] if parent else None]
            stack.append(frame)
            t0 = _perf()
            try:
                r = fn(*args, **kw)
            finally:
                dt = _perf() - t0
                stack.pop()
                if parent is not None:
                    parent[0] += dt
                s = st.stats.get(name)
                if s is None:
                    s = st.stats[name] = [0, 0.0]
                s[0] += 1
                s[1] += dt - frame[0]
            if extra is not None:
                ex = st.extras.get(name)
                if ex is None:
                    ex = st.extras[name] = {}
                extra(args, r, ex)
            return r

        return wrapper

    def _span(self, name, fn, extra):
        state = self._state
        ids = self._ids
        root = name in _ROOTS
        outer = name == "registry.verify"

        def wrapper(*args, **kw):
            st = state()
            stack = st.stack
            if stack:
                parent = stack[-1]
                parent_id, run_id = parent[1], parent[2]
            else:
                parent = None
                parent_id, run_id = self._outer_span, None
            span_id = next(ids)
            if root or run_id is None:
                run_id = span_id
            frame = [0.0, span_id, run_id]
            stack.append(frame)
            if outer:
                self._outer_span = span_id
            t0 = _perf()
            try:
                r = fn(*args, **kw)
            finally:
                t1 = _perf()
                dt = t1 - t0
                stack.pop()
                if parent is not None:
                    parent[0] += dt
                s = st.stats.get(name)
                if s is None:
                    s = st.stats[name] = [0, 0.0]
                s[0] += 1
                s[1] += dt - frame[0]
                st.spans.append((run_id, span_id, parent_id, name, t0, t1, dt - frame[0]))
            if extra is not None:
                ex = st.extras.get(name)
                if ex is None:
                    ex = st.extras[name] = {}
                extra(args, r, ex)
            # cli.parse covers building the argparse parser and running it
            if name == "cli.parse" and hasattr(r, "parse_args"):
                r.parse_args = self._span("cli.parse", r.parse_args, None)
            return r

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {k: m for k, m in sys.modules.items() if k == "qabel" or k.startswith("qabel.")}
        for layer, modname, attrs, kind, extra in self._hooks:
            make = self._hot if kind == "hot" else self._span
            for dotted in attrs:
                where = f"{modname}.{dotted}"
                owner, attr = _resolve_owner(mods.get(modname), dotted)
                orig = owner.__dict__.get(attr) if owner is not None else None
                if orig is None or not callable(orig):
                    self.missing.append((layer, where))
                    continue
                wrapped = make(layer, orig, extra)
                self._patch(owner, attr, wrapped)
                self.patched.append((layer, where))
                if isinstance(owner, type):
                    continue
                for other in mods.values():
                    if other is not owner:
                        for k, v in list(vars(other).items()):
                            if v is orig:
                                self._patch(other, k, wrapped)
        for label, modname, attr in CACHES:
            fn = getattr(mods.get(modname), attr, None)
            # abel_poly is wrapped above; read the cache through the original
            for owner, name, orig in self._undo:
                if owner is mods.get(modname) and name == attr:
                    fn = orig
            if fn is not None and hasattr(fn, "cache_info"):
                self.cache_fns[label] = fn
            else:
                self.missing.append((label, f"{modname}.{attr}.cache_info"))

    def _patch(self, owner, attr, value) -> None:
        for o, a, _ in self._undo:
            if o is owner and a == attr:
                break
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Merged per-layer counts, self times, extras and cache figures."""
        stats: dict[str, list] = {}
        extras: dict[str, dict] = {}
        for st in self._states:
            for name, (calls, self_s) in st.stats.items():
                acc = stats.setdefault(name, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s
            for name, ex in st.extras.items():
                acc = extras.setdefault(name, {})
                for k, v in ex.items():
                    acc[k] = max(acc.get(k, 0), v) if k in _MAXIMA else acc.get(k, 0) + v
        spans = self.spans()
        names = {s[1]: s[3] for s, _ in spans}
        for sid, covered in _cross_thread_cover(spans).items():
            stats[names[sid]][1] -= covered
        check_busy = 0.0
        verify_dur = 0.0
        for s, _ in spans:
            if s[3] == "registry.check":
                check_busy += s[5] - s[4]
            elif s[3] == "registry.verify":
                verify_dur += s[5] - s[4]
        caches = {}
        for label, fn in self.cache_fns.items():
            info = fn.cache_info()
            caches[label] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
        return {
            "stats": {k: {"calls": v[0], "self_s": v[1]} for k, v in stats.items()},
            "extras": extras,
            "caches": caches,
            "concurrency": check_busy / verify_dur if verify_dur else 0.0,
            "patched": [list(p) for p in self.patched],
            "missing": [list(m) for m in self.missing],
            "span_count": len(spans),
        }

    def spans(self) -> list[tuple[tuple, int]]:
        out = []
        for st in self._states:
            out.extend((s, st.thread) for s in st.spans)
        return out

    def write_spans(self, path: str) -> None:
        import json

        spans = self.spans()
        cover = _cross_thread_cover(spans)
        with open(path, "w") as fh:
            for s, tid in spans:
                run_id, span_id, parent_id, name, t0, t1, self_s = s
                self_s -= cover.get(span_id, 0.0)
                fh.write(json.dumps({"run": run_id, "id": span_id, "parent": parent_id, "name": name,
                                     "start": t0, "end": t1, "self_s": self_s, "thread": tid}) + "\n")


def _resolve_owner(module, dotted: str):
    """(object holding the last attribute, attribute name) or (None, name)."""
    if module is None:
        return None, dotted
    parts = dotted.split(".")
    owner = module
    for p in parts[:-1]:
        owner = getattr(owner, p, None)
        if owner is None:
            return None, parts[-1]
    return owner, parts[-1]


def _cross_thread_cover(spans) -> dict[int, float]:
    """For each span with children on other threads (the checks of
    `verify --jobs 2`, which are not on its stack), the part of its interval
    those children cover, by span id."""
    by_id = {s[1]: (s, tid) for s, tid in spans}
    cross: dict[int, list] = {}
    for s, tid in spans:
        p = by_id.get(s[2])
        if p is not None and p[1] != tid:
            cross.setdefault(s[2], []).append((s[4], s[5]))
    return {sid: _union(ivs, by_id[sid][0][4], by_id[sid][0][5]) for sid, ivs in cross.items()}


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
