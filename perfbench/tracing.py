"""Spans and counters recorded from outside the library.

The tracer wraps public entry points of the library modules (and SciPy's
bundled HiGHS) by replacing module and class attributes for the length of a
traced pass, then restores them. Nothing in the library is edited.

A span has a name, a start, an end, a parent span and a group id. Groups are
one SDDP iteration or one scenario under one policy. Very frequent leaf calls
(HiGHS bound updates, the plant model's step/cost functions) are timed and
counted as leaves: their time is charged to the enclosing span as child time,
but they are not kept as individual spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

perf_counter = time.perf_counter

# span record fields
NAME, START, END, PARENT, GROUP, LEAF = range(6)


class Tracer:
    """In-memory span store for one process; inert in forked workers."""

    def __init__(self):
        self.pid = os.getpid()
        self.t0 = perf_counter()
        self.spans: list = []
        self.groups: list = ["root"]
        self.group = 0
        self.counts: Counter = Counter()
        self.leaf_s: defaultdict = defaultdict(float)
        self.leaf_n: Counter = Counter()
        self.paused = False
        self._stack: list = []

    @property
    def active(self) -> bool:
        return not self.paused and os.getpid() == self.pid

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self.group, 0.0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def leaf(self, name: str, seconds: float):
        self.leaf_s[name] += seconds
        self.leaf_n[name] += 1
        if self._stack:
            self.spans[self._stack[-1]][LEAF] += seconds

    def new_group(self, label: str) -> int:
        self.groups.append(label)
        self.group = len(self.groups) - 1
        return self.group

    def span(self, name: str):
        return _SpanContext(self, name)

    def pause(self):
        return _Paused(self)

    def open_names(self):
        return [self.spans[i][NAME] for i in self._stack]

    def summary(self):
        """Per span name: (total seconds, self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for i, rec in enumerate(self.spans):
            dur = rec[END] - rec[START]
            total[rec[NAME]] += dur
            own[rec[NAME]] += dur - child[i] - rec[LEAF]
            calls[rec[NAME]] += 1
        return total, own, calls

    def write(self, path, meta: dict):
        """Write every span once, at the end of the run."""
        payload = {
            **meta,
            "fields": ["name", "start_s", "end_s", "parent", "group"],
            "spans": [[r[NAME], round(r[START] - self.t0, 9), round(r[END] - self.t0, 9),
                       r[PARENT], r[GROUP]] for r in self.spans],
            "groups": self.groups,
            "leaves": {name: {"calls": self.leaf_n[name], "seconds": self.leaf_s[name]}
                       for name in sorted(self.leaf_s)},
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w") as f:
            json.dump(payload, f)


class NullTracer:
    """Stands in for a tracer in untraced runs."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def pause(self):
        return contextlib.nullcontext()


class _SpanContext:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer, name):
        self.tracer, self.name, self.idx = tracer, name, None

    def __enter__(self):
        if self.tracer.active:
            self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        if self.idx is not None:
            self.tracer.close(self.idx)
        return False


class _Paused:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.prev = self.tracer.paused
        self.tracer.paused = True

    def __exit__(self, *exc):
        self.tracer.paused = self.prev
        return False


# ---------------------------------------------------------------------------
# Wrappers


def spanned(tracer: Tracer, name: str, fn, on_enter=None):
    """Wrap `fn` in a span.

    `on_enter(args, kwargs)` may switch the current group; when it returns
    True the group is scoped to this call and restored on exit.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        prev_group = tracer.group
        scoped = on_enter is not None and on_enter(args, kwargs)
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
            if scoped:
                tracer.group = prev_group

    return wrapper


def leafed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tic = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leaf(name, perf_counter() - tic)

    return wrapper


class _HighsCoreProxy:
    """Stands in for `lp._highs_core`: hands out traced solver objects."""

    def __init__(self, core, tracer):
        self._core = core
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._core, name)

    def _Highs(self):
        return _TracedHighs(self._core._Highs(), self._tracer)


class _TracedHighs:
    __slots__ = ("_h", "_tracer")

    def __init__(self, h, tracer):
        self._h = h
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._h, name)

    def run(self):
        tracer = self._tracer
        if not tracer.active:
            return self._h.run()
        idx = tracer.open("highs.warm")
        try:
            return self._h.run()
        finally:
            tracer.close(idx)
            tic = perf_counter()
            tracer.counts["highs.simplex_iters.warm"] += int(
                self._h.getInfo().simplex_iteration_count)
            tracer.leaf("trace.probe", perf_counter() - tic)

    def _bound_update(self, method, args):
        tracer = self._tracer
        if not tracer.active:
            return method(*args)
        tic = perf_counter()
        try:
            return method(*args)
        finally:
            tracer.leaf("highs.bound_update", perf_counter() - tic)

    def changeRowBounds(self, *args):
        return self._bound_update(self._h.changeRowBounds, args)

    def changeColBounds(self, *args):
        return self._bound_update(self._h.changeColBounds, args)


def _traced_pool(tracer: Tracer):
    class TracedPool(ProcessPoolExecutor):
        """Times the parent's waits on worker results and on shutdown."""

        def submit(self, *args, **kwargs):
            future = super().submit(*args, **kwargs)
            future.result = spanned(tracer, "assess.fanout.wait", future.result)
            return future

        def shutdown(self, *args, **kwargs):
            with tracer.span("assess.fanout.wait"):
                return super().shutdown(*args, **kwargs)

    return TracedPool


class Patches:
    """Attribute replacements, undone in reverse order by `restore`."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        # read through __dict__ so class attributes are restored verbatim
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def wrap(self, owner, attr, make):
        self.set(owner, attr, make(getattr(owner, attr)))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def instrument(lib, tracer: Tracer) -> Patches:
    """Wrap every traced entry point of the library; returns the undo log."""
    import scipy.optimize._linprog_highs as linprog_highs

    sc, stagelp, lp = lib.scenarios, lib.stagelp, lib.lp
    pol, assess, cfgmod = lib.policies, lib.assess, lib.config
    patches = Patches()

    def span(name, **kw):
        return lambda fn: spanned(tracer, name, fn, **kw)

    def leaf(name):
        return lambda fn: leafed(tracer, name, fn)

    patches.wrap(cfgmod, "load_config", span("config.load"))

    patches.wrap(sc, "generate_scenarios", span("scenarios.generate"))
    patches.wrap(sc, "quantize_stagewise", span("scenarios.quantize"))
    patches.wrap(sc, "lloyd_max", span("scenarios.lloyd_max"))
    patches.wrap(sc, "fit_ar", span("scenarios.fit_ar"))
    # MpcPolicy calls the name it imported into the policies module
    patches.wrap(pol, "update_forecast", span("scenarios.update_forecast"))
    for name in ("save_scenarios", "save_distributions"):
        patches.wrap(sc, name, span("io.write"))
    for name in ("load_scenarios", "load_distributions"):
        patches.wrap(sc, name, span("io.read"))
    patches.wrap(pol.ValueFunctions, "to_json", span("io.write"))
    for name in ("save", "save_costs_csv", "save_gaps_csv", "save_trajectories_csv"):
        patches.wrap(assess.AssessmentReport, name, span("io.write"))

    def iteration_start(args, kwargs):
        t = args[2] if len(args) > 2 else kwargs.get("t")
        # the forward pass builds stage 0 first, so t == 0 opens an iteration
        if t == 0 and "policies.sddp_train" in tracer.open_names():
            tracer.new_group("sddp.iteration")
        return False

    patches.wrap(stagelp.OneStageDecision, "__init__",
                 span("stagelp.one_stage.build", on_enter=iteration_start))
    patches.wrap(stagelp.OneStageDecision, "solve", span("stagelp.one_stage.solve"))
    patches.wrap(stagelp.DeterministicChain, "__init__", span("stagelp.chain.build"))
    patches.wrap(stagelp.DeterministicChain, "solve", span("stagelp.chain.solve"))
    patches.wrap(stagelp, "solve_pinned_stage", span("stagelp.pinned"))

    patches.wrap(lp, "solve", span("lp.solve"))
    patches.wrap(lp.PersistentLp, "__init__", span("lp.persistent.init"))
    patches.wrap(lp.PersistentLp, "solve", span("lp.persistent.solve"))

    def cold_highs(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open("highs.cold")
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.counts["highs.simplex_iters.cold"] += int(res.get("simplex_nit", 0) or 0)
            return res
        return wrapper

    patches.wrap(linprog_highs, "_highs_wrapper", cold_highs)
    if lp._highs_core is not None:
        patches.set(lp, "_highs_core", _HighsCoreProxy(lp._highs_core, tracer))

    def train_group(args, kwargs):
        tracer.new_group("sddp.train")
        return True

    patches.wrap(pol, "sddp_train", span("policies.sddp_train", on_enter=train_group))
    for cls, name in ((pol.SddpPolicy, "sddp"), (pol.MpcPolicy, "mpc"),
                      (pol.HeuristicPolicy, "heuristic")):
        patches.wrap(cls, "decide", span(f"policies.{name}.decide"))
    for owner in (pol, assess):
        for name in ("step", "stage_cost", "terminal_cost", "recourse"):
            if name in owner.__dict__:
                patches.wrap(owner, name, leaf("model"))

    def scenario_group(args, kwargs):
        policy = args[0] if args else kwargs.get("policy")
        tracer.new_group(f"scenario:{getattr(policy, 'name', '?')}")
        return True

    patches.wrap(assess, "simulate_policy",
                 span("assess.simulate_policy", on_enter=scenario_group))
    patches.wrap(assess, "run_assessment", span("assess.run_assessment"))
    patches.set(assess, "ProcessPoolExecutor", _traced_pool(tracer))
    return patches
