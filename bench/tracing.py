"""Span tracer for the benchmark's traced runs.

The tracer measures each coslab layer from outside: ``install`` replaces the
public functions of ``multipliers``, ``zonal``, ``sphere``, ``starbody`` and
``cli`` (and the ``S2Grid`` constructor and Legendre-table method) with
wrappers wherever a coslab module holds a reference to them, and
``uninstall`` puts the originals back.  Nothing inside the package changes.

Every wrapped call records a span (id, name, start, end, parent, context tag,
window) in memory.  The multiplier scalars are called millions of times per
``verify`` run, so they are aggregated into a count plus total time per
window instead of spans.  A span's self time is its duration minus the time
of its child spans and of the scalar calls made directly inside it.

Windows separate the benchmark's phases: ``setup`` (input generation and
warm-up) and ``run`` (traced measurement passes).  Summaries normalize
setup-window figures per set-up repetition and run-window figures per pass.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
from time import perf_counter

LAYERS = ("multipliers", "zonal", "sphere", "starbody", "cli")

# Public functions wrapped as spans, by layer.  ``sigma``, ``excluded`` and
# ``constant`` are left out: they are cheap helpers called from inside every
# multiplier scalar, and their time stays in the caller's span.
SPAN_FUNCTIONS = {
    "multipliers": ("check_identities",),
    "zonal": ("gauss_jacobi_rule", "zonal_basis", "zonal_analyze", "zonal_synth",
              "zonal_apply", "zonal_cosine_direct", "zonal_poisson_direct",
              "verify_zonal_suite"),
    "sphere": ("analyze", "synthesize", "synthesize_at", "apply_spectral",
               "cosine_direct", "sine_direct", "funk_direct", "radon_r1",
               "radon_transform", "dual_radon", "ri_alpha_direct",
               "random_even_function", "verify_s2_suite"),
    "starbody": ("make_body", "intersection_body", "classify_K_alpha",
                 "ball_class_sign", "embeds_in_Lp", "i_intersection_pair_check",
                 "istar_chain_check", "verify_starbody_suite"),
    "cli": ("main",),
}
SCALARS = ("m_mult", "q_mult", "qpm_mult", "a_mult", "funk_mult", "poisson_mult")
S2_LADDER_FUNCTIONS = ("analyze", "synthesize", "apply_spectral", "cosine_direct",
                       "synthesize_at", "funk_direct")
SUITES = {"zonal.verify_zonal_suite": "zonal.suite_s",
          "sphere.verify_s2_suite": "sphere.suite_s",
          "starbody.verify_starbody_suite": "starbody.suite_s"}


class _Frame:
    __slots__ = ("sid", "name", "start", "parent", "ctx", "window", "child")

    def __init__(self, sid, name, start, parent, ctx, window):
        self.sid, self.name, self.start = sid, name, start
        self.parent, self.ctx, self.window = parent, ctx, window
        self.child = 0.0


class Tracer:
    """In-memory span recorder; inactive (and free) until ``install``."""

    def __init__(self):
        self.window = "setup"
        self.spans: list[tuple] = []     # (id, name, start, end, parent, ctx, window, self_s)
        self.scalars: dict[str, list] = {}   # window -> [calls, seconds, seconds in check_identities]
        self.legendre: dict[str, list] = {}  # window -> [requests, builds]
        self.rules: dict[str, list] = {}     # window -> [(n, N) per call]
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._patched: list[tuple] = []
        self._grids_seen: dict = {}          # (id(grid), L) -> grid, keeps ids unique
        self._scalar_depth = 0
        self._in_ci = 0

    @property
    def active(self) -> bool:
        return bool(self._patched)

    # --- spans -----------------------------------------------------------

    def _open(self, name: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        frame = _Frame(self._next_id, name, perf_counter(),
                       parent.sid if parent else None,
                       parent.ctx if parent else None, self.window)
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame.start
        if self._stack:
            self._stack[-1].child += duration
        self.spans.append((frame.sid, frame.name, frame.start, end, frame.parent,
                           frame.ctx, frame.window, duration - frame.child))

    def span(self, name: str, ctx: str | None = None):
        """Context manager for a benchmark-level span; ``ctx`` tags its subtree."""
        if not self.active:
            return contextlib.nullcontext()
        return self._bench_span(name, ctx)

    @contextlib.contextmanager
    def _bench_span(self, name, ctx):
        frame = self._open(name)
        if ctx is not None:
            frame.ctx = ctx
        try:
            yield
        finally:
            self._close(frame)

    # --- wrappers --------------------------------------------------------

    def _wrap_span(self, name, fn):
        is_ci = name == "multipliers.check_identities"

        def wrapper(*args, **kwargs):
            frame = self._open(name)
            if is_ci:
                self._in_ci += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if is_ci:
                    self._in_ci -= 1
                self._close(frame)
        return wrapper

    def _wrap_scalar(self, fn):
        def wrapper(*args, **kwargs):
            stats = self.scalars.setdefault(self.window, [0, 0.0, 0.0])
            stats[0] += 1
            if self._scalar_depth:          # nested scalar: time counted by the outer call
                return fn(*args, **kwargs)
            self._scalar_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._scalar_depth = 0
                stats[1] += elapsed
                if self._in_ci:
                    stats[2] += elapsed
                if self._stack:
                    self._stack[-1].child += elapsed
        return wrapper

    def _wrap_legendre(self, fn):
        spanned = self._wrap_span("sphere.S2Grid.legendre_table", fn)

        def wrapper(grid, L, *args, **kwargs):
            stats = self.legendre.setdefault(self.window, [0, 0])
            stats[0] += 1
            key = (id(grid), L)
            if key not in self._grids_seen:
                # tables are cached per grid instance and band limit, so the
                # first request for a pair is the one that builds it
                self._grids_seen[key] = grid
                stats[1] += 1
            return spanned(grid, L, *args, **kwargs)
        return wrapper

    def _wrap_rule(self, fn):
        spanned = self._wrap_span("zonal.gauss_jacobi_rule", fn)

        def wrapper(n, N, *args, **kwargs):
            self.rules.setdefault(self.window, []).append((n, N))
            return spanned(n, N, *args, **kwargs)
        return wrapper

    # --- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Replace coslab's public functions by tracing wrappers."""
        if self.active:
            return
        from coslab import multipliers, sphere

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "coslab" or name.startswith("coslab.")}
        replacements = {}
        for layer, names in SPAN_FUNCTIONS.items():
            mod = modules[f"coslab.{layer}"]
            for fname in names:
                orig = getattr(mod, fname)
                if layer == "zonal" and fname == "gauss_jacobi_rule":
                    replacements[id(orig)] = (orig, self._wrap_rule(orig))
                else:
                    replacements[id(orig)] = (orig, self._wrap_span(f"{layer}.{fname}", orig))
        for fname in SCALARS:
            orig = getattr(multipliers, fname)
            replacements[id(orig)] = (orig, self._wrap_scalar(orig))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        grid_cls = sphere.S2Grid
        for attr, wrapped in (
                ("__init__", self._wrap_span("sphere.S2Grid.__init__", grid_cls.__init__)),
                ("legendre_table", self._wrap_legendre(grid_cls.legendre_table))):
            self._patched.append((grid_cls, attr, vars(grid_cls)[attr]))
            setattr(grid_cls, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # --- summary ---------------------------------------------------------

    def _aggregate(self, window: str) -> dict:
        agg: dict[str, list] = {}
        for span in self.spans:
            if span[6] != window:
                continue
            entry = agg.setdefault(span[1], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span[3] - span[2]
            entry[2] += span[7]
        return agg

    def summary(self, setup_reps: int, traced_pass_s: list[float], traced_run_s: float,
                untraced_run_s: float, untraced_passes: int) -> dict:
        """Named per-layer metrics plus per-function tables for both windows.

        Run-window figures are per traced pass, set-up figures per set-up
        repetition.  Metrics of a layer the workload never reached are 0.
        ``traced_run_s`` and ``untraced_run_s`` are the two halves' ``run_s``.
        """
        passes = len(traced_pass_s)
        run, setup = self._aggregate("run"), self._aggregate("setup")

        def total(agg, name, col, norm):
            return agg.get(name, [0, 0.0, 0.0])[col] / norm

        sc_calls, sc_s, sc_ci_s = self.scalars.get("run", [0, 0.0, 0.0])
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in run.items():
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += self_s
        layer_self["multipliers"] += sc_s
        pass_total = sum(traced_pass_s)

        m: dict[str, float] = {
            "multipliers.scalar_calls": sc_calls / passes,
            "multipliers.scalar_s": sc_s / passes,
            "multipliers.check_identities_s": total(run, "multipliers.check_identities", 1, passes),
            "multipliers.factor_s": (sc_s - sc_ci_s) / passes,
            "sphere.analyze_s": total(run, "sphere.analyze", 1, passes),
            "sphere.synthesize_s": total(run, "sphere.synthesize", 1, passes),
        }
        for layer in LAYERS:
            m[f"{layer}.share"] = layer_self[layer] / pass_total
        m["bench.share"] = 1.0 - sum(layer_self.values()) / pass_total
        for span_name, metric in SUITES.items():
            m[metric] = total(run, span_name, 1, passes)
        m["cli.self_s"] = total(run, "cli.main", 2, passes)

        req, builds = self.legendre.get("setup", [0, 0])
        m["sphere.legendre_table_builds"] = builds / setup_reps
        m["sphere.legendre_hit_ratio"] = (req - builds) / req if req else 0.0
        m["sphere.legendre_table_s"] = total(setup, "sphere.S2Grid.legendre_table", 1, setup_reps)
        m["sphere.grid_init_s"] = total(setup, "sphere.S2Grid.__init__", 1, setup_reps)
        m["zonal.gauss_jacobi_rule_s"] = total(setup, "zonal.gauss_jacobi_rule", 1, setup_reps)
        m["starbody.intersection_body_s"] = total(setup, "starbody.intersection_body", 1,
                                                  setup_reps)
        run_rules = self.rules.get("run", [])
        m["zonal.gauss_jacobi_rule_calls"] = len(run_rules) / passes
        m["zonal.rule_reuse_ratio"] = (len(set(run_rules)) / len(run_rules)
                                       if run_rules else 0.0)
        m["zonal.gauss_jacobi_rule_run_s"] = total(run, "zonal.gauss_jacobi_rule", 1, passes)
        classify_self = [s[7] for s in self.spans
                         if s[6] == "run" and s[1] == "starbody.classify_K_alpha"]
        m["starbody.classify_self_ms"] = (1e3 * statistics.median(classify_self)
                                          if classify_self else 0.0)

        by_l: dict[str, list] = {}
        for s in self.spans:
            if s[6] == "run" and s[5] and s[1].startswith("sphere."):
                fname = s[1].split(".", 1)[1]
                if fname in S2_LADDER_FUNCTIONS:
                    by_l.setdefault(f"sphere.{fname}.{s[5]}_ms", []).append(s[3] - s[2])
        for key in sorted(by_l):
            m[key] = 1e3 * statistics.median(by_l[key])

        m["trace.overhead_frac"] = traced_run_s / untraced_run_s - 1.0

        def table(agg, norm):
            return {name: {"calls": c / norm, "incl_s": incl / norm, "self_s": s / norm}
                    for name, (c, incl, s) in sorted(agg.items())}

        return {
            "metrics": m,
            "traced_run_s": traced_run_s,
            "untraced_run_s": untraced_run_s,
            "traced_passes": passes,
            "untraced_passes": untraced_passes,
            "setup_reps": setup_reps,
            "run_functions_per_pass": table(run, passes),
            "setup_functions_per_rep": table(setup, setup_reps),
        }

    def write(self, path) -> None:
        """Write every span and counter as JSON."""
        doc = {
            "span_fields": ["id", "name", "start", "end", "parent", "ctx", "window", "self_s"],
            "spans": self.spans,
            "scalars": {w: dict(zip(("calls", "seconds", "seconds_in_check_identities"), v))
                        for w, v in self.scalars.items()},
            "legendre": {w: dict(zip(("requests", "builds"), v))
                         for w, v in self.legendre.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
