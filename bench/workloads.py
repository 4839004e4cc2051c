"""The benchmark's three workloads.

Each workload is a closed loop with one operation in flight.  A workload
object is built and set up from a seed (input generation plus a warm-up),
then ``ops()`` lists the operations of one pass, the workload's fixed work,
as (kind, operation) pairs: operations of one kind do the same work on
different data, so they cost the same.  An operation returns a list of
problems; an empty list means every output it produced was checked and
found correct.  Residuals go to the shared
``Tally`` so each run can report its worst floating-point-limited residual.

All coslab calls go through module attributes (``sp.analyze``, not a name
imported from the module) so that a traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import traceback

import numpy as np

from coslab import cli
from coslab import multipliers as mult
from coslab import sphere as sp
from coslab import starbody as sb

# verify's own tolerances: 1e-6 for quadrature identities, 1e-8 for spectral ones
TOL_QUADRATURE = 1e-6
TOL_SPECTRAL = 1e-8
# verify's multiplier identities: 40 orders on [-6, 6] and tolerance 1e-10
MULT_GRID = (40, -6.0, 6.0)
MULT_TOL = 1e-10


class Tally:
    """Operation outcomes and worst residuals, shared by all set-up repetitions."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.worst: dict[str, float] = {}

    def run(self, op) -> None:
        """Run one operation; a wrong output or an exception is a failure."""
        try:
            problems = op()
        except Exception:   # an op that raises fails; the run goes on
            problems = [traceback.format_exc(limit=-4)]
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("; ".join(problems)[:2000])

    def residual(self, key: str, value: float) -> None:
        self.worst[key] = max(self.worst.get(key, 0.0), float(value))

    def accuracy_digits(self, keys) -> float:
        """-log10 of the worst residual under ``keys``; 0 when none was measured."""
        measured = [self.worst[k] for k in keys if k in self.worst]
        if not measured:
            return 0.0
        return -math.log10(max(max(measured), 1e-17))


def sup_err(values: np.ndarray, reference: np.ndarray) -> float:
    """Sup-norm deviation, relative to the reference's scale when that exceeds 1."""
    err = float(np.max(np.abs(values - reference)))
    return err / max(1.0, float(np.max(np.abs(reference))))


# --- verify-all ---------------------------------------------------------------


class VerifyAll:
    """The work of ``coslab verify --suite all --n 2,3,5,8``, in-process.

    ``verify --suite all`` runs its jobs one after the other: the multiplier
    identities once per dimension over a 40-order grid, then the zonal, s2
    and starbody suites.  A pass does that work in pieces short enough to
    time on their own: the multiplier identities as one ``check_identities``
    call per dimension and order (against the full grid of second orders, so
    the pieces cover the same order pairs as the whole call), and each other
    suite as one ``cli.main`` call with the arguments ``--suite all`` gives it.
    """

    name = "verify-all"
    accuracy_keys = ("verify",)

    def __init__(self, seed: int, smoke: bool, tally: Tally, tracer, tmpdir: str):
        self.seed, self.tally = seed, tally
        self.out = os.path.join(tmpdir, "verify-report.json")
        # the warm-up touches every suite once at small sizes
        self.warm_args = ["--suite", "all", "--n", "2", "--jmax", "8", "--lmax", "4"]
        ns = "2" if smoke else "2,3,5,8"
        self.jmax = 8 if smoke else 200
        self.dims = [int(n) for n in ns.split(",")]
        sizes = self.warm_args[4:] if smoke else []
        self.suites = [["--suite", suite, "--n", ns, *sizes]
                       for suite in ("zonal", "s2", "starbody")]

    def setup(self) -> None:
        self.tally.run(lambda: self._verify(self.warm_args))

    def ops(self):
        grid = cli._alpha_grid(*MULT_GRID)
        # the pieces of one dimension run the same loops and make the same
        # number of scalar calls (20 710 for n = 2); only the order differs.
        # Dimensions take turns, so each kind's samples spread over the pass.
        return ([(f"multipliers.n{n}", lambda n=n, a=a: self._identities(n, a, grid))
                 for a in grid for n in self.dims]
                + [(" ".join(job), lambda job=job: self._verify(job)) for job in self.suites])

    def _identities(self, n: int, alpha: float, grid: list[float]) -> list[str]:
        reports = mult.check_identities(n, self.jmax, [alpha], MULT_TOL, beta_grid=grid)
        return self._check([r.to_dict() for r in reports])

    def _verify(self, extra: list[str]) -> list[str]:
        argv = ["verify", *extra, "--seed", str(self.seed), "--out", self.out]
        log = io.StringIO()
        with contextlib.redirect_stderr(log):
            code = cli.main(argv)
        problems = [line for line in log.getvalue().splitlines()
                    if line.startswith("FAIL")]
        if code != 0:
            problems.append(f"verify exited with {code}")
        with open(self.out) as fh:
            report = json.load(fh)
        os.remove(self.out)
        return problems + self._check(report["results"])

    def _check(self, results: list[dict]) -> list[str]:
        problems = [f"{item['identity']} failed" for item in results if not item["pass"]]
        for item in results:
            # the 2% asymptotics band and the 1e-3 alpha->0 limit are
            # truncation-limited; only floating-point-limited identities count
            if item["tolerance"] <= TOL_SPECTRAL:
                self.tally.residual("verify", item["max_rel_err"])
        if not results:
            problems.append("verify reported no identities")
        return problems

    def detail(self) -> dict:
        return {"dimensions": self.dims, "jmax": self.jmax, "orders": MULT_GRID[0],
                "suite_jobs": [" ".join(job) for job in self.suites]}


# --- s2-bandlimit -------------------------------------------------------------


class S2Bandlimit:
    """Seeded even band-limited functions through the S^2 engines at L = 16..128.

    One operation takes one function at one L through one check; a pass is
    every check of ``per_L`` functions at every L of the ladder.
    """

    name = "s2-bandlimit"
    accuracy_keys = None     # every residual below is floating-point-limited

    def __init__(self, seed: int, smoke: bool, tally: Tally, tracer, tmpdir: str):
        self.seed, self.tally, self.tracer = seed, tally, tracer
        self.ladder = (4, 8) if smoke else (16, 32, 64, 128)
        self.funk_max = 8 if smoke else 64          # funk_direct is O(L^4)
        self.per_L = 1 if smoke else 2
        self.n_points = 200 if smoke else 10_000
        self.n_nodes = 16 if smoke else 256

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.cases = {}
        for L in self.ladder:
            grid = sp.S2Grid(2 * L + 2)
            funcs = []
            for _ in range(self.per_L):
                c = _even_coeffs(L, rng)
                funcs.append((c, sp.synthesize(c, grid)))
            pts = rng.normal(size=(self.n_points, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            nodes = rng.choice(grid.n_theta * grid.n_phi, self.n_nodes, replace=False)
            pts = np.concatenate([pts, grid.points.reshape(-1, 3)[nodes]])
            self.cases[L] = (grid, funcs, pts, nodes)
        for L in self.ladder:
            for check in self.checks(L):
                self.tally.run(lambda L=L, check=check: self._op(0, L, check))

    def checks(self, L: int) -> tuple[str, ...]:
        base = ("roundtrip", "cross_engine", "synthesize_at")
        return base + ("funk_inversion",) if L <= self.funk_max else base

    def ops(self):
        return [(f"L{L}.{check}", lambda i=i, L=L, check=check: self._op(i, L, check))
                for i in range(self.per_L) for L in self.ladder for check in self.checks(L)]

    def _op(self, i: int, L: int, check: str) -> list[str]:
        grid, funcs, pts, nodes = self.cases[L]
        c, f = funcs[i]
        problems = []
        with self.tracer.span("bench.ladder", ctx=f"L{L}"):
            if check == "roundtrip":
                err = sup_err(sp.synthesize(sp.analyze(f, L), grid).values, f.values)
                tol = TOL_SPECTRAL
            elif check == "cross_engine":
                spectral = sp.synthesize(sp.apply_spectral(c, "M", alpha=1.5), grid)
                direct = sp.cosine_direct(f, 1.5, L=L)
                err, tol = sup_err(spectral.values, direct.values), TOL_QUADRATURE
            elif check == "synthesize_at":
                at = sp.synthesize_at(c, pts)
                if not np.all(np.isfinite(at)):
                    problems.append(f"synthesize_at non-finite at L={L}")
                err = sup_err(at[self.n_points:], f.values.reshape(-1)[nodes])
                tol = TOL_SPECTRAL
            else:
                funk = sp.funk_direct(f, L=L)
                back = sp.apply_spectral(sp.analyze(funk, L), "M", alpha=-1.0)
                rec = sp.synthesize(back, grid)
                err = sup_err(math.sqrt(math.pi) * rec.values, f.values)
                tol = TOL_QUADRATURE
        self.tally.residual(f"sphere.{check}_err.L{L}", err)
        if not err <= tol:
            problems.append(f"{check} residual {err:.3e} > {tol:g} at L={L}")
        return problems

    def detail(self) -> dict:
        return {"ladder": list(self.ladder), "functions_per_L": self.per_L,
                "points": self.n_points, "grid_nodes_checked": self.n_nodes}


def _even_coeffs(L: int, rng: np.random.Generator) -> "sp.HarmonicCoeffs":
    """Even band-limited coefficients with degree-j blocks scaled by (1+j)^-2."""
    coeffs = rng.uniform(-1.0, 1.0, (L + 1) ** 2)
    for j in range(L + 1):
        coeffs[j * j:(j + 1) * (j + 1)] *= 0.0 if j % 2 else (1.0 + j) ** -2.0
    return sp.HarmonicCoeffs(L, coeffs)


# --- classify-sweep -----------------------------------------------------------


class ClassifySweep:
    """``classify_K_alpha`` at the CLI defaults over the CLI's 59 orders.

    Bodies: the unit ball, seeded ellipsoids and l_p balls on the 48-latitude
    grid, their intersection bodies, and axially symmetric n = 5 ellipsoids.
    """

    name = "classify-sweep"
    accuracy_keys = ("ball",)

    def __init__(self, seed: int, smoke: bool, tally: Tally, tracer, tmpdir: str):
        self.seed, self.tally = seed, tally
        self.resolution = 16 if smoke else 48
        self.count = 1 if smoke else 2            # ellipsoids, l_p balls, n=5 bodies each
        # the CLI's default sweep: --alpha-min -3 --alpha-max 2.9 --steps 59
        self.orders = [float(a) for a in np.linspace(-3.0, 2.9, 7 if smoke else 59)]

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        res = self.resolution
        ball = sb.make_body(3, "ball", r=1.0, resolution=res)
        grid_bodies = []
        for _ in range(self.count):
            axes = rng.uniform(0.6, 1.6, 3).tolist()
            grid_bodies.append(sb.make_body(3, "ellipsoid", axes=axes, resolution=res))
        for _ in range(self.count):
            p = float(rng.uniform(1.5, 8.0))
            grid_bodies.append(sb.make_body(3, "lp_ball", p=p, resolution=res))
        zonal = []
        for _ in range(self.count):
            a, c = rng.uniform(0.6, 1.6, 2)
            zonal.append(sb.make_body(5, "ellipsoid", axes=[a] * 4 + [c], resolution=res))
        ellipsoids = grid_bodies[:self.count]
        intersection = [sb.intersection_body(b) for b in grid_bodies]
        # (body, known verdicts): "ball" checks sign and value against the closed
        # form; "member" checks "yes" at alpha = 1
        bodies = ([(ball, "ball")] + [(b, "member") for b in ellipsoids]
                  + [(b, None) for b in grid_bodies[self.count:]]
                  + [(b, "member") for b in intersection] + [(b, None) for b in zonal])
        self.ball_expected = {a: sb.ball_class_sign(3, a) for a in self.orders
                              if not mult.excluded(3, a, mult.Family.K_CLASS)}
        self.work = []
        for body, known in bodies:
            alphas = [a for a in self.orders
                      if not mult.excluded(body.n, a, mult.Family.K_CLASS)]
            if known == "member":
                alphas.append(1.0)
            self.work.append((body, known, alphas))
        # warm-up: one operation per body builds its grid's Legendre table
        for body, known, alphas in self.work:
            self.tally.run(lambda: self._op(body, known, alphas[0]))

    def ops(self):
        # the calls on one body do the same work whatever the order: the body's
        # grid or zonal rule at L = 24.  Only alpha = 1 (the member check, not
        # a sweep order) differs, as numpy's power has a shortcut for it.
        # Bodies take turns, so each kind's samples spread over the pass.
        sweeps = [[((b, alpha) if alpha == 1.0 else b,
                    lambda body=body, k=known, a=alpha: self._op(body, k, a))
                   for alpha in alphas]
                  for b, (body, known, alphas) in enumerate(self.work)]
        return [op for turn in itertools.zip_longest(*sweeps) for op in turn if op]

    def _op(self, body, known, alpha: float) -> list[str]:
        v = sb.classify_K_alpha(body, alpha)
        problems = []
        if v.member not in ("yes", "no", "inconclusive") or not math.isfinite(v.min_value):
            problems.append(f"bad verdict {v.member!r}, min {v.min_value}")
        if known == "ball":
            expected = self.ball_expected[alpha]
            err = abs(v.min_value - expected)
            dev = err / abs(expected) if abs(expected) > 1.0 else err
            self.tally.residual("ball", dev)
            if not dev <= TOL_SPECTRAL:
                problems.append(f"ball deviation {dev:.3e} at alpha={alpha}")
            if v.member != ("yes" if expected > 0 else "no"):
                problems.append(f"ball verdict {v.member} at alpha={alpha}")
        elif known == "member" and alpha == 1.0 and v.member != "yes":
            problems.append(f"{body.meta['shape']} verdict {v.member} at alpha=1")
        return problems

    def detail(self) -> dict:
        return {"bodies": [b.meta["shape"] for b, _, _ in self.work],
                "ops_per_pass": sum(len(a) for _, _, a in self.work)}


WORKLOADS = {w.name: w for w in (VerifyAll, S2Bandlimit, ClassifySweep)}
