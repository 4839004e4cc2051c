"""S^2 harmonic analysis, geometric transforms, and the identity suite."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import eval_legendre

from coslab import sphere as sp
from coslab import starbody as sb
from coslab import zonal as zn
from coslab.errors import (
    ExcludedParameterError,
    GridTooCoarseError,
    OddInputError,
    QuadratureWindowError,
    RepresentationError,
)

SQRT_PI = math.sqrt(math.pi)


@pytest.fixture(scope="module")
def grid():
    return sp.S2Grid(24, 48)


@pytest.fixture(scope="module")
def even_f(grid):
    return sp.random_even_function(grid, 10, np.random.default_rng(42))


class TestGrid:
    def test_weights(self, grid):
        # each node carries its latitude weight over n_phi; the total is 1
        assert grid.wt.sum() == pytest.approx(1.0, abs=1e-14)
        assert grid.wt.shape == (24,)
        ones = sp.GridFunction(grid, np.ones((24, 48)))
        assert ones.integral() == pytest.approx(1.0, abs=1e-14)

    def test_shape_constraints(self):
        with pytest.raises(ValueError):
            sp.S2Grid(24, 24)   # n_phi < 2 n_theta
        with pytest.raises(ValueError):
            sp.S2Grid(24, 49)   # odd n_phi breaks the antipodal map

    def test_antipodal_indices_exact(self, grid):
        it, ip = grid.antipodal_indices()
        flipped = grid.points[np.ix_(it, ip)]
        assert np.abs(flipped + grid.points).max() == 0.0

    def test_band_limit(self, grid):
        assert grid.band_limit == 23


class TestAnalyzeSynthesize:
    def test_constant(self, grid):
        c = sp.analyze(sp.GridFunction(grid, np.ones((24, 48))), 8)
        assert c.get(0, 0) == pytest.approx(1.0, abs=1e-14)
        assert np.abs(c.coeffs[1:]).max() < 1e-14

    def test_z_coordinate(self, grid):
        c = sp.analyze(sp.GridFunction(grid, grid.points[..., 2]), 8)
        assert c.get(1, 0) == pytest.approx(1 / math.sqrt(3), rel=1e-13)
        rest = c.coeffs.copy()
        rest[c.index(1, 0)] = 0.0
        assert np.abs(rest).max() < 1e-14

    def test_delta_synthesis(self, grid):
        c = np.zeros(81)
        c[0] = 1.0
        f = sp.synthesize(sp.HarmonicCoeffs(8, c), grid)
        assert np.abs(f.values - 1.0).max() < 1e-14

    def test_zonal_degree_two(self, grid):
        c = np.zeros(81)
        coeffs = sp.HarmonicCoeffs(8, c)
        c[coeffs.index(2, 0)] = 1.0
        f = sp.synthesize(coeffs, grid)
        t = grid.points[..., 2]
        want = math.sqrt(5) * 0.5 * (3 * t ** 2 - 1)
        assert np.abs(f.values - want).max() < 1e-13

    def test_round_trip_and_parseval(self, grid):
        rng = np.random.default_rng(1)
        c0 = sp.HarmonicCoeffs(16, rng.uniform(-1, 1, 17 ** 2))
        f = sp.synthesize(c0, grid)
        c1 = sp.analyze(f, 16)
        assert np.abs(c1.coeffs - c0.coeffs).max() < 1e-12
        quad_energy = float(grid.wt @ (f.values ** 2).mean(axis=1))
        assert quad_energy == pytest.approx(c0.energy(), rel=1e-13)

    def test_negative_band_limit(self, grid, even_f):
        with pytest.raises(ValueError, match="band limit"):
            sp.analyze(even_f, -1)

    def test_grid_too_coarse(self, grid):
        with pytest.raises(GridTooCoarseError):
            sp.analyze(sp.GridFunction(grid, np.ones((24, 48))), 24)

    def test_synthesize_at_matches_grid(self, grid, even_f):
        c = sp.analyze(even_f, 10)
        sub = grid.points[3::5, 7::11]
        vals = sp.synthesize_at(c, sub)
        assert np.abs(vals - even_f.values[3::5, 7::11]).max() < 1e-12


# --- references: the dense-table engine and per-point recurrence this module replaced


def _ref_pair(j, m):
    return j * (j + 1) // 2 + m


def _ref_legendre(L, t):
    """P-bar_{j,m}(t) for all pairs, rows j(j+1)/2 + m, in long double."""
    t = np.asarray(t, dtype=np.longdouble)
    s = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    out = np.empty((_ref_pair(L, L) + 1, t.shape[0]), dtype=np.longdouble)
    out[0] = 1.0
    for m in range(1, L + 1):
        out[_ref_pair(m, m)] = (math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s
                                * out[_ref_pair(m - 1, m - 1)])
    for m in range(0, L):
        out[_ref_pair(m + 1, m)] = math.sqrt(2.0 * m + 3.0) * t * out[_ref_pair(m, m)]
        a_prev = math.sqrt((4.0 * (m + 1) ** 2 - 1.0) / ((m + 1) ** 2 - m ** 2))
        for j in range(m + 2, L + 1):
            a = math.sqrt((4.0 * j * j - 1.0) / (j * j - m * m))
            out[_ref_pair(j, m)] = a * (t * out[_ref_pair(j - 1, m)]
                                        - out[_ref_pair(j - 2, m)] / a_prev)
            a_prev = a
    return out.astype(float)


def _ref_trig(grid, L):
    m = np.arange(L + 1)[:, None]
    return np.cos(m * grid.phi[None, :]), np.sin(m * grid.phi[None, :])


def _ref_analyze(f, L):
    grid = f.grid
    P = _ref_legendre(L, grid.t)
    cos_t, sin_t = _ref_trig(grid, L)
    Ac = (f.values @ cos_t.T) / grid.n_phi
    As = (f.values @ sin_t.T) / grid.n_phi
    out = np.empty((L + 1) ** 2)
    for j in range(L + 1):
        base = j * j + j
        out[base] = np.sum(grid.wt * P[_ref_pair(j, 0)] * Ac[:, 0])
        for m in range(1, j + 1):
            row = P[_ref_pair(j, m)] * math.sqrt(2.0)
            out[base + m] = np.sum(grid.wt * row * Ac[:, m])
            out[base - m] = np.sum(grid.wt * row * As[:, m])
    return out


def _ref_synthesize(c, grid):
    L = c.L
    P = _ref_legendre(L, grid.t)
    cos_t, sin_t = _ref_trig(grid, L)
    Gc = np.zeros((grid.n_theta, L + 1))
    Gs = np.zeros((grid.n_theta, L + 1))
    for j in range(L + 1):
        base = j * j + j
        Gc[:, 0] += c.coeffs[base] * P[_ref_pair(j, 0)]
        for m in range(1, j + 1):
            row = P[_ref_pair(j, m)] * math.sqrt(2.0)
            Gc[:, m] += c.coeffs[base + m] * row
            Gs[:, m] += c.coeffs[base - m] * row
    return Gc @ cos_t + Gs @ sin_t


def _ref_m_components(c, pts, dtype=float):
    """(P, Q), each (L+1, npts): the series at pts rotated by phi about z is
    sum_m P[m] cos(m phi) + Q[m] sin(m phi).  Runs in ``dtype``, constants too."""
    pts = np.asarray(pts, dtype=dtype)
    t = np.clip(pts[:, 2], -1.0, 1.0)
    s = np.hypot(pts[:, 0], pts[:, 1])
    safe = s > 1e-300
    cos1 = np.where(safe, np.divide(pts[:, 0], s, where=safe, out=np.ones_like(s)), 1.0)
    sin1 = np.where(safe, np.divide(pts[:, 1], s, where=safe, out=np.zeros_like(s)), 0.0)
    L = c.L
    root = lambda num, den: np.sqrt(dtype(num) / dtype(den))
    P = np.zeros((L + 1, pts.shape[0]), dtype=dtype)
    Q = np.zeros((L + 1, pts.shape[0]), dtype=dtype)
    cos_m, sin_m, pmm = np.ones_like(t), np.zeros_like(t), np.ones_like(t)
    for m in range(L + 1):
        if m > 0:
            pmm = root(2 * m + 1, 2 * m) * s * pmm
            cos_m, sin_m = cos_m * cos1 - sin_m * sin1, sin_m * cos1 + cos_m * sin1
        acc_c, acc_s = np.zeros_like(t), np.zeros_like(t)
        p_prev2, p_prev, a_prev = np.zeros_like(t), pmm, 0.0
        for j in range(m, L + 1):
            if j == m:
                p = pmm
            elif j == m + 1:
                a_prev = root(2 * m + 3, 1)
                p = a_prev * t * pmm
            else:
                a = root(4 * j * j - 1, j * j - m * m)
                p = a * (t * p_prev - p_prev2 / a_prev)
                a_prev = a
            base = j * j + j
            acc_c += c.coeffs[base + m] * p
            if m:
                acc_s += c.coeffs[base - m] * p
            p_prev2, p_prev = p_prev, p
        if m == 0:
            P[0] = acc_c
        else:
            P[m] = root(2, 1) * (acc_c * cos_m + acc_s * sin_m)
            Q[m] = root(2, 1) * (acc_s * cos_m - acc_c * sin_m)
    return P, Q


def _ref_synthesize_at(c, points):
    pts = np.asarray(points, dtype=float)
    return _ref_m_components(c, pts.reshape(-1, 3))[0].sum(axis=0).reshape(pts.shape[:-1])


def _ref_circle_frames(points):
    """Orthonormal tangent pairs (a, b) for each unit vector in points."""
    helper = np.where(np.abs(points[:, 2:3]) < 0.9,
                      np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    a = np.cross(helper, points)
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    return a, np.cross(points, a)


def _ref_funk_direct(f, L):
    """Great-circle engine: 4L+8 trapezoid nodes on the circle of each ring's
    phi = 0 node, rotated about z by each order's ring means."""
    grid = f.grid
    n_circle = 4 * L + 8
    c = sp.HarmonicCoeffs(L, _ref_analyze(f, L))
    a, b = _ref_circle_frames(grid.points[:, 0, :])
    psi = 2.0 * np.pi * np.arange(n_circle) / n_circle
    pts = (a[:, None, :] * np.cos(psi)[None, :, None]
           + b[:, None, :] * np.sin(psi)[None, :, None])
    P, Q = _ref_m_components(c, pts.reshape(-1, 3))
    P = P.reshape(L + 1, grid.n_theta, n_circle).mean(axis=2)
    Q = Q.reshape(L + 1, grid.n_theta, n_circle).mean(axis=2)
    cos_t, sin_t = _ref_trig(grid, L)
    return P.T @ cos_t + Q.T @ sin_t


def _dev(got, ref):
    """Sup deviation, relative to the reference's scale when that exceeds 1."""
    ref = np.asarray(ref)
    if ref.size == 0:
        return 0.0
    return float(np.max(np.abs(got - ref))) / max(1.0, float(np.max(np.abs(ref))))


def _random_coeffs(L, seed):
    return sp.HarmonicCoeffs(L, np.random.default_rng(seed).uniform(-1, 1, (L + 1) ** 2))


class TestEngineAgainstReference:
    # (grid shape, band limit): square grids at L in {0, 1, 2, 7, 16, 33},
    # wide grids (n_phi > 2 n_theta) and analysis below the grid's band limit;
    # odd L and even L, whose middle order fills a folded table block alone
    CASES = [((1, 2), 0), ((2, 4), 1), ((3, 6), 2), ((8, 16), 7), ((17, 34), 16),
             ((34, 68), 33), ((6, 40), 5), ((9, 64), 8), ((20, 40), 7), ((12, 50), 3)]

    @pytest.mark.parametrize("shape,L", CASES)
    def test_analyze(self, shape, L):
        grid = sp.S2Grid(*shape)
        rng = np.random.default_rng(L)
        f = sp.GridFunction(grid, rng.uniform(-1, 1, shape))   # not band-limited
        assert _dev(sp.analyze(f, L).coeffs, _ref_analyze(f, L)) <= 1e-13

    @pytest.mark.parametrize("shape,L", CASES)
    def test_synthesize(self, shape, L):
        grid = sp.S2Grid(*shape)
        c = _random_coeffs(L, L)
        assert _dev(sp.synthesize(c, grid).values, _ref_synthesize(c, grid)) <= 1e-13

    @pytest.mark.parametrize("L", [0, 1, 2, 7, 16, 33])
    def test_synthesize_at(self, L):
        c = _random_coeffs(L, 100 + L)
        pts = np.random.default_rng(L).normal(size=(500, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        assert _dev(sp.synthesize_at(c, pts), _ref_synthesize_at(c, pts)) <= 1e-13

    def test_synthesize_at_poles_and_shapes(self):
        c = _random_coeffs(16, 5)
        poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        got = sp.synthesize_at(c, poles)
        assert np.all(np.isfinite(got))
        assert _dev(got, _ref_synthesize_at(c, poles)) <= 1e-13
        # at the poles only the m = 0 terms survive: sum_j c_{j,0} sqrt(2j+1) (+-1)^j
        js = np.arange(17)
        zonal = c.coeffs[js * (js + 1)] * np.sqrt(2 * js + 1)
        assert got == pytest.approx([zonal.sum(), (zonal * (-1.0) ** js).sum()],
                                    abs=1e-13)
        pts = np.random.default_rng(2).normal(size=(2, 3, 3))
        pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
        got = sp.synthesize_at(c, pts)
        assert got.shape == (2, 3)
        assert _dev(got, _ref_synthesize_at(c, pts)) <= 1e-13
        empty = sp.synthesize_at(c, np.empty((0, 3)))
        assert empty.shape == (0,)

    def test_synthesize_at_crosses_chunks(self, monkeypatch):
        c = _random_coeffs(7, 9)
        pts = np.random.default_rng(4).normal(size=(50, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        whole = sp.synthesize_at(c, pts)
        monkeypatch.setattr(sp, "_POINT_CHUNK", 16)
        assert np.array_equal(sp.synthesize_at(c, pts), whole)

    @pytest.mark.parametrize("L", [64, 128])
    def test_synthesize_at_long_double(self, L):
        # points off the sphere, evaluated at their directions; the reference
        # normalizes them and runs the recurrence in long double
        c = _random_coeffs(L, 200 + L)
        pts = np.random.default_rng(L).normal(size=(500, 3))
        unit = pts.astype(np.longdouble)
        unit /= np.sqrt(np.sum(unit * unit, axis=1, keepdims=True))
        ref = _ref_m_components(c, unit, np.longdouble)[0].sum(axis=0)
        assert _dev(sp.synthesize_at(c, pts), ref) <= 1e-13

    def test_synthesize_at_directions(self):
        c = _random_coeffs(9, 11)
        pts = np.random.default_rng(6).normal(size=(40, 3))
        unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        want = sp.synthesize_at(c, unit)
        for scale in (1e-200, 1e-3, 7.0, 1e200):
            assert _dev(sp.synthesize_at(c, scale * pts), want) <= 1e-14

    @pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0],
                                     [0.0, np.inf, 1.0], [1.0, -np.inf, np.nan]])
    def test_synthesize_at_rejects_points_without_direction(self, bad):
        c = sp.HarmonicCoeffs(4, np.ones(25))
        pts = np.array([[0.0, 0.0, 1.0], bad])
        with pytest.raises(ValueError, match="finite nonzero length"):
            sp.synthesize_at(c, pts)
        with pytest.raises(ValueError, match="finite nonzero length"):
            sp.synthesize_at(c, pts[1])

    def test_synthesize_at_peak_memory(self):
        # the colatitude recurrence keeps O(L^2) numbers; a table of every
        # order's rows at L = 128 would take it to ~10 MB
        c = _random_coeffs(128, 12)
        pts = np.random.default_rng(12).normal(size=(10_256, 3))
        tracemalloc.start()
        try:
            sp.synthesize_at(c, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6

    def test_pointwise_routes_use_no_grid_table(self, grid, even_f, monkeypatch):
        # synthesize_at and the oracles on it run their own recurrence;
        # radon_r1 analyzes on the grid, so its analysis is precomputed here
        c = sp.analyze(even_f, 10)
        u = np.random.default_rng(8).normal(size=(5, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        rule = sp._cosine_rule(3, 1.5, 10)
        calls = [lambda: sp.synthesize_at(c, u), lambda: sp.funk_at(c, u),
                 lambda: sp.kernel_at(c, u, *rule), lambda: sp.radon_r1(even_f, u, L=10)]
        want = [call() for call in calls]

        def forbidden(*args, **kwargs):
            raise AssertionError("grid Legendre table read")

        monkeypatch.setattr(sp, "_legendre_blocks", forbidden)
        monkeypatch.setattr(sp.S2Grid, "legendre_table", forbidden)
        monkeypatch.setattr(sp, "analyze", lambda f, L: c)
        for call, value in zip(calls, want):
            assert np.array_equal(call(), value)

    @pytest.mark.parametrize("shape,L", [((4, 8), 2), ((8, 20), 5), ((13, 26), 12),
                                         ((24, 48), 12), ((2, 4), 1), ((33, 66), 32),
                                         ((65, 130), 64)])
    def test_funk_direct(self, shape, L):
        grid = sp.S2Grid(*shape)
        f = sp.synthesize(_random_coeffs(L, 7 + L), grid)
        assert _dev(sp.funk_direct(f, L=L).values, _ref_funk_direct(f, L)) <= 1e-13

    # kernel engine -> (its output on f, the rule it hands to the Funk-Hecke apply)
    KERNEL_ENGINES = {
        "cosine0.5": lambda f, L: (sp.cosine_direct(f, 0.5, L=L), sp._cosine_rule(3, 0.5, L)),
        "cosine2.5": lambda f, L: (sp.cosine_direct(f, 2.5, L=L), sp._cosine_rule(3, 2.5, L)),
        "sine1.5": lambda f, L: (sp.sine_direct(f, 1.5, L=L), sp._sine_rule(1.5, L)),
        "ri1_1.5": lambda f, L: (sp.ri_alpha_direct(f, 1, 1.5, L=L).repr_, sp._sine_rule(1.5, L)),
        "funk": lambda f, L: (sp.funk_direct(f, L=L), (np.zeros(1), np.ones(1))),
    }

    # funk_at against the great-circle reference (engine None), and kernel_at
    # against each kernel engine; the coefficients are not even, so the
    # oracle must cancel odd degrees through its rule's +-s symmetry, which
    # the engines get by zeroing odd moments
    @pytest.mark.parametrize("shape,L,engine", [
        *(pytest.param(shape, L, None, id=f"shape{k}-{L}") for k, (shape, L) in
          enumerate([((2, 4), 1), ((4, 8), 2), ((8, 20), 7), ((17, 34), 16)])),
        *(pytest.param(shape, L, engine, id=f"{engine}-{L}")
          for engine in KERNEL_ENGINES for shape, L in [((8, 20), 7), ((17, 34), 16)])])
    def test_funk_at(self, shape, L, engine):
        grid = sp.S2Grid(*shape)
        c = _random_coeffs(L, 30 + L)
        f = sp.synthesize(c, grid)
        nodes = np.random.default_rng(L).choice(f.values.size, min(40, f.values.size),
                                                replace=False)
        normals = grid.points.reshape(-1, 3)[nodes]
        if engine is None:
            ref, got = _ref_funk_direct(f, L), sp.funk_at(c, normals)
        else:
            out, rule = self.KERNEL_ENGINES[engine](f, L)
            ref, got = out.values, sp.kernel_at(c, normals, *rule)
        assert _dev(got, ref.reshape(-1)[nodes]) <= 1e-13

    def test_legendre_table_built_once_per_n_theta_and_L(self, monkeypatch):
        calls = []
        build = sp._legendre_blocks

        def counting(L, t):
            calls.append(L)
            return build(L, t)

        monkeypatch.setattr(sp, "_legendre_blocks", counting)
        sp._legendre_table.cache_clear()
        grid = sp.S2Grid(10, 20)
        f = sp.synthesize(_random_coeffs(6, 1), grid)
        for _ in range(3):
            sp.analyze(f, 6)
            sp.synthesize(sp.analyze(f, 4), grid)
        assert calls == [6, 4]
        table = grid.legendre_table(6)
        assert not table.flags.writeable
        # another grid of the same n_theta, whatever its n_phi, builds nothing
        for n_phi in (20, 26):
            g = sp.S2Grid(10, n_phi)
            sp.analyze(sp.synthesize(sp.analyze(f, 6), g), 6)
            assert g.legendre_table(6) is table
        assert calls == [6, 4]
        # another n_theta or L builds its own table
        sp.S2Grid(11, 22).legendre_table(6)
        grid.legendre_table(5)
        assert calls == [6, 4, 6, 5]
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1.0

    def test_legendre_blocks_layout(self):
        # orders m and L-m share block min(m, L-m); its first L//2+2 rows hold
        # the rows of even j-m, the rest those of odd j-m, each ascending in j,
        # the smaller order's before the larger's; the middle order of even L
        # is held once.  From _HALF_RINGS_FROM rings on a table covers only
        # the first ceil(n_theta/2) rings: full and half coverage, odd and
        # even n_theta, odd and even L
        for n_theta, L in [(1, 0), (2, 1), (8, 7), (9, 8), (13, 12),
                           (96, 7), (97, 8), (98, 1), (99, 0), (130, 12)]:
            grid = sp.S2Grid(n_theta)
            fold = grid.legendre_table(L)
            rings = n_theta if n_theta < sp._HALF_RINGS_FROM else (n_theta + 1) // 2
            half = L // 2 + 2
            assert fold.shape == (L // 2 + 1, 2 * half, rings)
            assert not fold.flags.writeable
            ref = _ref_legendre(L, grid.t[:rings])
            filled = np.zeros(fold.shape[:2], dtype=bool)
            for m in range(L + 1):
                p = min(m, L - m)
                for parity in (0, 1):
                    js = range(m + parity, L + 1, 2)
                    ahead = 0 if m == p else len(range(p + parity, L + 1, 2))
                    rows = parity * half + ahead + np.arange(len(js))
                    want = ref[[_ref_pair(j, m) for j in js]] * (math.sqrt(2) if m else 1)
                    assert np.abs(fold[p, rows] - want).max(initial=0.0) <= 1e-14
                    assert not np.any(filled[p, rows])
                    filled[p, rows] = True
            assert not np.any(fold[~filled])            # padding rows are zero
            assert filled.sum() == (L + 1) * (L + 2) // 2


class TestHalfRingTables:
    # From _HALF_RINGS_FROM rings on a grid's Legendre table covers its first
    # ceil(n_theta/2) rings; mirrored rings follow from the parity of j-m.

    @pytest.mark.parametrize("n_theta,L", [(97, 47), (98, 48), (130, 64)])
    def test_agrees_with_full_ring_table(self, n_theta, L, monkeypatch):
        grid = sp.S2Grid(n_theta)
        assert grid.legendre_table(L).shape[-1] == (n_theta + 1) // 2
        c = _random_coeffs(L, n_theta)      # odd degrees too, so both parities count
        f = sp.synthesize(c, grid)

        def transforms():
            return [sp.synthesize(c, grid).values, sp.analyze(f, L).coeffs,
                    sp.cosine_direct(f, 1.5, L=L).values, sp.funk_direct(f, L=L).values]

        half = transforms()
        full = sp._legendre_blocks(L, grid.t)
        monkeypatch.setattr(sp, "_legendre_table", lambda n_theta, L: full)
        for got, want in zip(half, transforms()):
            assert _dev(got, want) <= 1e-14

    def test_table_size(self):
        # 16.6 MiB when it covered all 258 rings
        assert sp._legendre_table(258, 128).nbytes <= 8.5 * 2**20


class TestDegreeBlocks:
    def test_scale_degrees_bitwise_as_blockwise_loop(self):
        rng = np.random.default_rng(11)
        c = sp.HarmonicCoeffs(20, rng.normal(size=441))
        factors = rng.normal(size=21) * 10.0 ** rng.uniform(-8, 8, 21)
        want = c.coeffs.copy()
        for j in range(21):
            want[j * j:(j + 1) * (j + 1)] *= factors[j]
        assert np.array_equal(c.scale_degrees(factors).coeffs, want)
        assert np.array_equal(c.scale_degrees(list(factors)).coeffs, want)

    def test_degree_energies_and_odd_fraction(self):
        c = sp.HarmonicCoeffs(9, np.random.default_rng(12).normal(size=100))
        per_degree = [float(np.sum(c.degree_slice(j) ** 2)) for j in range(10)]
        assert c.degree_energies() == pytest.approx(per_degree, rel=1e-14)
        assert c.odd_energy_fraction() == pytest.approx(
            sum(per_degree[1::2]) / c.energy(), rel=1e-14)
        assert sp.HarmonicCoeffs(2, np.zeros(9)).odd_energy_fraction() == 0.0


class TestApplySpectral:
    def test_cosine_on_constant_block(self, grid):
        c = np.zeros(81)
        c[0] = 1.0
        out = sp.apply_spectral(sp.HarmonicCoeffs(8, c), "M", alpha=0.5)
        assert out.get(0, 0) == pytest.approx(4.0, rel=1e-12)

    def test_funk_on_degree_two(self):
        c = np.zeros(81)
        hc = sp.HarmonicCoeffs(8, c)
        c[hc.index(2, 0)] = 1.0
        out = sp.apply_spectral(hc, "Funk")
        assert out.get(2, 0) == pytest.approx(-0.5, rel=1e-12)

    def test_poisson_scales_each_degree(self):
        c = np.ones(16)
        out = sp.apply_spectral(sp.HarmonicCoeffs(3, c), "Poisson", t=0.5)
        for j in range(4):
            block = out.degree_slice(j)
            assert np.allclose(block, 0.5 ** j, atol=0)


class TestCosineDirect:
    def test_constant_values(self, grid):
        ones = sp.GridFunction(grid, np.ones((24, 48)))
        out = sp.cosine_direct(ones, 2.0)
        assert np.abs(out.values + 2 * SQRT_PI).max() < 1e-12
        out = sp.cosine_direct(ones, 0.5)
        assert np.abs(out.values - 4.0).max() < 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0, 2.5])
    def test_cross_engine(self, grid, even_f, alpha):
        direct = sp.cosine_direct(even_f, alpha, L=10)
        spec = sp.synthesize(sp.apply_spectral(sp.analyze(even_f, 10), "M",
                                               alpha=alpha), grid)
        assert np.abs(direct.values - spec.values).max() < 1e-6

    def test_window_and_exclusion(self, grid, even_f):
        with pytest.raises(QuadratureWindowError):
            sp.cosine_direct(even_f, 3.2)
        with pytest.raises(QuadratureWindowError):
            sp.cosine_direct(even_f, -0.5)
        with pytest.raises(ExcludedParameterError):
            sp.cosine_direct(even_f, 1.0)


class TestFunkDirect:
    def test_cos_squared_tilted(self, grid):
        # average of (u.e)^2 over the circle perpendicular to theta
        e = np.array([0.6, 0.0, 0.8])
        f = sp.GridFunction(grid, (grid.points @ e) ** 2)
        out = sp.funk_direct(f, L=4)
        want = (1.0 - (grid.points @ e) ** 2) / 2.0
        assert np.abs(out.values - want).max() < 1e-13

    def test_funk_at_cos_squared_tilted(self, grid):
        e = np.array([0.6, 0.0, 0.8])
        c = sp.analyze(sp.GridFunction(grid, (grid.points @ e) ** 2), 4)
        normals = np.random.default_rng(5).normal(size=(2, 20, 3))
        normals[0, :4] = [[0, 0, 1], [0, 0, -1], [1, 0, 0], e]   # both frame branches
        normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
        got = sp.funk_at(c, normals)
        assert got.shape == (2, 20)
        assert np.abs(got - (1.0 - (normals @ e) ** 2) / 2.0).max() < 1e-13
        assert sp.funk_at(c, np.empty((0, 3))).shape == (0,)

    def test_normals_taken_as_directions(self):
        c = _random_coeffs(6, 13)
        rule = sp._cosine_rule(3, 1.5, 6)
        u = np.array([[0.3, 0.4, 0.5], [0.0, 0.0, -2.0], [1e-3, -4.0, 0.2]])
        unit = u / np.linalg.norm(u, axis=1, keepdims=True)
        for oracle in (lambda n: sp.funk_at(c, n), lambda n: sp.kernel_at(c, n, *rule)):
            want = oracle(unit)
            for scale in (1e-200, 1e-3, 1.0, 3.0, 1e200):
                assert _dev(oracle(scale * u), want) <= 1e-14

    @pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [0.0, np.inf, 1.0]])
    def test_normals_without_direction_raise(self, bad):
        c = sp.HarmonicCoeffs(4, np.ones(25))
        normals = np.array([[0.0, 0.0, 1.0], bad])
        with pytest.raises(ValueError, match="normals must have finite nonzero length"):
            sp.funk_at(c, normals)
        with pytest.raises(ValueError, match="normals must have finite nonzero length"):
            sp.kernel_at(c, normals[1], *sp._cosine_rule(3, 1.5, 4))

    @pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [0.0, np.inf, 1.0]])
    def test_lines_without_direction_raise(self, grid, bad):
        f = sp.GridFunction(grid, np.ones((24, 48)))
        for line in (bad, [[0.0, 0.0, 1.0], bad]):
            with pytest.raises(ValueError, match="line must have finite nonzero length"):
                sp.radon_r1(f, line, L=4)

    def test_constant(self, grid):
        out = sp.funk_direct(sp.GridFunction(grid, np.full((24, 48), 2.5)), L=2)
        assert np.abs(out.values - 2.5).max() < 1e-13

    def test_odd_function_annihilated(self, grid):
        f = sp.GridFunction(grid, grid.points[..., 2])
        out = sp.funk_direct(f, L=4)
        assert np.abs(out.values).max() < 1e-14


class TestRadon:
    def test_r1_even_evaluates(self, grid, even_f):
        u = np.array([0.0, 0.6, 0.8])
        got = sp.radon_r1(even_f, u, L=10)
        want = sp.synthesize_at(sp.analyze(even_f, 10), u)
        assert float(got) == pytest.approx(float(want), abs=1e-12)

    def test_r1_is_the_mean_of_both_ends(self, grid):
        rng = np.random.default_rng(5)
        c = sp.HarmonicCoeffs(10, rng.uniform(-1, 1, 121))
        f = sp.synthesize(c, grid)
        u = rng.normal(size=(64, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        cf = sp.analyze(f, 10)
        for line in (u, u[0]):
            want = 0.5 * (sp.synthesize_at(cf, line) + sp.synthesize_at(cf, -line))
            got = sp.radon_r1(f, line, L=10)
            assert np.shape(got) == np.shape(want)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_r1_odd_vanishes(self, grid):
        f = sp.GridFunction(grid, grid.points[..., 0])
        got = sp.radon_r1(f, np.array([1.0, 0.0, 0.0]), L=3)
        assert abs(float(got)) < 1e-13

    def test_r1_constant(self, grid):
        f = sp.GridFunction(grid, np.ones((24, 48)))
        assert float(sp.radon_r1(f, np.array([0, 0, 1.0]), L=2)) == pytest.approx(1.0)

    def test_dual_planes_constant(self, grid):
        phi = sp.GrassmannFunctionS2("planes", sp.GridFunction(grid, np.ones((24, 48))))
        out = sp.dual_radon(phi, L=2)
        assert np.abs(out.values - 1.0).max() < 1e-13

    def test_dual_lines_is_identity(self, grid, even_f):
        phi = sp.GrassmannFunctionS2("lines", even_f)
        out = sp.dual_radon(phi)
        assert np.array_equal(out.values, even_f.values)

    def test_dual_planes_degree_two_scaling(self, grid):
        c = np.zeros(81)
        hc = sp.HarmonicCoeffs(8, c)
        c[hc.index(2, 0)] = 1.0
        g = sp.synthesize(hc, grid)
        out = sp.dual_radon(sp.GrassmannFunctionS2("planes", g), L=8)
        assert np.abs(out.values + 0.5 * g.values).max() < 1e-13

    def test_grassmann_rejects_odd(self, grid):
        f = sp.GridFunction(grid, grid.points[..., 2])
        with pytest.raises(OddInputError):
            sp.GrassmannFunctionS2("lines", f)

    def test_perp_swaps_kind(self, grid, even_f):
        phi = sp.GrassmannFunctionS2("planes", even_f)
        assert phi.perp().kind == "lines"
        assert np.array_equal(phi.perp().repr_.values, even_f.values)


class TestRiAlphaDirect:
    def test_i2_matches_cosine(self, grid, even_f):
        out = sp.ri_alpha_direct(even_f, 2, 1.5, L=10)
        assert out.kind == "planes"
        ref = sp.cosine_direct(even_f, 1.5, L=10)
        assert np.abs(out.repr_.values - ref.values).max() == 0.0

    def test_i1_constant_closed_form(self, grid):
        # value on constants: sqrt(pi) Gamma((2-a)/2) / Gamma((a+1)/2)
        ones = sp.GridFunction(grid, np.ones((24, 48)))
        for alpha in (0.5, 1.5, 2.5):
            with mpmath.workdps(40):
                want = float(mpmath.sqrt(mpmath.pi) * mpmath.gamma((2 - alpha) / 2)
                             / mpmath.gamma((alpha + 1) / 2))
            out = sp.ri_alpha_direct(ones, 1, alpha, L=4)
            assert out.kind == "lines"
            assert np.abs(out.repr_.values - want).max() < 1e-12

    def test_i1_lattice_excluded(self, grid, even_f):
        with pytest.raises(ExcludedParameterError):
            sp.ri_alpha_direct(even_f, 1, 2.0)

    @pytest.mark.parametrize("L", [16, 64, 128])
    @pytest.mark.parametrize("alpha", [0.5, 1.1, 1.5, 2.5, 2.9])
    def test_sine_rule_moments(self, alpha, L):
        # the rule's Legendre moments are the sine multipliers (zero at odd j)
        x, w = sp._sine_rule(alpha, L)
        j = np.arange(L + 1)
        want = sp.mult.table(3, j, "Q", alpha=alpha)
        got = eval_legendre(j[:, None], x) @ w
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("L", [8, 12])
    def test_order_off_the_sine_lattice(self, L):
        # alpha = 3 is off the sine lattice 2, 4, ...: both sine-kernel routes run
        # there and match the multipliers
        c = _random_coeffs(L, 80 + L)
        want = sp.apply_spectral(c, "Q", alpha=3.0).coeffs
        f = sp.synthesize(c, sp.S2Grid(L + 2))
        for got in (sp.sine_direct(c, 3.0).coeffs,
                    sp.analyze(sp.ri_alpha_direct(f, 1, 3.0, L=L).repr_, L).coeffs):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_sine_direct_agrees_with_spectral(self, grid, even_f):
        direct = sp.sine_direct(even_f, 1.5, L=10)
        spec = sp.synthesize(sp.apply_spectral(sp.analyze(even_f, 10), "Q",
                                               alpha=1.5), grid)
        assert np.abs(direct.values - spec.values).max() < 1e-12


class TestEnginesOnCoefficients:
    # the kernel engines that take coefficients, each at one admissible order
    ENGINES = {
        "cosine": lambda f, L=None: sp.cosine_direct(f, 1.5, L=L),
        "sine": lambda f, L=None: sp.sine_direct(f, 1.5, L=L),
        "funk": lambda f, L=None: sp.funk_direct(f, L=L),
    }

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("L", [0, 1, 7, 12])
    def test_same_transform_as_on_the_grid(self, engine, L):
        # the coefficients are not even: the moments zero odd degrees either way
        apply = self.ENGINES[engine]
        c = _random_coeffs(L, 60 + L)
        grid = sp.S2Grid(L + 2)
        want = sp.analyze(apply(sp.synthesize(c, grid), L=c.L), c.L)
        for got in (apply(c), apply(c, L=c.L)):
            assert isinstance(got, sp.HarmonicCoeffs) and got.L == L
            assert _dev(got.coeffs, want.coeffs) <= 1e-14
        for other in (L - 1, L + 1):
            with pytest.raises(ValueError, match=f"L={other} given with coefficients"):
                apply(c, L=other)


@pytest.mark.parametrize("call,error,says", [
    pytest.param(lambda: sp.GridFunction(sp.S2Grid(4), np.ones((4, 7))),
                 RepresentationError, "does not match grid 4x8", id="grid_shape"),
    pytest.param(lambda: sp.HarmonicCoeffs(2, np.ones(9)).index(3, 0),
                 IndexError, "outside band limit 2", id="index_degree"),
    pytest.param(lambda: sp.HarmonicCoeffs(2, np.ones(9)).index(1, -2),
                 IndexError, "outside band limit 2", id="index_order"),
    pytest.param(lambda: sp.HarmonicCoeffs.from_dict(
        {"L": 0, "ordering": "k-major", "coeffs": [1.0]}),
                 RepresentationError, "unknown ordering 'k-major'", id="ordering"),
    pytest.param(lambda: sp.radon_transform(sp.GridFunction(sp.S2Grid(4), np.ones((4, 8))), 3),
                 ValueError, "i must be 1 or 2", id="radon_i3"),
    # subspace functions hold grid functions, so the transforms that return
    # them take grid functions only
    *(pytest.param(call, RepresentationError, "need a GridFunction, got HarmonicCoeffs", id=name)
      for name, call in [
          ("grassmann_payload", lambda: sp.GrassmannFunctionS2("planes", _random_coeffs(0, 1))),
          ("ri_alpha_i1", lambda: sp.ri_alpha_direct(_random_coeffs(4, 3), 1, 1.5)),
          ("ri_alpha_i2", lambda: sp.ri_alpha_direct(_random_coeffs(4, 3), 2, 1.5)),
          ("radon_i2", lambda: sp.radon_transform(_random_coeffs(4, 3), 2))]),
])
def test_input_checks(call, error, says):
    with pytest.raises(error, match=says):
        call()


@pytest.mark.parametrize("call,says", [
    pytest.param(lambda c: sp.radon_transform(c, 1), "GridFunction", id="radon_i1"),
    pytest.param(lambda c: sp.radon_r1(c, [0.0, 0.0, 1.0]), "GridFunction", id="radon_r1"),
    pytest.param(lambda c: sp.dual_radon(c), "GrassmannFunctionS2", id="dual_radon"),
])
def test_grid_only_transforms_name_the_type(call, says):
    with pytest.raises(RepresentationError, match=f"need a {says}, got HarmonicCoeffs"):
        call(_random_coeffs(2, 5))


# engine, orders outside the direct-quadrature window (0, 3], an order on its lattice
GUARD_CASES = [
    ("cosine_direct", (-0.5, 0.0, 3.5), 1.0),
    ("sine_direct", (-0.5, 0.0, 3.5), 2.0),
    ("ri_alpha_direct_i1", (-0.5, 0.0, 3.5), 2.0),
    ("ri_alpha_direct_i2", (-0.5, 0.0, 3.5), 3.0),
    ("zonal_cosine_direct", (-0.5, 0.0, 3.5), 1.0),
    ("classify_K_alpha", (), 0.0),      # no quadrature, so no window
]


@pytest.fixture(scope="module")
def guarded():
    ones = sp.GridFunction(sp.S2Grid(8, 16), np.ones((8, 16)))
    profile = zn.ZonalFunction(3, np.array([1.0, 0.0, 0.2]))
    ball = sb.make_body(3, "ball", resolution=8)
    return {
        "cosine_direct": lambda a: sp.cosine_direct(ones, a),
        "sine_direct": lambda a: sp.sine_direct(ones, a),
        "ri_alpha_direct_i1": lambda a: sp.ri_alpha_direct(ones, 1, a),
        "ri_alpha_direct_i2": lambda a: sp.ri_alpha_direct(ones, 2, a),
        "zonal_cosine_direct": lambda a: zn.zonal_cosine_direct(3, profile, a, 0.0),
        "classify_K_alpha": lambda a: sb.classify_K_alpha(ball, a),
    }


@pytest.mark.parametrize("engine,outside,on_lattice", GUARD_CASES,
                         ids=[case[0] for case in GUARD_CASES])
def test_order_guard(guarded, engine, outside, on_lattice):
    call = guarded[engine]
    for alpha in outside:
        with pytest.raises(QuadratureWindowError):
            call(alpha)
    with pytest.raises(ExcludedParameterError, match="lattice"):
        call(on_lattice)
    call(0.5)       # an admissible order inside the window passes


class TestSerialization:
    def test_grid_function(self, grid, even_f):
        d = even_f.to_dict()
        back = sp.GridFunction.from_dict(d)
        assert np.allclose(back.values, even_f.values, atol=0)

    def test_coeffs(self):
        c = sp.HarmonicCoeffs(2, np.arange(9.0))
        back = sp.HarmonicCoeffs.from_dict(c.to_dict())
        assert back.L == 2 and np.array_equal(back.coeffs, c.coeffs)

    def test_grassmann(self, grid, even_f):
        phi = sp.GrassmannFunctionS2("planes", even_f)
        back = sp.GrassmannFunctionS2.from_dict(phi.to_dict())
        assert back.kind == "planes"
        assert np.allclose(back.repr_.values, even_f.values, atol=0)


def _funk_moment(basis):
    def perturbed(n, J, t):
        Z = basis(n, J, t)
        if not np.any(t):           # the Funk kernel's one node, s = 0
            Z[2] *= 1.0 + 1e-6
        return Z
    return perturbed


def _first_weight(eps):
    def wrap(rule):
        def perturbed(*args):
            s, w = rule(*args)
            return s, np.concatenate(([w[0] * (1.0 + eps)], w[1:]))
        return perturbed
    return wrap


def _degree2_table(family):
    def wrap(table):
        def perturbed(n, degrees, fam, **params):
            out = table(n, degrees, fam, **params)
            return np.where(np.asarray(degrees) == 2, out * (1.0 + 1e-4), out) \
                if fam == family else out
        return perturbed
    return wrap


def _degree2_analysis(analyze):
    def perturbed(f, L):
        c = analyze(f, L)
        c.coeffs[4:9] *= 1.0 + 1e-4
        return c
    return perturbed


# name -> (module, attribute perturbed, wrapper, the reports it must fail).  Each
# perturbation sits above the tolerance it targets: 1e-6 relative in the
# degree-2 Funk moment against the 1e-8 of the spectral checks, and 1e-4
# elsewhere against 1e-6.
PERTURBATIONS = {
    "funk_moment": (sp, "zonal_basis", _funk_moment,
                    ["cosine_funk_limit", "funk_factorization", "istar_chain", "istar_chain",
                     "right_inverse_forms"]),
    "cosine_weights": (sp, "_cosine_rule", _first_weight(1e-4),
                       ["cosine_funk_limit", "cosine_radon_chain", "cross_engine_cosine",
                        "range_swap", "sine_composites"]),
    "sine_weights": (sp, "_sine_rule", _first_weight(1e-4),
                     ["cosine_radon_chain", "sine_composites"]),
    "table_M": (sp.mult, "table", _degree2_table("M"),
                ["cross_engine_cosine", "funk_inversion_spectral", "radon_inversion",
                 "range_swap", "right_inverse_forms"]),
    "table_Q": (sp.mult, "table", _degree2_table("Q"),
                ["right_inverse_forms", "right_inverse_reconstruction"]),
    "table_Funk": (sp.mult, "table", _degree2_table("Funk"), ["funk_inversion_spectral"]),
    "analyze_degree2": (sp, "analyze", _degree2_analysis,
                        ["cosine_funk_limit", "cosine_radon_chain", "cross_engine_cosine",
                         "funk_factorization", "istar_chain", "istar_chain",
                         "radon_inversion", "range_swap", "right_inverse_forms",
                         "right_inverse_reconstruction", "sine_composites"]),
}


class TestSuite:
    def test_everything_passes(self):
        reports = sp.verify_s2_suite(L=12, tol=1e-6, seed=7)
        failed = [r for r in reports if not r.passed]
        assert not failed, [(r.identity, r.max_abs_err) for r in failed]

    @pytest.mark.parametrize("target,attr,perturb,must_fail",
                             [pytest.param(*row, id=name) for name, row in PERTURBATIONS.items()])
    def test_perturbation_fails_its_identities(self, monkeypatch, target, attr, perturb,
                                               must_fail):
        monkeypatch.setattr(target, attr, perturb(getattr(target, attr)))
        reports = sp.verify_s2_suite(L=8, tol=1e-6, seed=3)
        assert sorted(r.identity for r in reports if not r.passed) == must_fail

    def test_perturbations_cover_every_identity(self):
        # a check that no perturbation fails cannot fail at all
        reports = sp.verify_s2_suite(L=8, tol=1e-6, seed=3)
        covered = {name for row in PERTURBATIONS.values() for name in row[-1]}
        assert {r.identity for r in reports} == covered

    def test_analyzes_each_input_once(self, monkeypatch):
        # the engines take coefficients, so no grid function is analyzed twice
        seen = []
        analyze = sp.analyze

        def recording(f, L):
            seen.append(f.values.tobytes())
            return analyze(f, L)

        monkeypatch.setattr(sp, "analyze", recording)
        sp.verify_s2_suite(L=8, tol=1e-6, seed=3)
        assert seen and len(set(seen)) == len(seen)

    def test_deterministic_under_seed(self):
        a = sp.verify_s2_suite(L=8, tol=1e-6, seed=3)
        b = sp.verify_s2_suite(L=8, tol=1e-6, seed=3)
        assert [(r.identity, r.max_abs_err) for r in a] == \
               [(r.identity, r.max_abs_err) for r in b]
