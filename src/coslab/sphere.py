"""Full harmonic analysis and geometric transforms on the 2-sphere.

The grid is Gauss-Legendre in cos(theta) times equiangular longitudes, so
analysis/synthesis of band-limited functions is exact.  The harmonic basis
is real and orthonormal with respect to the probability measure; storage
is j-major with k ascending from -j to j.  Grid analysis and synthesis run
one real FFT per latitude ring and one batched matrix product over all
longitudinal orders: each grid's Legendre table is stored folded, orders
m and L-m sharing one block whose rows are sorted by the parity of j-m
(see :func:`_fold_layout`), so the triangle of per-order blocks fills a
rectangle and every order goes through the same product.  The Gauss nodes
are mirrored, t_(n-1-r) = -t_r, and P-bar_{j,m}(-t) = (-1)^(j-m) P-bar_{j,m}(t),
so a grid of at least _HALF_RINGS_FROM rings keeps rows at its first
ceil(n/2) rings only: even-parity rows meet the sums of mirrored rings and
odd-parity rows their differences, which halves the table and the product.
One recurrence, :func:`_diagonal_rows`, runs
along the diagonals j = m + k for all orders at once: in long double at
the Gauss nodes for the tables, and in float at L+2 colatitudes for
evaluation at arbitrary points, which reads its coefficients from the
same folded layout but no table.  One real FFT turns those samples into a
Fourier series in colatitude for each order; a series of even degrees
keeps only its even frequencies, since P-bar_{j,m}(cos theta) has
frequencies of the parity of j.  Per chunk of points, one matrix product
for the even orders and one for the odd ones give the longitude amplitudes,
and one product-sum against cos(m phi), sin(m phi) adds them up.
Table-vs-point agreement thus compares two routes: different nodes,
different precision, no shared table.

Subspace-valued functions (lines through the origin, planes through the
origin) are carried as even functions on the sphere: a line is keyed by
its direction vector, a plane by its unit normal.  Swapping a line for its
orthogonal plane is then a pure re-labelling of the same data, which is
how the perpendicular-subspace maps below are implemented.

Direct (kernel-quadrature) engines never use the gamma closed forms of
:mod:`coslab.multipliers` for the operator action.  A kernel K(theta . u)
scales degree j by its Legendre moment (Funk-Hecke), which a Gauss-Jacobi
rule absorbing the weight (|s|^(alpha-1) or (1-s^2)^((alpha-2)/2)) gives
exactly for band-limited input; the cosine rule is the zonal oracle's,
``zonal._cosine_rule`` at n = 3, and the Funk kernel is a point mass at
s = 0.  So the engines scale coefficients, and analyze and synthesize around
that for a grid function (:func:`_funk_hecke`).  :func:`kernel_at` takes the
same rules pointwise: it integrates the series over the circles
theta . u = s of each node, through :func:`synthesize_at` instead of the grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import multipliers as mult
from .zonal import (_POINT_CHUNK, _check_direct_order, _cosine_rule, _gauss_rule,
                    _unit_scaled, gauss_jacobi_rule, zonal_basis)
from .errors import (
    GridTooCoarseError,
    OddInputError,
    RepresentationError,
    integer_field,
)
from .reports import IdentityReport, make_report

__all__ = [
    "S2Grid",
    "GridFunction",
    "HarmonicCoeffs",
    "GrassmannFunctionS2",
    "analyze",
    "synthesize",
    "synthesize_at",
    "apply_spectral",
    "cosine_direct",
    "sine_direct",
    "funk_direct",
    "funk_at",
    "kernel_at",
    "radon_r1",
    "radon_transform",
    "dual_radon",
    "ri_alpha_direct",
    "random_even_function",
    "verify_s2_suite",
]

# --- grid and data types -----------------------------------------------------


class S2Grid:
    """Gauss-Legendre (colatitude) x equiangular (longitude) sphere grid.

    Latitude weights ``wt`` are probability-normalized; each longitude
    carries 1/n_phi of them.  n_phi must be even (the antipodal map must be
    grid-exact) and at least 2*n_theta.
    """

    def __init__(self, n_theta: int, n_phi: int | None = None):
        if n_phi is None:
            n_phi = 2 * n_theta
        if n_theta < 1 or n_phi < 2 * n_theta or n_phi % 2:
            raise ValueError(
                f"need n_phi even and >= 2*n_theta, got {n_theta}x{n_phi}")
        self.n_theta = n_theta
        self.n_phi = n_phi
        rule = gauss_jacobi_rule(3, n_theta)    # refined Gauss-Legendre
        self.t = rule.nodes                     # ascending cos(theta)
        self.wt = rule.weights                  # latitude weights, sum 1
        self.phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        st = np.sqrt(1.0 - self.t * self.t)
        # build cos/sin by mirroring the first half so the antipodal map
        # (theta, phi) -> (pi - theta, phi + pi) is exact on the grid
        half = n_phi // 2
        cphi = np.empty(n_phi)
        sphi = np.empty(n_phi)
        cphi[:half] = np.cos(self.phi[:half])
        sphi[:half] = np.sin(self.phi[:half])
        cphi[half:] = -cphi[:half]
        sphi[half:] = -sphi[:half]
        self.points = np.empty((n_theta, n_phi, 3))
        self.points[..., 0] = st[:, None] * cphi[None, :]
        self.points[..., 1] = st[:, None] * sphi[None, :]
        self.points[..., 2] = self.t[:, None]
        self.phi.flags.writeable = self.points.flags.writeable = False    # functions share grids

    @property
    def band_limit(self) -> int:
        """Largest degree this grid analyzes exactly."""
        return min(self.n_theta - 1, (self.n_phi - 1) // 2)

    def __eq__(self, other) -> bool:
        return (isinstance(other, S2Grid)
                and other.n_theta == self.n_theta and other.n_phi == self.n_phi)

    def __hash__(self):
        return hash((self.n_theta, self.n_phi))

    def legendre_table(self, L: int) -> np.ndarray:
        """Real-basis associated Legendre values at the latitude nodes, folded.

        Shape (L//2+1, 2 (L//2+2), rings): block p holds orders p and L-p,
        the rows with j-m even in its first L//2+2 rows and those with j-m
        odd in the rest, each ascending in j, order p's before order L-p's;
        the rows :func:`_fold_layout` gives no (j, m) are zero.  For even L the
        middle block holds order L/2 once.  Below _HALF_RINGS_FROM rings a
        table covers every ring; from there on only the first ceil(n_theta/2),
        whose mirrors follow from the parity of j-m.  Rows of m >= 1 carry
        sqrt(2) as in the real basis.  Built in extended precision: analysis
        noise in these values is amplified by strongly order-negative
        multipliers downstream.  Read-only, and shared by every grid with
        this n_theta.
        """
        return _legendre_table(self.n_theta, L)

    def antipodal_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Index maps sending each node to its antipode (exact on this grid)."""
        it = np.arange(self.n_theta)[::-1]
        ip = (np.arange(self.n_phi) + self.n_phi // 2) % self.n_phi
        return it, ip


def _diagonal_rows(L: int, t: np.ndarray, s: np.ndarray):
    """Yield P-bar_{m+k,m}(t), orders m = 0..L-k, for each diagonal k = 0..L in turn.

    Normalized by (1/2) int P-bar^2 dt = 1, no Condon-Shortley phase; s is
    sqrt(1 - t^2).  Diagonal 0 is P-bar_{m,m} = prod_{i<=m} sqrt((2i+1)/(2i)) s;
    the three-term recurrence in j gives each later one from the two before.
    All runs in the dtype of t, constants too (from exact integers).  Each
    yielded (L+1-k, len(t)) array feeds the next step: callers only read it.
    """
    dt = t.dtype
    m = np.arange(L + 1)
    step = np.sqrt(np.asarray(2 * m + 1, dt) / np.asarray(np.maximum(2 * m, 1), dt))
    step = step[:, None] * s
    step[0] = 1.0
    prev = np.cumprod(step, axis=0)
    yield prev
    j = m + np.arange(1, L + 1)[:, None]
    a_diag = np.sqrt(np.asarray(4 * j * j - 1, dt) / np.asarray(j * j - m * m, dt))  # row k-1
    prev2, a_prev = np.zeros_like(prev), np.ones((L + 1, 1), dtype=dt)
    for k in range(1, L + 1):
        n = L + 1 - k                       # orders m with a degree j = m + k <= L
        a = a_diag[k - 1, :n, None]
        cur = t * prev[:n]
        cur -= prev2[:n] / a_prev[:n]
        cur *= a
        yield cur
        prev2, prev, a_prev = prev, cur, a


# Grids of this many rings or more keep Legendre rows at half their rings.
# Pairing the mirrored rings costs a few numpy calls per transform, which
# the halved product repays only on larger grids.  An analyze + synthesize
# pair at L = n_theta/2 - 1 against the same pair on a full-ring table, one
# BLAS thread, median of 60 alternating rounds on a 2-core host: 66 rings
# +11 %, 82 +3 %, 90 -1 %, 96 +1 %, 98 -2 %, 130 -10 %, 258 -24 %.  The
# crossover lies near 96; the grids of 48 rings that the headline verify
# and the class sweeps use stay on the full-ring product.
_HALF_RINGS_FROM = 96


@functools.lru_cache(maxsize=8)
def _legendre_table(n_theta: int, L: int) -> np.ndarray:
    """:meth:`S2Grid.legendre_table` per (n_theta, L), which fix a grid's nodes.

    The one place that decides ring coverage: every ring below
    _HALF_RINGS_FROM, the first ceil(n_theta/2) from there on.
    """
    t = gauss_jacobi_rule(3, n_theta).nodes
    return _legendre_blocks(L, t if n_theta < _HALF_RINGS_FROM else t[:(n_theta + 1) // 2])


def _legendre_blocks(L: int, t: np.ndarray) -> np.ndarray:
    """P-bar_{j,m}(t), folded as in :meth:`S2Grid.legendre_table`.

    The rows of :func:`_diagonal_rows`, run in long double, land in the
    folded float table (sqrt(2) applied for m >= 1 before rounding) on the
    rows :func:`_fold_layout` gives each order and parity.
    """
    ld = np.longdouble
    t = np.asarray(t, dtype=ld)
    s = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    start = _fold_layout(L).start
    scale = np.where(np.arange(L + 1) > 0, np.sqrt(ld(2)), ld(1))[:, None]
    table = np.zeros((L // 2 + 1, 2 * (L // 2 + 2), t.shape[0]))
    flat = table.reshape(-1, t.shape[0])
    for k, rows in enumerate(_diagonal_rows(L, t, s)):
        n = rows.shape[0]
        flat[start[k % 2, :n] + k // 2] = scale[:n] * rows
    table.flags.writeable = False           # shared by every grid of its n_theta
    return table


@dataclass
class GridFunction:
    """Real function sampled on an S2Grid."""

    grid: S2Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_theta, self.grid.n_phi):
            raise RepresentationError(
                f"values shape {self.values.shape} does not match grid "
                f"{self.grid.n_theta}x{self.grid.n_phi}")

    def integral(self) -> float:
        """Mean against the probability measure."""
        return float(self.grid.wt @ self.values.mean(axis=1))

    def antipodal(self) -> "GridFunction":
        it, ip = self.grid.antipodal_indices()
        return GridFunction(self.grid, self.values[np.ix_(it, ip)])

    def even_part(self) -> "GridFunction":
        return GridFunction(self.grid, 0.5 * (self.values + self.antipodal().values))

    def odd_energy_fraction(self) -> float:
        scaled = GridFunction(self.grid, _unit_scaled(self.values))
        odd = 0.5 * (scaled.values - scaled.antipodal().values)
        total = float(self.grid.wt @ (scaled.values ** 2).mean(axis=1))
        if total == 0.0:
            return 0.0
        return float(self.grid.wt @ (odd ** 2).mean(axis=1)) / total

    def to_dict(self) -> dict:
        return {
            "grid": {"n_theta": self.grid.n_theta, "n_phi": self.grid.n_phi},
            "values": [float(v) for v in self.values.ravel()],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridFunction":
        n_theta, n_phi = (integer_field(d["grid"], key) for key in ("n_theta", "n_phi"))
        vals = np.asarray(d["values"], dtype=float)
        # checked before the grid is built, which costs an n_theta x n_theta eigenproblem
        if vals.shape != (n_theta * n_phi,):
            raise RepresentationError(
                f"need {n_theta * n_phi} values for grid {n_theta}x{n_phi}, "
                f"got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise RepresentationError("grid function values must be finite")
        return cls(S2Grid(n_theta, n_phi), vals.reshape(n_theta, n_phi))


@dataclass
class HarmonicCoeffs:
    """Real orthonormal harmonic coefficients, j-major, k from -j to j."""

    L: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.L < 0:
            raise RepresentationError(f"band limit must be >= 0, got {self.L}")
        if self.coeffs.shape != ((self.L + 1) ** 2,):
            raise RepresentationError(
                f"need {(self.L + 1) ** 2} coefficients for L={self.L}, "
                f"got shape {self.coeffs.shape}")

    def index(self, j: int, k: int) -> int:
        if not (0 <= j <= self.L and -j <= k <= j):
            raise IndexError(f"(j,k)=({j},{k}) outside band limit {self.L}")
        return j * j + (k + j)

    def get(self, j: int, k: int) -> float:
        return float(self.coeffs[self.index(j, k)])

    def degree_slice(self, j: int) -> np.ndarray:
        return self.coeffs[j * j:(j + 1) * (j + 1)]

    def degrees(self) -> np.ndarray:
        """Degree j of each coefficient, in storage order."""
        js = np.arange(self.L + 1)
        return np.repeat(js, 2 * js + 1)

    def scale_degrees(self, factors) -> "HarmonicCoeffs":
        """Multiply each degree block by a scalar; factors has length L+1."""
        factors = np.asarray(factors, dtype=float)
        return HarmonicCoeffs(self.L, self.coeffs * factors[self.degrees()])

    def degree_energies(self) -> np.ndarray:
        """Coefficient energy of each degree block, shape (L+1,)."""
        return np.bincount(self.degrees(), weights=self.coeffs ** 2,
                           minlength=self.L + 1)

    def energy(self) -> float:
        return float(np.sum(self.coeffs ** 2))

    def odd_energy_fraction(self) -> float:
        total = self.energy()
        if total == 0.0:
            return 0.0
        return float(self.degree_energies()[1::2].sum()) / total

    def to_dict(self) -> dict:
        return {
            "L": self.L,
            "ordering": "j-major,k-ascending",
            "coeffs": [float(c) for c in self.coeffs],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HarmonicCoeffs":
        if d.get("ordering") != "j-major,k-ascending":
            raise RepresentationError(f"unknown ordering {d.get('ordering')!r}")
        coeffs = np.asarray(d["coeffs"], dtype=float)
        if not np.all(np.isfinite(coeffs)):
            raise RepresentationError("harmonic coefficients must be finite")
        return cls(integer_field(d, "L"), coeffs)


def _check_type(obj, cls: type) -> None:
    """RepresentationError naming both types unless obj is a cls."""
    if not isinstance(obj, cls):
        raise RepresentationError(f"need a {cls.__name__}, got {type(obj).__name__}")


@dataclass
class GrassmannFunctionS2:
    """Even function on S^2 keyed as lines (directions) or planes (normals)."""

    kind: str
    repr_: GridFunction

    def __post_init__(self):
        if self.kind not in ("lines", "planes"):
            raise ValueError(f"kind must be 'lines' or 'planes', got {self.kind!r}")
        _check_type(self.repr_, GridFunction)
        if self.repr_.odd_energy_fraction() > 1e-12:
            raise OddInputError("subspace functions must be even on the sphere")

    def perp(self) -> "GrassmannFunctionS2":
        """Orthogonal-complement map: swap kinds, keep the data."""
        other = "planes" if self.kind == "lines" else "lines"
        return GrassmannFunctionS2(other, self.repr_)

    def to_dict(self) -> dict:
        d = self.repr_.to_dict()
        d["kind"] = self.kind
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GrassmannFunctionS2":
        return cls(d["kind"], GridFunction.from_dict(d))


# --- analysis / synthesis ----------------------------------------------------


def _check_resolution(grid: S2Grid, L: int) -> None:
    if grid.n_theta < L + 1 or grid.n_phi < 2 * L + 1:
        raise GridTooCoarseError(
            f"grid {grid.n_theta}x{grid.n_phi} cannot resolve band limit {L}")


class _Fold(NamedTuple):
    """Index maps of the folded layout at one band limit; see :func:`_fold_layout`."""

    orders: np.ndarray          # (L//2+1, 2): the orders p and L-p of block p
    start: np.ndarray           # (2, L+1): table row of P-bar_{m+k,m} is start[k%2, m] + k//2
    slots: np.ndarray           # ((L+1)^2,): flat position of each coefficient
    to_spectrum: np.ndarray     # ((L+1)^2,): 1 if m = 0, else 1/2 (cosine), -1/2 (sine)


@functools.lru_cache(maxsize=32)
def _fold_layout(L: int) -> _Fold:
    """Where each order and each coefficient sits in the folded layout.

    Orders m and L-m share block p = min(m, L-m) of the folded Legendre
    table (:meth:`S2Grid.legendre_table`), whose 2 (L//2+2) rows, blocks
    flattened, hold first the rows of even j-m, then those of odd j-m;
    within each parity order p's rows come first and order L-p's after
    them, each ascending in j.  ``start`` gives the row of P-bar_{m,m}
    (k = 0) and of P-bar_{m+1,m} (k = 1); the rows of one parity are
    consecutive.  In a (L//2+1, 2 (L//2+2), 4) array of the same rows, a
    block's first order keeps its cosine and sine coefficient pair in
    columns 0 and 1, its second order in columns 2 and 3; ``slots`` gives
    the flat position there of each coefficient, j-major as in
    :class:`HarmonicCoeffs`.  ``to_spectrum`` takes a coefficient to its
    share of the spectrum that the inverse real FFT sums: a - i b for
    a cos(m phi) + b sin(m phi), halved for m >= 1.
    """
    m = np.arange(L + 1)
    second = 2 * m > L
    rows = L // 2 + 2                                # per parity and block
    # order m's block, parity section, and the rows of order L-m ahead of it:
    # (L-p)//2 + 1 even and (L-p+1)//2 odd ones for the second order m = L-p
    ahead = np.where(second, np.stack((m // 2 + 1, (m + 1) // 2)), 0)
    start = 2 * rows * np.minimum(m, L - m) + np.array([[0], [rows]]) + ahead
    j = np.repeat(m, 2 * m + 1)
    k = np.arange((L + 1) ** 2) - j * (j + 1)       # c_{j,k}: order |k|, sine if k < 0
    mk = np.abs(k)
    fold = _Fold(orders=np.stack((m[:L // 2 + 1], L - m[:L // 2 + 1]), axis=1),
                 start=start,
                 slots=4 * (start[(j - mk) % 2, mk] + (j - mk) // 2) + 2 * second[mk] + (k < 0),
                 to_spectrum=np.where(k == 0, 1.0, 0.5 * np.sign(k)))
    for a in fold:
        a.flags.writeable = False           # shared by every caller
    return fold


def _packed(c: HarmonicCoeffs, scale) -> np.ndarray:
    """c.coeffs * scale in the folded (L//2+1, 2 (L//2+2), 4) layout of :func:`_fold_layout`."""
    L = c.L
    packed = np.zeros((L // 2 + 1, 2 * (L // 2 + 2), 4))
    packed.reshape(-1)[_fold_layout(L).slots] = c.coeffs * scale
    return packed


def analyze(f: GridFunction, L: int) -> HarmonicCoeffs:
    """Project onto the orthonormal harmonic basis (exact for band-limited f).

    One real FFT per latitude ring gives the weighted longitude means of
    f cos(m phi) and f sin(m phi).  Set side by side per block of the
    folded Legendre table (orders p and L-p), they go through one batched
    product with the table, which gives every order's degree-j
    coefficients.  On a half-ring table the means of each ring and its
    mirror are first added, for the rows of even j-m, and subtracted, for
    the odd ones; an odd grid's equator ring pairs with itself, so its sum
    is halved.
    """
    if L < 0:
        raise ValueError(f"band limit must be >= 0, got {L}")
    grid = f.grid
    _check_resolution(grid, L)
    fold = grid.legendre_table(L)
    layout = _fold_layout(L)
    spec = np.fft.rfft(f.values, axis=1)
    h = fold.shape[-1]
    if h < grid.n_theta:                    # (parity, ring, m): ring + mirror, ring - mirror
        near, far = spec[:h, :L + 1], spec[:-h - 1:-1, :L + 1]
        spec = np.empty((2, h, L + 1), dtype=complex)
        np.add(near, far, out=spec[0])
        np.subtract(near, far, out=spec[1])
        if grid.n_theta % 2:
            spec[0, -1] *= 0.5              # the equator ring is its own mirror
    ring = np.take(spec, layout.orders, axis=-1)
    np.conjugate(ring, out=ring)            # (..., ring, block, order): cosine + i sine mean
    ring *= (grid.wt[:h] / grid.n_phi)[:, None, None]
    if h == grid.n_theta:
        out = fold @ ring.view(float).transpose(1, 0, 2)
    else:
        out = fold.reshape(fold.shape[0], 2, -1, h) @ ring.view(float).transpose(2, 0, 1, 3)
    return HarmonicCoeffs(L, out.reshape(-1)[layout.slots])


def synthesize(c: HarmonicCoeffs, grid: S2Grid) -> GridFunction:
    """Pointwise sum of the basis series on the grid.

    The coefficients, packed per block of the folded Legendre table
    (orders p and L-p side by side, zeros elsewhere), go through one
    batched product with the table; it gives each ring's cos(m phi) and
    sin(m phi) amplitudes, and one inverse real FFT per ring sums them.
    On a half-ring table the product gives, at each stored ring, the sums
    E over even j-m and O over odd j-m; the ring takes E + O and its
    mirror E - O.
    """
    L = c.L
    _check_resolution(grid, L)
    fold = grid.legendre_table(L)
    packed = _packed(c, _fold_layout(L).to_spectrum)
    blocks, h = fold.shape[0], fold.shape[-1]
    if h == grid.n_theta:
        amp = fold.transpose(0, 2, 1) @ packed
    else:                                   # (block, parity, ring, 4) as (block, E then O rings, 4)
        amp = (fold.reshape(blocks, 2, -1, h).transpose(0, 1, 3, 2)
               @ packed.reshape(blocks, 2, -1, 4)).reshape(blocks, 2 * h, 4)
    amp = amp.view(complex)                 # (block, ring, order)
    spec = np.zeros((grid.n_theta, grid.n_phi // 2 + 1), dtype=complex)
    sums = spec if h == grid.n_theta else np.empty((2 * h, L + 1), dtype=complex)  # E, then O
    sums[:, :L // 2 + 1] = amp[:, :, 0].T   # orders p
    sums[:, L // 2 + 1:L + 1] = amp[:(L + 1) // 2, :, 1][::-1].T     # orders L-p
    if h < grid.n_theta:
        np.add(sums[:h], sums[h:], out=spec[:h, :L + 1])
        np.subtract(sums[:h], sums[h:], out=spec[:-h - 1:-1, :L + 1])  # equator: O = 0
    return GridFunction(grid, np.fft.irfft(spec, n=grid.n_phi, axis=1, norm="forward"))


def _frequencies(c: HarmonicCoeffs) -> int:
    """The step of the colatitude frequencies 0, step, ... <= L the series holds.

    P-bar_{j,m}(cos theta) is a trigonometric polynomial in theta whose
    frequencies k all have the parity of j.  If every odd-degree
    coefficient is exactly 0, only k = 0, 2, ... occur and the step is 2;
    otherwise it is 1.
    """
    return 1 if np.any(c.coeffs[c.degrees() % 2 == 1]) else 2


def _colatitude_samples(c: HarmonicCoeffs, step: int) -> np.ndarray:
    """Each order's amplitudes g_m, h_m at the L+2 colatitudes pi q/(L+1).

    Shape (order, cos/sin amplitude, q); see :func:`_colatitude_series`.
    Step k of :func:`_diagonal_rows`, run in float, adds each order's row
    P-bar_{m+k,m}, times its pair of coefficients, to that order's
    amplitudes for the parity of k, so no table of rows is kept and the
    working memory is O(L^2).  In the folded layout of :func:`_packed`,
    seen as (cos/sin, 2 x row + [2m > L]), that pair is column
    2 start[k%2, m] + [2m > L] + 2 (k//2).  With step 2 (even degrees
    only, :func:`_frequencies`) only the orders m = k mod 2 have a degree
    m + k that holds coefficients, so only they are added.  The
    recurrence runs on the northern colatitudes q <= (L+1)/2 only:
    P-bar_{j,m}(-t) = (-1)^(j-m) P-bar_{j,m}(t) gives the southern ones
    from the two parity sums.
    """
    L = c.L
    h = (L + 3) // 2                        # q <= (L+1)/2: the equator too when L is odd
    theta = np.pi * np.arange(h) / (L + 1)
    m = np.arange(L + 1)
    real = np.full((L + 1) ** 2, math.sqrt(2.0))
    real[m * (m + 1)] = 1.0                 # c_{j,0}; the real basis has sqrt(2) for m >= 1
    pairs = _packed(c, real).reshape(-1, 2).T
    first = 2 * _fold_layout(L).start + (2 * m > L)
    acc = np.zeros((2, 2, L + 1, h))        # (parity of k, cos/sin, order, colatitude)
    for k, rows in enumerate(_diagonal_rows(L, np.cos(theta), np.sin(theta))):
        held = slice(k % step, rows.shape[0], step)            # orders whose degree m + k is held
        acc[k % 2, :, held] += pairs[:, first[k % 2, held] + 2 * (k // 2), None] * rows[held]
    g = np.empty((L + 1, 2, L + 2))
    g[..., :h] = (acc[0] + acc[1]).transpose(1, 0, 2)
    g[..., h:] = (acc[0] - acc[1]).transpose(1, 0, 2)[..., L + 1 - h::-1]
    return g


def _colatitude_series(c: HarmonicCoeffs, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Fourier coefficients in theta of each order's amplitudes of the series.

    Order m contributes g_m(theta) cos(m phi) + h_m(theta) sin(m phi), with
    g_m, h_m = sum_j c_{j,+-m} P-bar_{j,m}(cos theta) (times sqrt(2) for
    m >= 1).  Each is a cosine polynomial of degree <= L in theta for even
    m and a sine polynomial for odd m, so its samples at the L+2
    colatitudes pi q/(L+1), extended to [0, 2 pi) by
    g_m(2 pi - theta) = (-1)^m g_m(theta), give its coefficients exactly
    through one real FFT.  The samples come from the diagonal recurrence
    of :func:`_colatitude_samples`.

    Returns (even, odd) at the frequencies k = 0, step, ... <= L of
    :func:`_frequencies`: rows 2i and 2i+1 of ``even`` (shape
    (2 x orders, frequencies)) hold the cos(k theta) coefficients of g_m
    and h_m for m = 2i; rows 2i and 2i+1 of ``odd`` hold the sin(k theta)
    coefficients, at those of the frequencies that are >= 1, for m = 2i+1.
    """
    L = c.L
    g = np.empty((L + 1, 2, 2 * L + 2))     # (order, cos/sin amplitude, colatitude)
    g[..., :L + 2] = _colatitude_samples(c, step)
    g[..., L + 2:] = g[..., L:0:-1] * (-1.0) ** np.arange(L + 1)[:, None, None]   # at 2 pi - theta
    spec = np.fft.rfft(g)[..., :L + 1]
    spec /= L + 1
    spec[..., 0] *= 0.5
    even = spec[0::2, :, ::step].real
    odd = -spec[1::2, :, step::step].imag     # sin(0 theta) = 0: from k = step on
    return tuple(np.ascontiguousarray(a.reshape(2 * a.shape[0], a.shape[2])) for a in (even, odd))


def _unit_powers(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows z^k, k = 0..len(out)-1, of unit complex numbers z, written to out.

    Rows 1..b times z^b fill rows b+1..2b.
    """
    top = out.shape[0] - 1
    out[0] = 1.0
    out[1:2] = z
    b = 1
    while b < top:
        n = min(b, top - b)
        np.multiply(out[1:n + 1], out[b], out=out[b + 1:b + n + 1])
        b += n
    return out


def _lengths(pts: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(|(x, y)|, |p|) of each row p of pts, by hypot (no overflow or underflow).

    A non-finite row or one of zero length raises ValueError naming ``name``.
    """
    rho = np.hypot(pts[:, 0], pts[:, 1])
    r = np.hypot(rho, pts[:, 2])
    bad = ~(np.isfinite(r) & (r > 0.0))
    if np.any(bad):
        raise ValueError(f"{name} must have finite nonzero length, got {pts[bad][0]}")
    return rho, r


# Fewest points in a chunk of synthesize_at: below a few hundred columns its
# products lose speed, and each chunk costs ~20 numpy calls whatever its size
_MIN_CHUNK = 256


def synthesize_at(c: HarmonicCoeffs, points: np.ndarray) -> np.ndarray:
    """Evaluate the series at the directions p/|p| of points p (shape (..., 3)).

    A non-finite point or one of zero length raises ValueError.  Independent
    of the grid tables: the series is first written as a Fourier series in
    colatitude for each order (:func:`_colatitude_series`, which runs
    :func:`_diagonal_rows` in float at L+2 colatitudes), at only the
    frequencies k = 0, step, ... it holds (:func:`_frequencies`): every
    other one for a series of even degrees, which halves its rows.  At
    each point, e^(i theta) and e^(i phi) come from the point's own
    coordinates, once per call, and powers of them give e^(i k theta) and
    e^(i m phi).  Per chunk of points one matrix product gives the
    cos(m phi) and sin(m phi) amplitudes of the even orders and one those
    of the odd orders, and one product-sum against cos(m phi) and sin(m phi),
    laid out as the amplitudes' rows, adds them up.  A chunk has
    _POINT_CHUNK / (L+1) points but at least _MIN_CHUNK, so each (L+1)-row
    block holds about _POINT_CHUNK numbers up to L = 63 and
    _MIN_CHUNK x (L+1) above.  Its three buffers are allocated once per
    call, and e^(i m phi) reuses the one of e^(i k theta).
    """
    L = c.L
    pts = np.asarray(points, dtype=float)
    shape = pts.shape[:-1]
    pts = pts.reshape(-1, 3)
    n = pts.shape[0]
    rho, r = _lengths(pts, "points")
    step = _frequencies(c)
    cos_series, sin_series = _colatitude_series(c, step)
    z = (pts[:, 2] + 1j * rho) / r          # e^(i theta)
    w = np.divide(pts[:, 0] + 1j * pts[:, 1], rho, where=rho > 0.0,
                  out=np.ones(n, dtype=complex))            # e^(i phi)
    size = max(_MIN_CHUNK, _POINT_CHUNK // (L + 1))
    width = min(size, n)
    even_m = L // 2 + 1                     # orders 0, 2, ..., then 1, 3, ...
    n_cos, n_sin = cos_series.shape[1], sin_series.shape[1]
    # flat buffers, each chunk's blocks contiguous views into them: e^(i k theta)
    # and then e^(i m phi); the real rows of the products and then
    # cos(m phi), sin(m phi) laid out as amp's rows; the amplitudes
    powers = np.empty((L + 1) * width, dtype=complex)
    rows = np.empty(2 * (L + 1) * width)
    amps = np.empty(2 * (L + 1) * width)
    out = np.empty(n)
    for lo in range(0, n, size):
        chunk = slice(lo, lo + size)
        cols = min(size, n - lo)
        zc, wc = z[chunk], w[chunk]
        colat = _unit_powers(zc ** step, powers[:n_cos * cols].reshape(n_cos, cols))
        cos_rows = rows[:n_cos * cols].reshape(n_cos, cols)
        sin_rows = rows[n_cos * cols:(n_cos + n_sin) * cols].reshape(n_sin, cols)
        np.copyto(cos_rows, colat.real)
        np.copyto(sin_rows, colat[1:].imag)                     # from frequency step on
        amp = amps[:2 * (L + 1) * cols].reshape(2 * (L + 1), cols)    # cos, sin of each order
        np.matmul(cos_series, cos_rows, out=amp[:2 * even_m])
        np.matmul(sin_series, sin_rows, out=amp[2 * even_m:])
        lon = powers[:(L + 1) * cols].reshape(L + 1, cols)
        _unit_powers(wc * wc, lon[:even_m])
        np.multiply(lon[:L + 1 - even_m], wc, out=lon[even_m:])     # odd m
        lon_rows = rows[:2 * (L + 1) * cols].reshape(L + 1, 2, cols)
        np.copyto(lon_rows[:, 0], lon.real)
        np.copyto(lon_rows[:, 1], lon.imag)
        out[chunk] = np.einsum("ij,ij->j", amp, lon_rows.reshape(amp.shape))
    return out.reshape(shape)


def kernel_at(c: HarmonicCoeffs, normals: np.ndarray, s: np.ndarray,
              w: np.ndarray) -> np.ndarray:
    """Zonal kernel transform of the series, one value per normal u (shape (..., 3)).

    Returns sum_k w_k times the mean of the series over the circle
    theta . u = s_k, taking each normal as its direction u/|u|; a
    non-finite normal or one of zero length raises ValueError.  With a
    kernel engine's rule (nodes s, weights w that give
    (1/2) int K(s) g(s) ds) this is that kernel's transform at u.  On
    each circle a degree-L series is a trigonometric polynomial of degree
    <= L, so the trapezoid mean over L+2-L%2 nodes is exact.  Values come
    from :func:`synthesize_at`: this route shares neither the grid tables
    nor the Funk-Hecke moments of the engines.  Odd degrees cancel through
    the rule's +-s symmetry.
    """
    u = np.asarray(normals, dtype=float)
    pts = u.reshape(-1, 3)
    pts = pts / _lengths(pts, "normals")[1][:, None]
    helper = np.where(np.abs(pts[:, 2:3]) < 0.9, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    a = np.cross(helper, pts)
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = np.cross(pts, a)
    n_circle = c.L + 2 - c.L % 2
    psi = 2.0 * np.pi * np.arange(n_circle) / n_circle
    ring = a[:, None, :] * np.cos(psi)[:, None] + b[:, None, :] * np.sin(psi)[:, None]
    s = np.asarray(s, dtype=float)[:, None, None, None]
    circles = s * pts[:, None, :] + np.sqrt(1.0 - s * s) * ring
    return (np.asarray(w) @ synthesize_at(c, circles).mean(axis=-1)).reshape(u.shape[:-1])


def funk_at(c: HarmonicCoeffs, normals: np.ndarray) -> np.ndarray:
    """Great-circle means of the series, one per normal: :func:`kernel_at` at s = 0."""
    return kernel_at(c, normals, np.zeros(1), np.ones(1))


# --- spectral application ----------------------------------------------------


def apply_spectral(c: HarmonicCoeffs, family: str, **params) -> HarmonicCoeffs:
    """Diagonal action: multiply each degree block by the family multiplier."""
    return c.scale_degrees(mult.table(3, np.arange(c.L + 1), family, **params))


# --- direct kernel-quadrature engines ---------------------------------------


def _funk_hecke(f: GridFunction | HarmonicCoeffs, L: int | None,
                rule) -> GridFunction | HarmonicCoeffs:
    """Apply a zonal kernel K(theta . u) by the Funk-Hecke theorem (n = 3).

    Degree j is multiplied by the kernel's Legendre moment
    (1/2) int K(s) P_j(s) ds, which ``rule(L)`` (nodes s, weights w with the
    kernel constant folded in) gives exactly.  Odd degrees vanish by parity.
    Coefficients come back as coefficients (``L`` must be None or c.L); a
    grid function is analyzed at L (default: its grid's band limit), scaled
    and synthesized back on its grid.
    """
    if isinstance(f, GridFunction):
        L = f.grid.band_limit if L is None else L
        return synthesize(_funk_hecke(analyze(f, L), L, rule), f.grid)
    if L not in (None, f.L):
        raise ValueError(f"L={L} given with coefficients of band limit {f.L}")
    s, w = rule(f.L)
    # zonal_basis(3, ...) is sqrt(2j+1) P_j
    moments = (zonal_basis(3, f.L, s) @ w) / np.sqrt(2.0 * np.arange(f.L + 1) + 1.0)
    moments[1::2] = 0.0
    return f.scale_degrees(moments)


@functools.lru_cache(maxsize=8)
def _sine_rule(alpha: float, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule for gamma_sine (1 - s^2)^((alpha-2)/2): a symmetric Jacobi rule, exact to degree L."""
    x, w = _gauss_rule(L // 2 + 2, (alpha - 2.0) / 2.0, (alpha - 2.0) / 2.0)
    mass = math.sqrt(math.pi) * math.gamma(alpha / 2.0) / math.gamma((alpha + 1.0) / 2.0)
    w *= 0.5 * mass * mult.constant("gamma_sine", 3, alpha=alpha)
    x.flags.writeable = w.flags.writeable = False     # cached: shared by every caller
    return x, w


def cosine_direct(f: GridFunction | HarmonicCoeffs, alpha: float, L: int | None = None):
    """Generalized cosine transform by direct quadrature of its kernel.

    At each output direction u the integral reduces to latitude averages
    around u weighted by |s|^(alpha-1); the singular weight is integrated
    exactly by a Jacobi rule (see module docstring), so the result is exact
    for band-limited input.  The multiplier closed forms are not used.
    """
    _check_direct_order(3, alpha, mult.Family.M)
    return _funk_hecke(f, L, functools.partial(_cosine_rule, 3, alpha))


def sine_direct(f: GridFunction | HarmonicCoeffs, alpha: float, L: int | None = None):
    """Generalized sine transform by direct quadrature of its kernel."""
    _check_direct_order(3, alpha, mult.Family.Q)
    return _funk_hecke(f, L, functools.partial(_sine_rule, alpha))


def funk_direct(f: GridFunction | HarmonicCoeffs, L: int | None = None):
    """Great-circle averages (Funk-Radon transform) of f.

    The kernel is a point mass at s = 0, so by the Funk-Hecke theorem degree
    j is multiplied by P_j(0), taken from the Legendre recurrence rather
    than from the gamma closed forms.  :func:`funk_at` evaluates the same
    transform pointwise by circle quadrature.
    """
    return _funk_hecke(f, L, lambda _: (np.zeros(1), np.ones(1)))


def radon_r1(f: GridFunction, line: np.ndarray, L: int | None = None) -> float | np.ndarray:
    """Radon transform over 1-dimensional subspaces: the symmetrized value.

    The unit 0-sphere along the line carries the two antipodal points with
    equal mass 1/2, so the transform is (f(u) + f(-u)) / 2, the even part
    of f at the line's direction u (or an array of directions): the odd
    degree blocks of f's coefficients are zeroed and the rest synthesized
    at u alone.  A non-finite line or one of zero length raises ValueError.
    """
    _check_type(f, GridFunction)
    u = np.asarray(line, dtype=float)
    _lengths(u.reshape(-1, 3), "line")
    c = analyze(f, f.grid.band_limit if L is None else L)
    return synthesize_at(c.scale_degrees(np.arange(c.L + 1) % 2 == 0), u)[()]   # one line: a scalar


def radon_transform(f: GridFunction, i: int, L: int | None = None) -> GrassmannFunctionS2:
    """Totally geodesic Radon transform, keyed on the input grid.

    i = 1: averages over the 0-sphere in each line (even part of f, exact
    on the grid via the antipodal index map).  i = 2: great-circle averages
    keyed by plane normals.
    """
    _check_type(f, GridFunction)
    if i == 1:
        return GrassmannFunctionS2("lines", f.even_part())
    if i == 2:
        return GrassmannFunctionS2("planes", funk_direct(f, L=L))
    raise ValueError(f"i must be 1 or 2 on S^2, got {i}")


def dual_radon(phi: GrassmannFunctionS2, L: int | None = None) -> GridFunction:
    """Dual Radon transform: average over the subspaces through each point.

    For plane-keyed input this is the Funk transform of the normal
    representation (the planes through u have normals on the great circle
    perpendicular to u); for line-keyed input the only line through u is
    the one with direction u, so the transform is pointwise evaluation.
    """
    _check_type(phi, GrassmannFunctionS2)
    if phi.kind == "planes":
        return funk_direct(phi.repr_, L=L)
    return GridFunction(phi.repr_.grid, phi.repr_.values.copy())


def ri_alpha_direct(f: GridFunction, i: int, alpha: float,
                    L: int | None = None) -> GrassmannFunctionS2:
    """Analytic Radon family by direct kernel quadrature (n = 3).

    i = 2: the projection onto the plane's normal line gives the cosine
    kernel |theta . n|^(alpha-1), so the output is the cosine transform
    keyed by normals.  i = 1: the projection onto the plane perpendicular
    to the line gives (1 - (theta . u)^2)^((alpha-2)/2), the sine transform
    keyed by lines.  At n = 3 each engine's order guard is R_i's.
    """
    if i == 1:
        return GrassmannFunctionS2("lines", sine_direct(f, alpha, L=L))
    if i == 2:
        return GrassmannFunctionS2("planes", cosine_direct(f, alpha, L=L))
    raise ValueError(f"i must be 1 or 2 on S^2, got {i}")


# --- verification suite -------------------------------------------------------


def _random_even_coeffs(L: int, rng: np.random.Generator) -> HarmonicCoeffs:
    """Seeded even coefficients, degree-j blocks scaled by (1+j)^-2."""
    coeffs = rng.uniform(-1.0, 1.0, (L + 1) ** 2)
    for j in range(L + 1):
        block = coeffs[j * j:(j + 1) * (j + 1)]
        block *= 0.0 if j % 2 else (1.0 + j) ** -2.0
    return HarmonicCoeffs(L, coeffs)


def random_even_function(grid: S2Grid, L: int, rng: np.random.Generator) -> GridFunction:
    """Seeded band-limited even test function with decaying coefficients."""
    return synthesize(_random_even_coeffs(L, rng), grid)


_S2_SUITE_FUNCTIONS = 5


def verify_s2_suite(L: int = 12, tol: float = 1e-6, seed: int = 7,
                    n_theta: int | None = None) -> list[IdentityReport]:
    """Numerically verify the operator identities on S^2.

    Quadrature-limited identities pass at ``tol``; purely spectral chains
    at ``tol * 1e-2``.  _S2_SUITE_FUNCTIONS random even band-limited test
    functions are fixed by ``seed``.  Pointwise sides (:func:`kernel_at`) start
    from the test functions' generating coefficients at seeded grid nodes, so
    they share neither analysis nor Funk-Hecke moments with the grid side.
    The kernel engines run on coefficients, so no grid function is analyzed twice.
    """
    grid = S2Grid(max(4 * L, 48) if n_theta is None else n_theta)
    rng = np.random.default_rng(seed)
    cs = [_random_even_coeffs(L, rng) for _ in range(_S2_SUITE_FUNCTIONS)]
    fs = [synthesize(c, grid) for c in cs]
    points = grid.points.reshape(-1, 3)
    tol_spec = tol * 1e-2
    sqrt_pi = math.sqrt(math.pi)
    reports: list[IdentityReport] = []

    def nodes():
        return rng.choice(len(points), 32, replace=False)

    # read by several identities, each computed once: the analyses, and on them R_2 f
    # and R_2^alpha f (the cosine transform keyed by normals) at the chain's orders;
    # where both sides of an identity would start from cfs, one starts from cs instead
    cfs = [analyze(f, L) for f in fs]
    r2s = [funk_direct(cf) for cf in cfs]
    r2_alpha = {(alpha, k): cosine_direct(cfs[k], alpha)
                for alpha in (0.5, 1.5) for k in range(3)}

    # Funk factorization: M f = R_i^* R_(n-i),perp f, both i.  The right side
    # runs funk_direct (grid tables, Legendre moments); the left is circle
    # quadrature of synthesize_at at seeded grid nodes.
    pairs = []
    for c, f, r2 in zip(cs, fs, r2s):
        idx = nodes()
        mf = funk_at(c, points[idx])
        # i = 1: R_2 f read as lines, so R_1^* is the identity; i = 2: R_1 f as planes
        for rhs in (synthesize(r2, grid), dual_radon(radon_transform(f, 1).perp(), L=L)):
            pairs.append((mf, rhs.values.reshape(-1)[idx]))
    reports.append(make_report("funk_factorization",
                               {"L": L, "i": [1, 2], "functions": len(fs), "nodes": 32},
                               pairs, tol_spec))

    # cosine/Radon chain: R_2 M^alpha f = c R^(alpha+1)_(1,perp) f, alpha in window
    # (alpha = 1 is itself a cosine-family pole, so the probes sit beside it)
    c_chain = mult.constant("c_cosine_radon", 3, i=2)
    pairs = []
    for (alpha, k), r2a in r2_alpha.items():
        lhs = synthesize(funk_direct(r2a), grid)
        rhs = synthesize(sine_direct(cs[k], alpha + 1.0), grid)    # the kernel of R_1^(alpha+1)
        pairs.append((lhs.values, c_chain * rhs.values))
    reports.append(make_report("cosine_radon_chain",
                               {"L": L, "alphas": [0.5, 1.5], "c": c_chain}, pairs, tol))

    # range identity: R_2^alpha f = R_2 f1, f1 = c M^(1-i) M^(alpha+i+1-n) f
    c_f1 = mult.constant("c_range_f1", 3, i=2)
    pairs = []
    for (alpha, k), r2a in r2_alpha.items():
        f1 = synthesize(apply_spectral(apply_spectral(cfs[k], "M", alpha=alpha),
                                       "M", alpha=-1.0), grid)
        rhs = radon_transform(GridFunction(grid, c_f1 * f1.values), 2, L=L)
        pairs.append((synthesize(r2a, grid).values, rhs.repr_.values))
    reports.append(make_report("range_swap", {"L": L, "alphas": [0.5, 1.5], "c": c_f1},
                               pairs, tol))

    # right-inverse forms of the dual Radon transform (i = 2): the continued
    # R_2^(-1) = table M^(-1) against the Funk transform of table Q^(-1)
    k2 = mult.constant("a_form2", 3, i=2)
    k3 = mult.constant("a_form3", 3, i=2)
    q = mult.table(3, np.arange(L + 1), "Q", alpha=1.0)
    q_inv = np.divide(1.0, q, out=np.zeros_like(q), where=q != 0.0)   # odd blocks stay 0
    pairs_forms, pairs_recon = [], []
    for f, cf in zip(fs[:3], cfs):
        a2 = k2 * synthesize(apply_spectral(cf, "M", alpha=-1.0), grid).values
        qinv = synthesize(cf.scale_degrees(q_inv), grid)
        a3 = GridFunction(grid, k3 * radon_transform(qinv, 2, L=L).repr_.values)
        pairs_forms.append((a2, a3.values))
        recon = dual_radon(GrassmannFunctionS2("planes", a3), L=L)
        pairs_recon.append((recon.values, f.values))
    reports.append(make_report("right_inverse_forms", {"L": L, "constants": [k2, k3]},
                               pairs_forms, tol_spec))
    reports.append(make_report("right_inverse_reconstruction", {"L": L}, pairs_recon, tol))

    # inversion of the plane Radon transform by the continued dual family,
    # M^(-1) R_2 f = lambda1 f.  At n = 3, i = 2 the perpendicular swaps
    # (constant c_perp_swap) and the Funk inversion (1/sqrt(pi)) are this
    # equation, so each constant is held to the same inverted field.
    lam = mult.constant("lambda1", 3, i=2)
    consts = [lam, mult.constant("c_perp_swap", 3, i=2), 1.0 / sqrt_pi]
    pairs = []
    for f, r2 in zip(fs, r2s):
        inverted = synthesize(apply_spectral(r2, "M", alpha=-1.0), grid)
        pairs.extend((inverted.values, k * f.values) for k in consts)
    reports.append(make_report("radon_inversion", {"L": L, "constants": consts}, pairs, tol))

    # sine-transform composition identities: both composites of the direct
    # engines against the sine kernel at points
    alpha = 0.5
    idx = nodes()
    rhs = lam * kernel_at(cs[0], points[idx], *_sine_rule(alpha + 1.0, L))
    lhs = (cosine_direct(r2s[0], alpha), funk_direct(r2_alpha[alpha, 0]))
    pairs = [(synthesize(g, grid).values.reshape(-1)[idx], rhs) for g in lhs]
    reports.append(make_report("sine_composites",
                               {"L": L, "alpha": alpha, "lambda": lam, "nodes": 32}, pairs, tol))

    # Funk inversion on coefficients: sqrt(pi) M^(-1) (Funk c) = c, all tables
    pairs = []
    for cf in cfs:
        spec_path = apply_spectral(apply_spectral(cf, "Funk"), "M", alpha=-1.0)
        pairs.append((sqrt_pi * spec_path.coeffs, cf.coeffs))
    reports.append(make_report("funk_inversion_spectral", {"L": L}, pairs, tol_spec))

    # the cosine family's alpha -> 0 member is sqrt(pi) Funk, and by Gamma(x+1) =
    # x Gamma(x) it is M^0 = (1/4)(-Laplacian - 2) M^2 at n = 3: no gamma closed
    # form on either side, cosine_direct at alpha = 2 times (j(j+1) - 2)/4 per degree
    j = np.arange(L + 1)
    step = (j * (j + 1.0) - 2.0) / 4.0
    pairs = []
    for c, r2 in zip(cs[:2], r2s):
        limit = synthesize(cosine_direct(c, 2.0).scale_degrees(step), grid)
        pairs.append((limit.values, sqrt_pi * synthesize(r2, grid).values))
    reports.append(make_report("cosine_funk_limit", {"L": L, "alpha": 2.0}, pairs, tol_spec))

    # cross-engine: the cosine kernel at points vs gamma multipliers on the grid,
    # one function per order
    alphas = [0.5, 1.5, 2.0, 2.5, 0.1]
    pairs = []
    for k, alpha in enumerate(alphas):
        idx = nodes()
        direct = kernel_at(cs[k % len(cs)], points[idx], *_cosine_rule(3, alpha, L))
        spec = synthesize(apply_spectral(cfs[k % len(cfs)], "M", alpha=alpha), grid)
        pairs.append((direct, spec.values.reshape(-1)[idx]))
    reports.append(make_report("cross_engine_cosine", {"L": L, "alphas": alphas, "nodes": 32},
                               pairs, tol))

    # chain linking planes-measure bodies to line sections (degree-2 probe + seeded)
    from .starbody import istar_chain_check  # local import; starbody builds on sphere
    zonal2 = np.zeros((L + 1) ** 2)
    zonal2[0] = 1.0
    zonal2[2 * 2 + 2] = 0.3
    g2 = synthesize(HarmonicCoeffs(L, zonal2), grid)
    for label, g in (("zonal2", g2), ("seeded", fs[0])):
        shifted = GridFunction(grid, g.values - min(0.0, float(g.values.min())) + 0.5)
        rep = istar_chain_check(shifted, tol=max(tol_spec, 1e-8))
        rep.params["probe"] = label
        reports.append(rep)

    return reports
