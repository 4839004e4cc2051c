"""Residual bands: a lost digit in any identity of the headline run fails a test.

The headline run is ``coslab verify --suite all --n 2,3,5,8``.  Its CLI
tolerances (1e-6, 1e-8, 1e-10) sit 3-9 digits above the residuals they
check, so a defect that costs a few digits still passes ``verify``.  BANDS
holds each identity's worst ``max_rel_err`` to 100x its worst over
BAND_SEEDS, rounded up to two digits.  The seeded suites (zonal, S^2, star
body) are checked at HELD_OUT_SEEDS, which the bands were not measured on;
the multiplier suite has no seed and is checked once.  An identity banded
``None`` keeps its tolerance: ``asymptotics`` is truncation-limited, and
``zonal_parity``, ``zonal_bridge_positivity``, ``ib_classifies_member`` and
``pair_check_rejects_ball`` read exactly 0 when they pass.
"""

import json

import pytest

from coslab import cli
from coslab import multipliers as mult
from coslab import sphere
from coslab import starbody as sb
from coslab import zonal as zn
from coslab.reports import IdentityReport

# measured at seeds 1-60 on the tree of the commit that adds this table
# (parent e6b2aec), with the headline run's defaults
BAND_SEEDS = range(1, 61)
HELD_OUT_SEEDS = range(61, 81)
BANDS = {
    "asymptotics": None,
    "ball_classifier": 4.4e-11,
    "bridge_factors": 1.9e-12,
    "composite_const": 8.9e-14,
    "cosine_bridge": 5.0e-13,
    "cosine_funk_limit": 2.7e-13,
    "cosine_radon_chain": 2.2e-13,
    "cross_engine_cosine": 2.3e-13,
    "funk_factorization": 8.7e-14,
    "funk_inversion_spectral": 3.4e-14,
    "i_intersection_pair": 1.3e-12,
    "ib_ball": 7.1e-14,
    "ib_classifies_member": None,
    "inversion": 3.2e-13,
    "istar_chain": 2.1e-12,
    "pair_check_rejects_ball": None,
    "radon_inversion": 1.3e-13,
    "range_swap": 2.7e-13,
    "right_inverse_forms": 1.4e-13,
    "right_inverse_reconstruction": 2.0e-13,
    "semigroup": 2.0e-12,
    "sine_composites": 1.2e-13,
    "zonal_bridge_positivity": None,
    "zonal_cross_engine_cosine": 1.9e-13,
    "zonal_cross_engine_poisson": 4.5e-14,
    "zonal_parity": None,
    "zonal_round_trip": 4.0e-14,
}

# the headline run's settings: `verify --suite all --n 2,3,5,8` and its defaults
N_LIST, LMAX, TOL = (2, 3, 5, 8), 12, 1e-6
HEADLINE = ["verify", "--suite", "all", "--n", ",".join(map(str, N_LIST))]


def _band(report) -> float:
    band = BANDS[report.identity]
    return report.tolerance if band is None else band


def _outside(reports) -> list[str]:
    """Each report whose residual exceeds its identity's band."""
    return [f"{r.identity} {r.params}: {r.max_rel_err:.3e} > {_band(r):.1e}"
            for r in reports if not r.max_rel_err <= _band(r)]


def _seeded_suites(seed: int) -> list:
    return [*zn.verify_zonal_suite(N_LIST, J=min(LMAX, 16), seed=seed, tol=TOL * 1e-2),
            *sphere.verify_s2_suite(L=LMAX, tol=TOL, seed=seed, n_theta=max(4 * LMAX, 48)),
            *sb.verify_starbody_suite(seed=seed, tol=TOL)]


@pytest.mark.parametrize("seed", HELD_OUT_SEEDS)
def test_seeded_suites_stay_in_their_bands(seed):
    assert _outside(_seeded_suites(seed)) == []


def test_multiplier_suite_stays_in_its_bands():
    alphas = cli._alpha_grid(40, -6.0, 6.0)
    assert _outside([r for n in N_LIST
                     for r in mult.check_identities(n, 200, alphas, 1e-10)]) == []


def _headline(capsys, tmp_path) -> tuple[int, list]:
    """Exit code and reports of the headline run, in process."""
    out = tmp_path / "verify.json"
    code = cli.main([*HEADLINE, "--out", str(out)])
    capsys.readouterr()
    reports = [IdentityReport(passed=r.pop("pass"), **r)
               for r in json.loads(out.read_text())["results"]]
    return code, reports


def test_every_identity_of_the_headline_run_has_a_band(capsys, tmp_path):
    code, reports = _headline(capsys, tmp_path)
    assert code == 0
    assert {r.identity for r in reports} == set(BANDS)
    assert _outside(reports) == []


def _scaled_first_weight(rule):
    def perturbed(*args):
        nodes, weights = rule(*args)
        weights = weights.copy()
        weights[0] *= 1.0 + 1e-9
        return nodes, weights
    return perturbed


def _scaled_constant(name):
    constant = mult.constant

    def perturbed(const, *args, **params):
        value = constant(const, *args, **params)
        return value * (1.0 + 1e-9) if const == name else value
    return perturbed


# one defect per seeded suite, 1e-9 relative, and an identity it moves out of
# its band; each passes every CLI tolerance
PERTURBATIONS = {
    "zonal: first weight of the cosine rule": (
        zn, "_cosine_rule", _scaled_first_weight(zn._cosine_rule), "zonal_cross_engine_cosine"),
    "S2: first weight of the sine rule": (
        sphere, "_sine_rule", _scaled_first_weight(sphere._sine_rule), "sine_composites"),
    "star body: the pair check's constant": (
        mult, "constant", _scaled_constant("kl_factor"), "i_intersection_pair"),
}


@pytest.mark.parametrize("row", PERTURBATIONS)
def test_a_lost_digit_fails_the_band_but_not_verify(capsys, tmp_path, monkeypatch, row):
    module, name, perturbed, moved = PERTURBATIONS[row]
    monkeypatch.setattr(module, name, perturbed)
    code, reports = _headline(capsys, tmp_path)
    assert code == 0
    assert any(line.startswith(f"{moved} ") for line in _outside(reports))
