"""Command-line surface: tables, verify reports, file transforms, bodies."""

import csv
import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coslab import cli
from coslab import sphere
from coslab import starbody as sb
from coslab import zonal as zn
from coslab.errors import RepresentationError, integer_field
from coslab.io import detect_kind, load_object, save_object
from coslab.sphere import GrassmannFunctionS2, GridFunction, HarmonicCoeffs, S2Grid

SQRT_PI = math.sqrt(math.pi)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMultiplier:
    def test_cosine_table(self, capsys):
        code, out, _ = run(capsys, "multiplier", "--family", "m", "--n", "3",
                           "--alpha", "0.5", "--jmax", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,value"
        rows = [line.split(",") for line in lines[1:]]
        assert float(rows[0][1]) == pytest.approx(4.0, rel=1e-12)
        assert float(rows[1][1]) == 0.0

    def test_sine_at_zero_rows(self, capsys):
        code, out, _ = run(capsys, "multiplier", "--family", "q", "--alpha", "0",
                           "--n", "5", "--jmax", "4", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        for row in rows:
            assert row["value"] == (1.0 if row["j"] % 2 == 0 else 0.0)

    def test_excluded_exits_3(self, capsys):
        code, _, err = run(capsys, "multiplier", "--family", "m", "--alpha", "1",
                           "--n", "3")
        assert code == 3
        assert "lattice" in err

    @pytest.mark.parametrize("family,given,needs", [
        ("qplus", ["--nu", "1.7"], "--mu"),
        ("qminus", ["--mu", "0.9"], "--nu"),
        ("a", ["--alpha", "0.5"], "--beta"),
        ("poisson", [], "--t"),
    ])
    def test_missing_family_parameter_exits_2(self, capsys, family, given, needs):
        code, out, err = run(capsys, "multiplier", "--family", family, "--n", "3", *given)
        assert code == 2
        assert err.startswith("error:") and needs in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["--family", "qminus", "--mu", "1", "--nu", "nan"],
        ["--family", "a", "--alpha", "nan", "--beta", "0.5"],
        ["--family", "qplus", "--mu", "-inf", "--nu", "1"],
        ["--family", "a", "--alpha", "0.5", "--beta", "inf"],
        ["--family", "m", "--alpha", "nan"],
        ["--family", "q", "--alpha", "inf"],
    ])
    def test_non_finite_family_parameter_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "multiplier", *argv)
        assert code == 2
        assert err.startswith("error:") and "must be finite" in err
        assert err.count("\n") == 1 and out == ""

    @pytest.mark.parametrize("argv,flag", [
        (["--family", "funk", "--alpha", "nan"], "--alpha"),
        (["--family", "funk", "--alpha", "0.5"], "--alpha"),
        (["--family", "m", "--alpha", "0.5", "--t", "nan"], "--t"),
        (["--family", "poisson", "--t", "0.5", "--beta", "1"], "--beta"),
    ])
    def test_unread_family_parameter_exits_2(self, capsys, argv, flag):
        code, out, err = run(capsys, "multiplier", *argv)
        assert code == 2
        assert err.startswith("error:") and f"does not read {flag}" in err
        assert err.count("\n") == 1 and out == ""

    @pytest.mark.parametrize("family", ["m", "q"])
    def test_absent_alpha_is_order_0(self, capsys, family):
        code, absent, _ = run(capsys, "multiplier", "--family", family, "--jmax", "4")
        assert code == 0
        assert absent == run(capsys, "multiplier", "--family", family, "--alpha", "0",
                             "--jmax", "4")[1]

    def test_negative_jmax_exits_2(self, capsys):
        code, out, err = run(capsys, "multiplier", "--family", "m", "--jmax", "-1")
        assert code == 2
        assert err.startswith("error:") and "--jmax" in err
        assert out == ""

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(capsys, "multiplier", "--family", "bogus")
        assert e.value.code == 2


# parameter values of the exit-code sweep: lattice points, points inside and
# outside their guard bands, non-finite values and floats near and far
_LATTICE_POINTS = st.integers(-10, 12).map(float)
_SWEEP_VALUES = st.one_of(
    _LATTICE_POINTS,
    st.tuples(_LATTICE_POINTS, st.sampled_from([-1e-6, -5e-9, 5e-9, 1e-6])).map(sum),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(-20.0, 20.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _multiplier_flags(draw):
    """A family and its parameter flags: each one it reads is absent one time in
    five, and one time in five a flag it may not read is added."""
    family = draw(st.sampled_from(sorted(cli._FAMILIES)))
    names = [name for name in cli.mult.FAMILY_PARAMS[cli._FAMILIES[family]]
             if draw(st.integers(0, 4))]
    if not draw(st.integers(0, 4)):
        names.append(draw(st.sampled_from(cli._PARAM_NAMES)))
    return family, {name: draw(_SWEEP_VALUES) for name in names}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=_multiplier_flags(), n=st.integers(2, 9), jmax=st.integers(0, 40))
def test_multiplier_exit_codes(capsys, drawn, n, jmax):
    # "--alpha=-1e-06" keeps argparse from reading a negative value as a flag
    family, flags = drawn
    code, out, err = run(capsys, "multiplier", "--family", family, "--n", str(n),
                         "--jmax", str(jmax), *(f"--{k}={v!r}" for k, v in flags.items()))
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code:
        assert err.startswith("error:") and err.count("\n") == 1 and out == ""
    else:
        lines = out.splitlines()
        assert lines[0] == "j,value" and len(lines) == jmax + 2 and err == ""


class TestVerify:
    def test_multipliers_suite(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, err = run(capsys, "verify", "--suite", "multipliers",
                           "--n", "2,3,5", "--jmax", "60", "--out", str(out_file))
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["fail_count"] == 0
        assert report["pass_count"] == len(report["results"]) > 0
        assert "PASS" in err

    def test_every_headline_report_is_decided_by_its_relative_error(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--suite", "all", "--n", "2,3,5,8",
                         "--out", str(out_file))
        results = json.loads(out_file.read_text())["results"]
        assert code == 0 and len(results) == 62
        for r in results:
            assert r["pass"] == (r["max_rel_err"] <= r["tolerance"]), r["identity"]

    def test_report_matches_schema(self, capsys, tmp_path):
        import coslab
        from pathlib import Path
        schema = json.loads((Path(coslab.__file__).parent / "schemas"
                             / "run_report.schema.json").read_text())
        out_file = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--suite", "zonal", "--n", "3",
                         "--lmax", "8", "--out", str(out_file))
        assert code == 0
        jsonschema.validate(json.loads(out_file.read_text()), schema)

    def test_s2_suite_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        for f in (f1, f2):
            code, _, _ = run(capsys, "verify", "--suite", "s2", "--lmax", "8",
                             "--n_theta", "32", "--seed", "7", "--out", str(f))
            assert code == 0
        a, b = json.loads(f1.read_text()), json.loads(f2.read_text())
        assert a["results"] == b["results"]

    @pytest.mark.parametrize("argv", [
        ["--suite", "s2", "--lmax", "0"],
        ["--suite", "s2", "--lmax", "1"],
        ["--suite", "all", "--lmax", "1"],
        ["--suite", "zonal", "--n", "1"],
        ["--suite", "multipliers", "--jmax", "-1"],
        ["--suite", "all", "--jmax", "-1"],
        ["--suite", "zonal", "--lmax", "-1"],
        ["--suite", "zonal", "--lmax", "0"],
    ])
    def test_bad_size_exits_2(self, capsys, tmp_path, argv):
        out_file = tmp_path / "r.json"
        code, out, err = run(capsys, "verify", *argv, "--out", str(out_file))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert out == "" and not out_file.exists()

    @pytest.mark.parametrize("argv", [
        ["--suite", "s2", "--tol", "nan"],
        ["--suite", "multipliers", "--tol", "inf"],
        ["--suite", "multipliers", "--tol", "0"],
        ["--suite", "zonal", "--tol=-1e-6"],
    ])
    def test_bad_tolerance_exits_2(self, capsys, tmp_path, argv):
        out_file = tmp_path / "r.json"
        code, out, err = run(capsys, "verify", *argv, "--out", str(out_file))
        assert code == 2
        assert err.startswith("error: --tol must be finite") and err.count("\n") == 1
        assert out == "" and not out_file.exists()

    @pytest.mark.parametrize("line", ["tol = nan", "mult_tol = inf"])
    def test_bad_config_tolerance_exits_2(self, capsys, tmp_path, line):
        cfg = tmp_path / "coslab.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, "verify", "--suite", "all", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error:") and "finite" in err and err.count("\n") == 1
        assert out == ""

    def test_config_file(self, capsys, tmp_path):
        # blank and comment-only lines are skipped
        cfg = tmp_path / "coslab.cfg"
        cfg.write_text("\nlmax = 8\n# lmax = 10\n   \nn_theta = 32  # comment\nseed=3\n")
        out_file = tmp_path / "r.json"
        code, _, _ = run(capsys, "verify", "--suite", "s2", "--config", str(cfg),
                         "--out", str(out_file))
        assert code == 0
        config = json.loads(out_file.read_text())["config"]
        assert (config["lmax"], config["n_theta"], config["seed"]) == (8, 32, 3)

    @pytest.mark.parametrize("text,says", [
        ("lmx = 8\n", "unknown config key 'lmx'"),     # a typo of lmax
        ("lmax = 8\nsuite = s2\n", "unknown config key 'suite'"),
        ("lmax 8\n", "bad config line: 'lmax 8'"),
    ])
    def test_bad_config_exits_2(self, capsys, tmp_path, text, says):
        cfg = tmp_path / "coslab.cfg"
        cfg.write_text(text)
        out_file = tmp_path / "r.json"
        code, out, err = run(capsys, "verify", "--suite", "s2", "--config", str(cfg),
                             "--out", str(out_file))
        assert code == 2
        assert err.startswith("error:") and says in err and err.count("\n") == 1
        assert out == "" and not out_file.exists()

    def test_missing_config_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "--suite", "s2",
                             "--config", str(tmp_path / "absent.cfg"))
        assert code == 2
        assert err.startswith("error:") and "absent.cfg" in err and err.count("\n") == 1
        assert out == ""


@pytest.fixture()
def zonal_t2_file(tmp_path):
    f = zn.zonal_analyze(3, lambda t: t ** 2, 4)
    path = tmp_path / "t2.json"
    save_object(f, path)
    return path


@pytest.fixture()
def ones_grid_file(tmp_path):
    g = S2Grid(24, 48)
    path = tmp_path / "ones.json"
    save_object(GridFunction(g, np.ones((24, 48))), path)
    return path


def _ones_grid():
    return GridFunction(S2Grid(12, 24), np.ones((12, 24)))


# apply input kind -> an object of that kind
APPLY_INPUTS = {
    "grid": _ones_grid,
    "zonal": lambda: zn.zonal_analyze(3, lambda t: t ** 2, 4),
    "coefficients": lambda: HarmonicCoeffs(2, np.arange(9.0)),
    "subspace": lambda: GrassmannFunctionS2("planes", _ones_grid()),
    "star body": lambda: sb.make_body(3, "ball", resolution=12),
}
SPECTRAL_INPUTS = {"grid", "zonal", "coefficients"}
# apply --op -> (its parameter flags, route -> the input kinds it takes); the first
# route is the one an absent --method runs, None for an op that has only one route
APPLY_TAKES = {
    "cosine": (["--alpha", "1.5"],
               {"spectral": SPECTRAL_INPUTS, "direct": {"grid", "zonal"}}),
    "funk": ([], {"spectral": SPECTRAL_INPUTS, "direct": {"grid"}}),
    "qalpha": (["--alpha", "0.5"], {"spectral": SPECTRAL_INPUTS, "direct": {"grid"}}),
    "poisson": (["--t", "0.5"], {"spectral": SPECTRAL_INPUTS, "direct": {"zonal"}}),
    "radon": ([], {None: {"grid"}}),
    "dualradon": ([], {None: {"subspace"}}),
}


class TestApply:
    def test_funk_of_zonal_t2(self, capsys, tmp_path, zonal_t2_file):
        out = tmp_path / "out.json"
        code, _, _ = run(capsys, "apply", "--op", "funk", "--input",
                         str(zonal_t2_file), "--output", str(out))
        assert code == 0
        g = load_object(out)
        t = np.linspace(-1, 1, 21)
        assert np.allclose(zn.zonal_synth(g, t), (1 - t ** 2) / 2, atol=1e-13)

    def test_cosine_direct_on_constant_grid(self, capsys, tmp_path, ones_grid_file):
        out = tmp_path / "out.json"
        code, _, _ = run(capsys, "apply", "--op", "cosine", "--method", "direct",
                         "--alpha", "2", "--input", str(ones_grid_file),
                         "--output", str(out))
        assert code == 0
        g = load_object(out)
        assert np.abs(g.values + 2 * SQRT_PI).max() < 1e-12

    def test_qalpha_zero_idempotent_bytes(self, capsys, tmp_path, zonal_t2_file):
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        code, _, _ = run(capsys, "apply", "--op", "qalpha", "--alpha", "0",
                         "--input", str(zonal_t2_file), "--output", str(out1))
        assert code == 0
        code, _, _ = run(capsys, "apply", "--op", "qalpha", "--alpha", "0",
                         "--input", str(out1), "--output", str(out2))
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("op,param", [("cosine", ("--alpha", "1.5")),
                                          ("poisson", ("--t", "0.5"))])
    def test_zonal_direct_matches_spectral(self, capsys, tmp_path, n, op, param):
        coeffs = np.random.default_rng(n).uniform(-1, 1, 11) * (1 + np.arange(11.0)) ** -2
        path = tmp_path / "f.json"
        save_object(zn.ZonalFunction(n, coeffs), path)
        outs = {}
        for method in ("direct", "spectral"):
            outs[method] = tmp_path / f"{method}.json"
            code, _, _ = run(capsys, "apply", "--op", op, "--method", method, *param,
                             "--input", str(path), "--output", str(outs[method]))
            assert code == 0
        direct, spectral = (load_object(outs[k]).coeffs for k in ("direct", "spectral"))
        assert direct.shape == spectral.shape == (11,)
        assert np.abs(direct - spectral).max() <= 1e-10

    def test_window_violation_exits_3(self, capsys, tmp_path, ones_grid_file):
        code, _, _ = run(capsys, "apply", "--op", "cosine", "--method", "direct",
                         "--alpha", "3.5", "--input", str(ones_grid_file),
                         "--output", str(tmp_path / "x.json"))
        assert code == 3

    @pytest.mark.parametrize("method", ["direct", "spectral"])
    def test_non_finite_order_exits_2(self, capsys, tmp_path, ones_grid_file, method):
        code, out, err = run(capsys, "apply", "--op", "cosine", "--method", method,
                             "--alpha", "nan", "--input", str(ones_grid_file),
                             "--output", str(tmp_path / "x.json"))
        assert code == 2
        assert err.startswith("error:") and "alpha must be finite" in err
        assert err.count("\n") == 1 and out == ""

    @pytest.mark.parametrize("argv,flag", [
        (["--op", "funk", "--alpha", "nan"], "--alpha"),
        (["--op", "poisson", "--t", "0.5", "--alpha", "nan"], "--alpha"),
        (["--op", "radon", "--alpha", "nan"], "--alpha"),
        (["--op", "cosine", "--alpha", "0.5", "--t", "nan"], "--t"),
        (["--op", "radon", "--method", "direct"], "--method"),
        (["--op", "dualradon", "--method", "spectral"], "--method"),
        (["--op", "cosine", "--alpha", "0.5", "--i", "1"], "--i"),
    ])
    def test_unread_parameter_exits_2_before_the_input_is_read(self, capsys, tmp_path,
                                                               ones_grid_file, argv, flag):
        d = json.loads(ones_grid_file.read_text())
        del d["grid"]["n_phi"]                  # read, this file exits 4
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        out = tmp_path / "x.json"
        code, stdout, err = run(capsys, "apply", *argv, "--input", str(bad),
                                "--output", str(out))
        assert code == 2
        assert err.startswith("error:") and f"does not read {flag}" in err
        assert err.count("\n") == 1 and stdout == "" and not out.exists()

    @pytest.mark.parametrize("kind", list(APPLY_INPUTS))
    @pytest.mark.parametrize("method", [None, "spectral", "direct"])
    @pytest.mark.parametrize("op", list(APPLY_TAKES))
    def test_every_op_method_and_input(self, capsys, tmp_path, op, method, kind):
        params, takes = APPLY_TAKES[op]
        if method is not None and method not in takes:
            expected = 2                        # an op without a family reads no --method
        else:
            route = method or next(iter(takes))
            expected = 0 if kind in takes[route] else 4
        path = tmp_path / f"{kind}.json"
        save_object(APPLY_INPUTS[kind](), path)
        out = tmp_path / "x.json"
        code, stdout, err = run(capsys, "apply", "--op", op, *params,
                                *(["--method", method] if method else []),
                                "--input", str(path), "--output", str(out))
        assert code == expected
        assert stdout == "" and "Traceback" not in err
        if expected == 0:
            assert err == "" and out.exists()
        else:
            assert err.startswith("error:") and err.count("\n") == 1
            assert f"op {op!r}" in err and not out.exists()

    @pytest.mark.parametrize("argv,meta", [
        (["--op", "radon"], {"op": "radon", "i": 2}),
        (["--op", "radon", "--i", "1"], {"op": "radon", "i": 1}),
        (["--op", "cosine", "--alpha", "1.5"],
         {"op": "cosine", "method": "spectral", "alpha": 1.5}),
        (["--op", "funk", "--method", "direct"], {"op": "funk", "method": "direct"}),
    ])
    def test_meta_records_what_ran(self, capsys, tmp_path, ones_grid_file, argv, meta):
        out = tmp_path / "x.json"
        code, _, _ = run(capsys, "apply", *argv, "--input", str(ones_grid_file),
                         "--output", str(out))
        assert code == 0
        assert json.loads(out.read_text())["meta"] == meta

    def test_representation_mismatch_exits_4(self, capsys, tmp_path, ones_grid_file):
        code, _, _ = run(capsys, "apply", "--op", "dualradon", "--input",
                         str(ones_grid_file), "--output", str(tmp_path / "x.json"))
        assert code == 4

    @pytest.mark.parametrize("case", ["missing_grid", "missing_n_phi", "short_values",
                                      "nan_value"])
    def test_malformed_grid_file_exits_4(self, capsys, tmp_path, ones_grid_file, case):
        d = json.loads(ones_grid_file.read_text())
        if case == "missing_grid":
            d = {"kind": "planes", "values": d["values"]}   # a subspace file
        elif case == "missing_n_phi":
            del d["grid"]["n_phi"]
        elif case == "short_values":
            d["values"] = d["values"][:-1]
        else:
            d["values"][5] = float("nan")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        out = tmp_path / "x.json"
        code, _, err = run(capsys, "apply", "--op", "cosine", "--alpha", "1.5",
                           "--input", str(bad), "--output", str(out))
        assert code == 4
        assert err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["coeffs_without_L", "zonal_without_n",
                                      "body_without_payload", "subspace_bad_kind",
                                      "coeffs_nan", "zonal_nan", "coeffs_negative_L",
                                      "zonal_empty", "zonal_n1", "zonal_2d_coeffs",
                                      "zonal_fractional_n", "coeffs_fractional_L",
                                      "grid_fractional_n_theta"])
    def test_malformed_file_exits_4(self, capsys, tmp_path, ones_grid_file, case):
        coeffs = HarmonicCoeffs(2, np.arange(9.0)).to_dict()
        zonal = zn.zonal_analyze(3, lambda t: t ** 2, 4).to_dict()
        grid = json.loads(ones_grid_file.read_text())
        out = tmp_path / "x.json"
        argv = ["apply", "--op", "funk", "--output", str(out)]
        if case == "coeffs_without_L":
            del coeffs["L"]
            d = coeffs
        elif case == "zonal_without_n":
            del zonal["n"]
            d = zonal
        elif case == "body_without_payload":
            d = {"n": 3, "repr_kind": "grid", "meta": {}}
            argv = ["body", "classify", "--alpha", "0.5", "--out", str(out)]
        elif case == "subspace_bad_kind":
            d = {**grid, "kind": "circles"}
            argv = ["apply", "--op", "dualradon", "--output", str(out)]
        elif case == "coeffs_nan":
            coeffs["coeffs"][4] = float("nan")
            d = coeffs
        elif case == "zonal_nan":
            zonal["coeffs"][2] = float("nan")
            d = zonal
        elif case == "coeffs_negative_L":
            d = {**coeffs, "L": -1, "coeffs": []}
        elif case == "zonal_empty":
            d = {**zonal, "coeffs": []}
        elif case == "zonal_n1":
            d = {**zonal, "n": 1}
        elif case == "zonal_2d_coeffs":
            d = {**zonal, "coeffs": [[1]]}
            argv = ["apply", "--op", "cosine", "--alpha", "0.5", "--output", str(out)]
        elif case == "zonal_fractional_n":
            d = {**zonal, "n": 3.7}
        elif case == "coeffs_fractional_L":
            d = {**coeffs, "L": 2.5}
        else:
            d = {**grid, "grid": {**grid["grid"], "n_theta": grid["grid"]["n_theta"] + 0.5}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        code, _, err = run(capsys, *argv, "--input", str(bad))
        assert code == 4
        assert err.startswith("error:")
        assert not out.exists()

    def test_radon_then_dual(self, capsys, tmp_path, ones_grid_file):
        mid = tmp_path / "planes.json"
        out = tmp_path / "back.json"
        code, _, _ = run(capsys, "apply", "--op", "radon", "--i", "2",
                         "--input", str(ones_grid_file), "--output", str(mid))
        assert code == 0
        assert load_object(mid).kind == "planes"
        code, _, _ = run(capsys, "apply", "--op", "dualradon", "--input", str(mid),
                         "--output", str(out))
        assert code == 0
        assert np.abs(load_object(out).values - 1.0).max() < 1e-12

    def test_poisson_spectral_on_coeffs(self, capsys, tmp_path):
        c = HarmonicCoeffs(2, np.arange(9.0))
        path = tmp_path / "c.json"
        save_object(c, path)
        out = tmp_path / "o.json"
        code, _, _ = run(capsys, "apply", "--op", "poisson", "--t", "0.5",
                         "--input", str(path), "--output", str(out))
        assert code == 0
        back = load_object(out)
        assert back.get(2, 0) == pytest.approx(c.get(2, 0) * 0.25, rel=1e-14)


class TestBody:
    def test_make_intersect_ball(self, capsys, tmp_path):
        body_file = tmp_path / "ball.json"
        code, _, _ = run(capsys, "body", "make", "--shape", "ball", "--r", "2",
                         "--n", "3", "--out", str(body_file))
        assert code == 0
        ib_file = tmp_path / "ib.json"
        code, _, _ = run(capsys, "body", "intersect", "--input", str(body_file),
                         "--out", str(ib_file))
        assert code == 0
        ib = load_object(ib_file)
        assert np.abs(ib.repr_.values - 4 * math.pi).max() < 1e-11

    def test_classify_sweep_signs(self, capsys, tmp_path):
        body_file = tmp_path / "ball.json"
        run(capsys, "body", "make", "--shape", "ball", "--r", "1", "--n", "3",
            "--out", str(body_file))
        csv_file = tmp_path / "sweep.csv"
        report_file = tmp_path / "sweep.json"
        code, _, _ = run(capsys, "body", "classify", "--input", str(body_file),
                         "--alpha-min", "-3", "--alpha-max", "2.9", "--steps", "59",
                         "--out", str(report_file), "--csv", str(csv_file))
        assert code == 0
        with open(csv_file) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 59
        for row in rows:
            want = sb.ball_class_sign(3, float(row["alpha"]))
            assert row["verdict"] == ("yes" if want > 0 else "no")
            assert float(row["min_value"]) == pytest.approx(want, abs=5e-9)

    def test_pair_check_roundtrip(self, capsys, tmp_path):
        rng = np.random.default_rng(8)
        K = sb._random_body(rng, 48)
        L = sb._half_section_partner(K)
        kf, lf = tmp_path / "k.json", tmp_path / "l.json"
        save_object(K, kf)
        save_object(L, lf)
        code, out, _ = run(capsys, "body", "pair-check", "--k", str(kf),
                           "--l", str(lf), "--i", "2")
        assert code == 0
        assert json.loads(out)["pass"] is True
        # swapped arguments are not a 2-intersection pair
        code, out, _ = run(capsys, "body", "pair-check", "--k", str(lf),
                           "--l", str(kf), "--i", "2")
        assert code == 1

    def test_nonpositive_body_exits_5(self, capsys, tmp_path):
        grid = S2Grid(16)
        d = {"n": 3, "repr_kind": "grid",
             "payload": GridFunction(grid, np.full((16, 32), 1.0)).to_dict(),
             "meta": {}}
        d["payload"]["values"][0] = -1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        code, _, _ = run(capsys, "body", "classify", "--input", str(bad),
                         "--alpha", "1.0")
        assert code == 5

    @pytest.mark.parametrize("argv", [
        ["--shape", "ball", "--r", "nan"],
        ["--shape", "ball", "--r", "inf", "--n", "5"],
        ["--shape", "lp_ball", "--p", "nan"],
        ["--shape", "ellipsoid", "--axes", "1,1,inf"],
    ])
    def test_make_non_finite_params_exits_5(self, capsys, tmp_path, argv):
        body_file = tmp_path / "body.json"
        code, out, err = run(capsys, "body", "make", *argv, "--out", str(body_file))
        assert code == 5
        assert err.startswith("error:") and "finite" in err
        assert out == "" and not body_file.exists()

    @pytest.mark.parametrize("argv", [
        ["--shape", "ball", "--n", "1"],
        ["--shape", "ball", "--n", "0"],
        ["--shape", "ellipsoid", "--axes", "1", "--n", "1"],
    ])
    def test_make_below_dimension_2_exits_2(self, capsys, tmp_path, argv):
        body_file = tmp_path / "body.json"
        code, out, err = run(capsys, "body", "make", *argv, "--out", str(body_file))
        assert code == 2
        assert err.startswith("error: dimension must be >= 2") and err.count("\n") == 1
        assert out == "" and not body_file.exists()

    @pytest.mark.parametrize("argv", [
        ["classify", "--input", "{ball}", "--alpha", "1.5", "--margin", "nan"],
        ["classify", "--input", "{ball}", "--alpha", "1.5", "--margin=-1e-7"],
        ["classify", "--input", "{ball}", "--margin", "inf"],
        ["pair-check", "--k", "{ball}", "--l", "{ball}", "--i", "2", "--tol", "inf"],
        ["pair-check", "--k", "{ball}", "--l", "{ball}", "--tol", "nan"],
        ["pair-check", "--k", "{ball}", "--l", "{ball}", "--tol", "0"],
    ])
    def test_bad_tolerance_or_margin_exits_2(self, capsys, tmp_path, argv):
        body_file = tmp_path / "ball.json"
        run(capsys, "body", "make", "--shape", "ball", "--out", str(body_file))
        code, out, err = run(capsys, "body", *[a.format(ball=body_file) for a in argv])
        flag = "--margin" if argv[0] == "classify" else "--tol"
        assert code == 2
        assert err.startswith(f"error: {flag} must be finite") and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["--alpha", "nan"],
        ["--alpha=-inf"],
        ["--alpha", "-inf"],
        ["--alpha-min", "-Infinity"],
        ["--alpha-min", "nan", "--steps", "3"],
        ["--alpha-max", "inf"],
        ["--alpha-min=-inf", "--alpha-max", "nan"],
    ])
    def test_classify_non_finite_orders_exit_2(self, capsys, tmp_path, argv):
        body_file = tmp_path / "ball.json"
        run(capsys, "body", "make", "--shape", "ball", "--out", str(body_file))
        out_file = tmp_path / "report.json"
        code, out, err = run(capsys, "body", "classify", "--input", str(body_file), *argv,
                             "--out", str(out_file))
        assert code == 2
        assert err.startswith("error: --alpha") and "must be finite" in err
        assert err.count("\n") == 1
        assert out == "" and not out_file.exists()

    @pytest.mark.parametrize("argv,alphas", [
        (["--alpha", "-1e-1"], [-0.1]),
        (["--alpha", "-.5"], [-0.5]),
        (["--alpha-min", "-1e-3", "--alpha-max", "2.5E-1", "--steps", "2"], [-1e-3, 0.25]),
    ])
    def test_classify_negative_orders_in_exponent_notation(self, capsys, tmp_path, argv,
                                                           alphas):
        body_file = tmp_path / "ball.json"
        run(capsys, "body", "make", "--shape", "ball", "--out", str(body_file))
        code, out, err = run(capsys, "body", "classify", "--input", str(body_file), *argv)
        assert code == 0 and err == ""
        assert [v["alpha"] for v in json.loads(out)["results"]] == alphas

    def test_classify_zero_steps_exits_2(self, capsys, tmp_path):
        body_file = tmp_path / "ball.json"
        run(capsys, "body", "make", "--shape", "ball", "--r", "1", "--n", "3",
            "--out", str(body_file))
        code, out, err = run(capsys, "body", "classify", "--input", str(body_file),
                             "--steps", "0")
        assert code == 2
        assert "--steps" in err
        assert out == ""

    def test_classify_single_alpha_on_lattice_exits_3(self, capsys, tmp_path):
        body_file = tmp_path / "ball.json"
        run(capsys, "body", "make", "--shape", "ball", "--r", "1", "--n", "3",
            "--out", str(body_file))
        code, out, err = run(capsys, "body", "classify", "--input", str(body_file),
                             "--alpha", "0")
        assert code == 3
        assert err.startswith("error:") and "lattice" in err
        assert out == ""

    def test_classify_excluded_single_alpha_skipped(self, capsys, tmp_path):
        body_file = tmp_path / "ball.json"
        run(capsys, "body", "make", "--shape", "ball", "--r", "1", "--n", "3",
            "--out", str(body_file))
        code, out, _ = run(capsys, "body", "classify", "--input", str(body_file),
                           "--alpha-min", "-0.5", "--alpha-max", "0.5",
                           "--steps", "3")
        assert code == 0
        report = json.loads(out)
        assert report["config"]["skipped_excluded"] == 1
        assert len(report["results"]) == 2

    @pytest.mark.parametrize("smooth", ["5", "1", "0", "-0.5", "nan"])
    def test_classify_bad_smooth_exits_2_when_no_order_runs(self, capsys, tmp_path, smooth):
        # the sweep's one order is excluded, so the library check never runs
        body_file = tmp_path / "ball.json"
        run(capsys, "body", "make", "--shape", "ball", "--out", str(body_file))
        code, out, err = run(capsys, "body", "classify", "--input", str(body_file),
                             "--alpha-min", "0", "--alpha-max", "0", "--steps", "1",
                             "--smooth", smooth)
        assert code == 2
        assert err.startswith("error: --smooth must be in (0, 1)") and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["--shape", "ball", "--resolution", "0"],
        ["--shape", "ellipsoid", "--axes", "1,1,2", "--resolution", "-3"],
        ["--shape", "ball", "--n", "5", "--resolution", "-5"],
        ["--shape", "lp_ball", "--n", "4", "--resolution", "-1"],
    ])
    def test_make_impossible_resolution_exits_2(self, capsys, tmp_path, argv):
        body_file = tmp_path / "body.json"
        code, out, err = run(capsys, "body", "make", *argv, "--out", str(body_file))
        assert code == 2
        assert err.startswith("error: resolution must be >=") and err.count("\n") == 1
        assert out == "" and not body_file.exists()

    def test_parser_defaults_are_the_library_constants(self):
        parser = cli.build_parser()
        classify = parser.parse_args(["body", "classify", "--input", "b.json"])
        make = parser.parse_args(["body", "make", "--shape", "ball", "--out", "b.json"])
        assert (classify.smooth, classify.margin) == (sb.DEFAULT_SMOOTHING,
                                                      sb.DEFAULT_MARGIN)
        assert make.resolution == sb.DEFAULT_RESOLUTION


# --- failure contract of the body subcommands that read files ---------------------

# bad input -> the exit code the README gives it: a file that cannot be opened is an
# argument error, one that holds no star body a representation mismatch
BAD_INPUTS = {"missing": 2, "not_json": 4, "not_utf8": 4, "json_list": 4,
              "grid_function": 4, "body_without_payload": 4, "zonal_body": 4,
              "zonal_2d_coeffs": 4, "dimension_mismatch": 4, "fractional_n": 4}
# subcommand -> its argv, with the bad file and a good grid body
BODY_READERS = {
    "intersect": lambda bad, good, out: ["intersect", "--input", bad, "--out", out],
    "classify": lambda bad, good, out: ["classify", "--input", bad, "--alpha", "0.5",
                                        "--out", out],
    "pair-check --k": lambda bad, good, out: ["pair-check", "--k", bad, "--l", good],
    "pair-check --l": lambda bad, good, out: ["pair-check", "--k", good, "--l", bad],
}


def _bad_input(path, case):
    """Write the bad input ``case`` to path (none for "missing")."""
    zonal = sb.make_body(5, "ball", resolution=4).to_dict()
    if case == "zonal_body":
        path.write_text(json.dumps(zonal))
    elif case == "zonal_2d_coeffs":
        zonal["payload"]["coeffs"] = [[1]]
        path.write_text(json.dumps(zonal))
    elif case == "dimension_mismatch":             # a body in R^5 on R^3 coefficients
        zonal["payload"]["n"] = 3
        path.write_text(json.dumps(zonal))
    elif case == "fractional_n":
        path.write_text(json.dumps({**sb.make_body(3, "ball", resolution=8).to_dict(),
                                    "n": 3.5}))
    elif case != "missing":
        payload = {
            "not_json": b"notes, not JSON\n",
            "not_utf8": b"\xff\xfe\x80{}",
            "json_list": b"[1, 2, 3]",
            "grid_function": json.dumps(_ones_grid().to_dict()).encode(),
            "body_without_payload": b'{"n": 3, "repr_kind": "grid", "meta": {}}',
        }[case]
        path.write_bytes(payload)


@pytest.mark.parametrize("reader,case", [
    pytest.param(reader, case, id=f"{reader}-{case}")
    for reader in BODY_READERS for case in BAD_INPUTS
    # classify takes zonal bodies; intersect and pair-check need grid bodies
    if not (reader == "classify" and case == "zonal_body")])
def test_bad_body_input_exits_with_its_documented_code(capsys, tmp_path, reader, case):
    good, bad, out = tmp_path / "ball.json", tmp_path / "bad.json", tmp_path / "out.json"
    save_object(sb.make_body(3, "ball", resolution=8), good)
    _bad_input(bad, case)
    code, stdout, err = run(capsys, "body", *BODY_READERS[reader](str(bad), str(good),
                                                                  str(out)))
    assert code == BAD_INPUTS[case]
    assert err.startswith("error:") and err.count("\n") == 1
    if case != "zonal_body":
        assert str(bad) in err              # the message names the file
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("call,says", [
    pytest.param(lambda: detect_kind({"values": [1.0]}), "not contain a known representation",
                 id="unknown_object"),
    pytest.param(lambda: integer_field({"L": 3.7}, "L"), "L must be an integer, got 3.7",
                 id="fractional"),
    pytest.param(lambda: integer_field({"L": "3"}, "L"), "L must be an integer, got '3'",
                 id="string"),
])
def test_file_field_checks(call, says):
    with pytest.raises(RepresentationError, match=says):
        call()


def test_grid_count_is_checked_before_the_grid_is_built(tmp_path, monkeypatch):
    # one value for a 1000 x 2000 grid: rejected without building the grid
    def no_rule(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(sphere, "gauss_jacobi_rule", no_rule)
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"grid": {"n_theta": 1000, "n_phi": 2000}, "values": [1.0]}))
    with pytest.raises(RepresentationError, match="need 2000000 values"):
        load_object(path)


def test_integer_field_accepts_integral_floats():
    for value in (3, 3.0):
        got = integer_field({"L": value}, "L")
        assert got == 3 and type(got) is int
