import cmath
import contextlib
import io
import json
import math
import warnings

import pytest

from pviso import cli, flow
from pviso.cli import main

ZERO_CFG = {
    "parameters": {
        "theta0": 0.0,
        "thetax": 0.0,
        "thetainf": 0.0,
        "c0": 1.0,
        "cx": 1.0,
        "sigma": 0.0,
    }
}

P1_CFG = {
    "parameters": {
        "theta0": 0.21,
        "thetax": 0.16,
        "thetainf": 0.11,
        "c0": 1.0,
        "cx": [0.7, 0.2],
        "sigma": [0.24, 0.05],
    }
}


# criterion 8's zero-lattice parameter set
P8Z_CFG = {
    "parameters": {
        "theta0": 0.45,
        "thetax": 0.05,
        "thetainf": 0.1,
        "c0": 1.0,
        "cx": 0.05,
        "sigma": 0.1,
    }
}

# criterion 8's pole-lattice parameter set
P8P_CFG = {
    "parameters": {
        "theta0": 0.05,
        "thetax": 0.45,
        "thetainf": 0.1,
        "c0": 1.0,
        "cx": 25.0,
        "sigma": 0.3,
    }
}


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(tmp_path, args):
    out = tmp_path / "out.json"
    rc = main(args + ["--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return rc, payload


def test_verify_zero_parameters_all_pass(tmp_path):
    cfg = _write(tmp_path, ZERO_CFG)
    rc, doc = _run(tmp_path, ["--config", cfg, "verify"])
    assert rc == 0
    assert doc["result"]["all_pass"]
    m0 = doc["result"]["monodromy"]["M0"]
    assert abs(m0[0][0][0] - 1.0) < 1e-9 and abs(m0[0][1][0]) < 1e-9
    mx = doc["result"]["monodromy"]["Mx"]
    assert abs(mx[1][1][0] - 1.0) < 1e-9
    diagnostics = doc["result"]["monodromy_diagnostics"]
    assert set(diagnostics) == {"R", "consistency_defect", "frame_truncation"}
    assert diagnostics["frame_truncation"] == 0.0


def test_zeros_table_seed_column(tmp_path):
    cfg = dict(P1_CFG)
    cfg["parameters"] = dict(cfg["parameters"], cx=-0.31 / 4.0, sigma=0.0)
    path = _write(tmp_path, cfg)
    csv = tmp_path / "rows.csv"
    rc, doc = _run(
        tmp_path,
        ["--config", path, "zeros", "--m-from", "10", "--m-to", "12", "--no-refine", "--csv", str(csv)],
    )
    assert rc == 0
    row = doc["result"]["table"][0]
    assert row["m"] == 10
    # seed = 2 m pi i - log(2 m pi i) for rho0 c = 1, sigma = 0
    assert abs(row["seed"][0] + math.log(20.0 * math.pi)) < 1e-9
    assert abs(row["seed"][1] - (20.0 * math.pi - math.pi / 2.0)) < 1e-9
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("# m,")
    assert len(lines) == 4


def test_lattice_smallness_reported(tmp_path):
    # README's example config fails the smallness heuristic; the JSON says so
    path = _write(tmp_path, P1_CFG)
    for command, level in (("zeros", 5.273), ("poles", 94.229)):
        rc, doc = _run(tmp_path, ["--config", path, command, "--m-to", "12", "--no-refine"])
        assert rc == 0
        smallness = doc["result"]["smallness"]
        assert round(smallness["score"], 2) == 2.16
        assert round(smallness["strip_level"], 3) == level
        assert smallness["pass"] is False


def test_zero_cx_lattice_exit_code():
    assert main([*P1_FLAGS, "--c0", "1", "--cx", "0", "zeros", "--no-refine"]) == 2


def test_resonant_lattice_exit_code():
    # rho0's denominator sigma + 2 theta0 - thetainf vanishes (zeros), and
    # rhoinf = -(sigma - 2 thetax + thetainf)/4 vanishes (poles)
    zeros = ["--theta0", "0.25", "--thetax", "0.16", "--thetainf", "0.5", "--sigma", "0"]
    poles = ["--theta0", "0.3", "--thetax", "0.25", "--thetainf", "0", "--sigma", "0.5"]
    for command, flags in (("zeros", zeros), ("poles", poles)):
        argv = [command, *flags, "--c0", "1", "--cx", "0.7", "--no-refine"]
        assert main(argv) == 2, command


def test_braid_roundtrip(tmp_path):
    cfg = _write(tmp_path, P1_CFG)
    rc, doc = _run(tmp_path, ["--config", cfg, "braid", "--steps", "2"])
    assert rc == 0
    shifted = doc["result"]["shifted"]
    rc2, doc2 = _run(
        tmp_path,
        ["--config", cfg, "braid", "--steps", "-2"],
    )
    assert rc2 == 0
    # +2 then -2 is the identity on the stored matrices; check against input
    orig = doc["result"]["input"]["M0"]
    back = None
    # feed the +2-shifted data through a -2 shift via config
    cfg2 = dict(P1_CFG)
    cfg2["options"] = {"monodromy": {"M0": shifted["M0"], "Mx": shifted["Mx"]}}
    path2 = _write(tmp_path, cfg2, "cfg2.json")
    rc3, doc3 = _run(tmp_path, ["--config", path2, "braid", "--steps", "-2"])
    assert rc3 == 0
    back = doc3["result"]["shifted"]["M0"]
    for i in range(2):
        for j in range(2):
            assert abs(back[i][j][0] - orig[i][j][0]) < 1e-10
            assert abs(back[i][j][1] - orig[i][j][1]) < 1e-10


def test_evaluate_and_determinism(tmp_path):
    cfg = _write(tmp_path, P1_CFG)
    zeros = ["--config", _write(tmp_path, P8Z_CFG, "p8z.json"), "zeros", "--m-to", "12"]
    args = [
        "--config",
        cfg,
        "evaluate",
        "--x-points",
        "40j;41j",
    ]
    tau, verify = (["--config", cfg, name] for name in ("tau", "verify"))
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for run in (zeros, tau, verify, args):
        assert main(run + ["--out", str(out1)]) == 0
        assert main(run + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    pt = doc["result"]["points"][0]
    assert pt["x"] == [0.0, 40.0]
    assert not pt["pole"]


def test_parser_built_once_per_process(capsys):
    # main reuses one parser: zeros, poles, then zeros again print the
    # bytes a freshly built parser gives, and argparse's own errors still
    # exit 2 in between
    def flags(cfg):
        return [f"--{key}={v}" for key, v in cfg["parameters"].items()]

    window = ["--m-from", "10", "--m-to", "12"]
    runs = [["zeros", *flags(P8Z_CFG), *window], ["poles", *flags(P8P_CFG), *window]]
    runs.append(runs[0])

    def run(argv):
        rc = main(argv)
        return rc, capsys.readouterr().out

    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert [rc for rc, _ in fresh] == [0, 0, 0] and fresh[0] == fresh[2]
    assert [run(argv) for argv in runs] == fresh
    for bad in (["zeros", "--no-such-flag"], ["no-such-command"], []):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    assert run(runs[1]) == fresh[1]
    assert cli._build_parser.cache_info().misses == 1


def test_evaluate_infinite_u_is_null(tmp_path):
    # at the zero pair A0_11 + theta0/2 vanishes, so u is infinite: it is
    # written as null, beside y's pole, and the JSON stays strict
    cfg = _write(tmp_path, ZERO_CFG)
    out = tmp_path / "u.json"
    assert main(["--config", cfg, "evaluate", "--x-points", "20j", "--out", str(out)]) == 0
    (point,) = _strict_json(out.read_text())["result"]["points"]
    assert point["u"] is None and point["y"] is None and point["pole"]


def test_config_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "verify"]) == 2


def test_non_object_config_exit_code(tmp_path):
    for cfg in ([], [ZERO_CFG], "x", 3):
        assert main(["--config", _write(tmp_path, cfg), "braid"]) == 2


def test_missing_parameters_exit_code(tmp_path):
    cfg = _write(tmp_path, {"parameters": {"theta0": 0.1}})
    assert main(["--config", cfg, "verify"]) == 2


def test_exit_code_table(tmp_path, capsys, deadline):
    # a non-finite x or x_points entry is a config error naming the option;
    # the series seeds no point with |x| < 20, and the segment from the
    # seed at 160i to -40i enters the unit disk (value errors: exit 2);
    # x = 1e300i overflows (exit 3).  Each case must return within 10 s,
    # so that a seeding loop that never ends fails here instead of hanging
    cfg = _write(tmp_path, P1_CFG)
    points = (("nan", 2), ("nan+nanj", 2), ("0", 2), ("19j", 2), ("-40j", 2), ("1e300j", 3))
    cases = [
        *((command, [f"--x={x}"], rc) for command in ("monodromy", "verify", "tau") for x, rc in points),
        *((command, ["--x-points=40j;nan"], 2) for command in ("flow", "evaluate")),
        ("evaluate", ["--x-points=5j"], 2),
        *((command, ["--m-from=1", "--m-to=2"], 0) for command in ("zeros", "poles")),
    ]
    for command, options, expected in cases:
        out = tmp_path / "out.json"
        out.unlink(missing_ok=True)
        deadline(10)
        rc = main(["--config", cfg, command, *options, "--out", str(out)])
        deadline(0)
        err = capsys.readouterr().err
        assert rc == expected, (command, options, err)
        if "nan" in options[0]:
            assert "config error: option x" in err, err
        if rc != 0:
            assert not out.exists()
            continue
        # m / log m has no value at m = 1: scaled_error is null there
        table = _strict_json(out.read_text())["result"]["table"]
        assert [row["scaled_error"] is None for row in table] == [True, False]


def test_thin_off_axis_exit_codes(tmp_path, capsys):
    # two off-axis points that fail by a thin margin, both exit 3: at x = 30
    # the flow's det_A0 drift exceeds its budget (2.06e-10 > 1.34e-10); at
    # x = -30+30i the first chord of the line from iR already has a
    # transfer of norm 2.5e5, past the cap, and the message names it
    cfg = _write(tmp_path, P1_CFG)
    assert main(["--config", cfg, "monodromy", "--x", "30"]) == 3
    assert "det_A0" in capsys.readouterr().err
    assert main(["--config", cfg, "verify", "--x=-30+30i"]) == 3
    err = capsys.readouterr().err
    assert "transfer norm" in err and "after chord 0 of the line from" in err, err


P1_FLAGS = [
    "--theta0", "0.21", "--thetax", "0.16", "--thetainf", "0.11",
    "--cx", "0.7+0.2i", "--sigma", "0.24+0.05i",
]


def test_zero_c0_braid_exit_code():
    assert main([*P1_FLAGS, "--c0", "0", "braid"]) == 2


def test_malformed_option_exit_code(tmp_path, capsys):
    # an integer option takes no bool and no fraction from a config, and a
    # positive one no bool (true would run as 1)
    for opts, command in (
        ({"tol": "x"}, "monodromy"),
        ({"steps": 2.9}, "braid"),
        ({"steps": math.inf}, "braid"),
        ({"m_from": True, "m_to": 3, "refine": False}, "zeros"),
        ({"m_from": 1, "m_to": 3.7, "refine": False}, "poles"),
        ({"root_tol": True}, "zeros"),
        ({"tol": True}, "monodromy"),
    ):
        cfg = _write(tmp_path, dict(P1_CFG, options=opts))
        assert main(["--config", cfg, command]) == 2, opts
        assert capsys.readouterr().err.startswith("config error:"), opts
    # a flag's text takes the same coercion: main returns 2, argparse
    # does not exit
    for flags in (
        ["monodromy", "--tol", "abc"],
        ["zeros", "--m-from", "x"],
        ["braid", "--steps", "2.5"],
    ):
        assert main([*P1_FLAGS, "--c0", "1", *flags]) == 2, flags


def test_flag_and_config_parse_alike(tmp_path, capsys):
    # a list option is a JSON list or ";"-separated text, from a flag or
    # the config alike, so config text "12" is h = 12, not h = 1 and 2
    for command, option, text, values in (
        ("tau", "h_values", "12", [12.0]),
        ("tau", "h_values", "0.02;0.01", [0.02, 0.01]),
        ("evaluate", "x_points", "40j", ["40j"]),
    ):
        flag = f"--{option.replace('_', '-')}"
        outputs = []
        for opts, flags in (({option: text}, []), ({option: values}, []), ({}, [flag, text])):
            cfg = _write(tmp_path, dict(P1_CFG, options=opts))
            assert main(["--config", cfg, command, *flags]) == 0, (opts, flags)
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2], (option, text)
        if option == "h_values":
            assert [row["h"] for row in json.loads(outputs[0])["result"]["sweep"]] == values


def test_nan_parameter_exit_code():
    assert main([*P1_FLAGS, "--c0", "nan", "braid"]) == 2


def test_empty_x_points_exit_code(tmp_path):
    # an empty list option is a config error, h_values too
    for opts, command in (
        ({"x_points": []}, "flow"),
        ({"x_points": []}, "evaluate"),
        ({"h_values": []}, "tau"),
        ({"h_values": ""}, "tau"),
    ):
        cfg = _write(tmp_path, dict(P1_CFG, options=opts))
        assert main(["--config", cfg, command]) == 2, opts


def test_zero_tol_exit_code():
    assert main([*P1_FLAGS, "--c0", "1", "monodromy", "--tol", "0"]) == 2


def test_negative_tol_exit_code():
    assert main([*P1_FLAGS, "--c0", "1", "flow", "--tol", "-1"]) == 2


def test_non_boolean_refine_exit_code(tmp_path):
    cfg = _write(tmp_path, dict(P1_CFG, options={"refine": "false"}))
    assert main(["--config", cfg, "zeros", "--m-from", "10", "--m-to", "10"]) == 2


def test_non_positive_options_exit_code(tmp_path):
    # every tolerance, radius and step must be finite and > 0
    for opts, command in (
        ({"radius": -5}, "monodromy"),
        ({"root_tol": 0}, "zeros"),
        ({"monodromy_tol": math.nan}, "verify"),
        ({"tol": math.inf}, "flow"),
        ({"h_values": [0.01, -1]}, "tau"),
    ):
        cfg = _write(tmp_path, dict(P1_CFG, options=opts))
        assert main(["--config", cfg, command]) == 2, opts
    assert main([*P1_FLAGS, "--c0", "1", "monodromy", "--radius", "-1"]) == 2


def _count_flow_steps(monkeypatch) -> dict:
    """Count the work of every flow transport from now on: the serial
    Taylor steps and the coefficient orders they build, and the batched
    passes of the shooting transport, its rounds (the fine passes, of
    order MAX_ORDER) and the members times orders of all its passes."""
    calls = {"steps": 0, "orders": 0, "passes": 0, "rounds": 0, "member_orders": 0}
    step, batch = flow._taylor_step, flow._taylor_batch

    def counting(*args):
        h, coefficients = step(*args)
        calls["steps"] += 1
        calls["orders"] += len(coefficients[0]) - 1
        return h, coefficients

    def counting_batch(xs, u, y, order):
        calls["passes"] += 1
        calls["rounds"] += order == flow.MAX_ORDER
        calls["member_orders"] += y.shape[1] * order
        return batch(xs, u, y, order)

    monkeypatch.setattr(flow, "_taylor_step", counting)
    monkeypatch.setattr(flow, "_taylor_batch", counting_batch)
    return calls


def test_zeros_feval_budget(tmp_path, monkeypatch):
    # criterion 8's lattices: every root comes from Newton on the degree-12
    # series, with no transport and so no anchor.  With one transport per
    # root the Taylor kernel took 186 steps of 3,326 orders for the zeros
    # and 153 of 2,836 for the poles (DOP853 made 13,279 and 12,525 field
    # calls); the largest seed truncation is 2.5e-11, at the zero m = 10
    calls = _count_flow_steps(monkeypatch)
    for command, cfg in (("zeros", P8Z_CFG), ("poles", P8P_CFG)):
        rc, doc = _run(tmp_path, ["--config", _write(tmp_path, cfg), command,
                                  "--m-from", "10", "--m-to", "40"])
        assert rc == 0 and "anchor" not in doc["result"]
        table = doc["result"]["table"]
        assert all(row["source"] == "series" for row in table)
        assert all(row["residual"] <= 1e-9 for row in table)
        assert all(row["root_error"] <= 1e-12 for row in table)
        assert all(0.0 < row["seed_truncation"] <= 1e-10 for row in table)
    assert calls == dict.fromkeys(calls, 0)


def test_zeros_mixed_sources(tmp_path):
    # P8Z's degree-12 truncation passes the drift budget at the zeros
    # m >= 7 only (6.9e-9 against 1.7e-9 at m = 6): the series batch
    # reaches m = 7..12, and the rows below are transported down from the
    # series root at m = 7 and carry its seed truncation; no row is
    # seeded on the axis, so there is no anchor
    cfg = _write(tmp_path, P8Z_CFG)
    rc, doc = _run(tmp_path, ["--config", cfg, "zeros", "--m-from", "3", "--m-to", "12"])
    assert rc == 0 and "anchor" not in doc["result"]
    table = doc["result"]["table"]
    assert [row["source"] for row in table] == ["transport"] * 4 + ["series"] * 6
    assert [row["seed_truncation"] for row in table[:5]] == [table[4]["seed_truncation"]] * 5
    assert all(row["residual"] <= 1e-9 and row["root_error"] <= 1e-12 for row in table)


def test_zeros_top_below_20i(tmp_path):
    # the |x| >= 20 rule guards user targets, not the lattice anchor: the
    # m = 3 zero lies near 13.98i and is still anchored from the axis
    cfg = _write(tmp_path, P8Z_CFG)
    rc, doc = _run(tmp_path, ["--config", cfg, "zeros", "--m-from", "3", "--m-to", "3"])
    assert rc == 0
    (row,) = doc["result"]["table"]
    assert row["seed"][1] < 20.0 and row["residual"] <= 1e-9
    assert row["source"] == "transport"
    assert row["seed_truncation"] == doc["result"]["anchor"]["seed_truncation"] > 0.0


def test_verify_feval_budget(tmp_path, monkeypatch):
    # the degree-5 series passes its drift budget at 160i, two doublings
    # above x = 40i (61,406 DOP853 field calls with a degree-3 seed at 300i
    # and a second transport from 600i, 7,693 from 160i; the serial Taylor
    # kernel took 39 steps of 1,167 orders).  The shooting transport cuts
    # the way to 40i into 43 segments, sized by two serial steps (at 160i
    # and at the series' 40i), and accepts its second fine pass after one
    # correction: 3 passes, 43 x 30 + 301 x 14 + 43 x 30 member orders
    calls = _count_flow_steps(monkeypatch)
    rc, doc = _run(tmp_path, ["--config", _write(tmp_path, P1_CFG), "verify"])
    assert rc == 0
    seed = doc["result"]["seed"]
    assert seed["seed_radius"] == 160.0 and seed["degree"] == 5
    assert 0.0 < seed["seed_truncation"] <= 1e-10
    assert calls == {"steps": 2, "orders": 60, "passes": 3, "rounds": 2, "member_orders": 6_794}


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_non_finite_braid_exit_code(tmp_path, capsys):
    # c0 = 1e300 overflows the shifted matrices: exit 3 and no output,
    # with no numpy warning on the way
    cfg = _write(tmp_path, P1_CFG)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, doc = _run(tmp_path, ["--config", cfg, "--c0", "1e300", "braid"])
    assert rc == 3 and doc is None
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_lattice_float_range_exit_code(tmp_path):
    # c0 = 1e300 makes the smallness score infinite; cx/c0 = 1e-400
    # underflows to 0, whose log no seed can take
    cfg = _write(tmp_path, P1_CFG)
    for command, flags in (
        ("zeros", ["--c0", "1e300"]),
        ("zeros", ["--c0", "1e200", "--cx", "1e-200"]),
        ("poles", ["--c0", "1e200", "--cx", "1e-200"]),
    ):
        rc, doc = _run(tmp_path, ["--config", cfg, command, "--no-refine", *flags])
        assert rc == 3 and doc is None, (command, flags)


def test_overflow_exit_code(tmp_path, capsys):
    # the closed form at theta0 = 200 (a factorial) or 300 (a Gamma
    # value) overflows a float; the message names the closed form and theta0
    for theta0 in ("200", "300"):
        rc, doc = _run(tmp_path, [*P1_FLAGS, "--c0", "1", "--theta0", theta0, "braid"])
        assert rc == 3 and doc is None
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: closed-form monodromy overflows at theta0 = ({theta0}+0j)")
        assert "Traceback" not in err


def test_non_finite_closed_form_exit_code(tmp_path, capsys):
    # at large |sigma| the closed form has inf and nan entries; the
    # message names it and sigma instead of a later division
    for sigma in ("400", "-400", "400i"):
        rc, doc = _run(tmp_path, [*P1_FLAGS, "--c0", "1", f"--sigma={sigma}", "braid"])
        assert rc == 3 and doc is None
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: closed-form monodromy is not finite at sigma = ")
        assert "Traceback" not in err


def test_seed_outside_strip_names_sigma(tmp_path, capsys):
    # near Re sigma = +-1 the strip holds the axis only beyond 1e100, and
    # at sigma = 3 nowhere: the seed fails with a message about sigma,
    # not about a seed radius the user never gave
    cfg = _write(tmp_path, P1_CFG)
    for sigma, held in (("0.99", "(1e+100, inf)"), ("3", "no point"), ("-0.99", "(1e+100, inf)")):
        rc, doc = _run(tmp_path, ["--config", cfg, "--sigma", sigma, "monodromy"])
        assert rc == 2 and doc is None
        err = capsys.readouterr().err
        assert err.startswith(f"config error: sigma = ({sigma}+0j): ") and held in err, err
        assert "Traceback" not in err


def test_cheap_commands_exit_code_contract():
    # any complex parameters, over many magnitudes: braid and the
    # unrefined lattices exit 0, 2, 3 or 4, and on 0 print strict JSON
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # each real and imaginary part is a mantissa times 10^e, with e = 0
    # about three times in four, so about a third of the runs succeed
    exponents = (0,) * 120 + tuple(range(-300, 301, 15))
    parts = st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12)
    scales = st.lists(st.sampled_from(exponents), min_size=12, max_size=12)
    commands = st.sampled_from((["braid"], ["zeros", "--no-refine"], ["poles", "--no-refine"]))

    @hypothesis.settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @hypothesis.given(parts, scales, commands)
    def check(mantissas, exps, command):
        v = [m * 10.0**e for m, e in zip(mantissas, exps)]
        flags = [
            f"--{key}={complex(v[2 * i], v[2 * i + 1])!r}"
            for i, key in enumerate(ZERO_CFG["parameters"])
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rc = main([*flags, *command])
        assert rc in (0, 2, 3, 4), (rc, err.getvalue())
        if rc == 0:
            _strict_json(out.getvalue())

    check()


def test_evaluate_exit_code_contract():
    # the commands that seed, transport and difference: over real thetas
    # and sigma and complex c0, cx of moduli 1e-3..1e3, evaluate, verify,
    # monodromy and tau at a point, and the refined zeros and poles on a
    # two-root window, exit 0, 2, 3 or 4, and on 0 print strict JSON
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    thetas = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
    # c0 and cx as (log10 modulus, argument)
    polar = st.tuples(st.floats(-3.0, 3.0), st.floats(-math.pi, math.pi))
    constants = st.lists(polar, min_size=2, max_size=2)
    sigmas = st.floats(-0.9, 0.9, exclude_min=True, exclude_max=True)
    points = st.sampled_from(("20j", "25j", "40j", "100j", "3+41j"))
    names = st.sampled_from(("evaluate", "verify", "monodromy", "tau", "zeros", "poles"))
    windows = st.integers(1, 12)

    @hypothesis.settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @hypothesis.given(thetas, constants, sigmas, names, points, windows)
    def check(theta, c, sigma, name, x, m):
        if name in ("zeros", "poles"):
            command = [name, "--m-from", str(m), "--m-to", str(m + 1)]
        else:
            command = [name, "--x-points" if name == "evaluate" else "--x", x]
        c0, cx = (cmath.rect(10.0**e, phi) for e, phi in c)
        values = (*theta, c0, cx, sigma)
        flags = [f"--{key}={complex(v)!r}" for key, v in zip(ZERO_CFG["parameters"], values)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([*flags, *command])
        assert rc in (0, 2, 3, 4), (rc, err.getvalue())
        if rc == 0:
            _strict_json(out.getvalue())

    check()
