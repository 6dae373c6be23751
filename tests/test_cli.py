import json
import math

import numpy as np
import pytest

from schwarzlab import bounds, harmonic, lemmas, metrics
from schwarzlab.cli import (_CSV_BLOCK, _CSV_DEDUP_SHARE, _write_csv, _write_json,
                            build_parser, main)
from schwarzlab.config import DEFAULT, spec_param
from schwarzlab.metrics import cosine_metric, curvature_at


@pytest.fixture
def specs(tmp_path):
    metric = tmp_path / "cosine.json"
    metric.write_text('{"kind": "cosine"}\n')
    boundary = tmp_path / "step.json"
    boundary.write_text('{"kind": "expression-preset", "name": "step"}\n')
    return {"metric": str(metric), "boundary": str(boundary), "dir": tmp_path}


def _summary(out):
    return json.loads((out / "summary.json").read_text())


def test_curvature_subcommand(specs):
    out = specs["dir"] / "o1"
    code = main(["curvature", "--metric", specs["metric"], "--out", str(out),
                 "--grid-n", "99"])
    assert code == 0
    summary = _summary(out)
    assert summary["is_nonnegative"]
    rows = np.loadtxt(out / "curvature.csv", delimiter=",", skiprows=1)
    assert rows.shape == (99, 2)
    assert np.array_equal(rows[:, 1], curvature_at(cosine_metric(), rows[:, 0]))
    assert rows[:, 1].min() == summary["min_curvature"]


def test_transform_subcommand(specs):
    out = specs["dir"] / "o2"
    code = main(["transform", "--metric", specs["metric"], "--out", str(out),
                 "--grid-n", "33"])
    assert code == 0
    summary = _summary(out)
    assert summary["mass"] == pytest.approx(2 / math.pi, abs=1e-10)
    assert summary["round_trip_max_error"] < 1e-9


def test_check_bounds_subcommand(specs):
    out = specs["dir"] / "o3"
    code = main(["check-bounds", "--metric", specs["metric"],
                 "--boundary", specs["boundary"], "--out", str(out)])
    assert code == 0
    summary = _summary(out)
    assert summary["gradient_bound"]["passed"]
    assert summary["effective_tolerances"]["slack_tol"] == 1e-9
    for name in ("gradient_bound", "unimodal_gradient_bound",
                 "arctan_radial_bound", "distance_contraction"):
        assert (out / f"{name}.csv").exists()


def test_malformed_metric_exits_2(specs, capsys):
    bad = specs["dir"] / "bad.json"
    bad.write_text('{"kind": oops\n')
    out = specs["dir"] / "o4"
    code = main(["curvature", "--metric", str(bad), "--out", str(out)])
    assert code == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_missing_file_exits_2(specs):
    code = main(["curvature", "--metric", str(specs["dir"] / "nope.json"),
                 "--out", str(specs["dir"] / "o5")])
    assert code == 2


def test_numeric_failure_exits_3(specs):
    hyp = specs["dir"] / "hyperbolic.json"
    hyp.write_text('{"kind": "hyperbolic"}\n')
    out = specs["dir"] / "o6"
    code = main(["transform", "--metric", str(hyp), "--out", str(out)])
    assert code == 3
    payload = json.loads((out / "error.json").read_text())
    assert payload["error_type"] == "NonIntegrable"


def test_gallery_negative_curvature_exits_1(specs):
    out = specs["dir"] / "o7"
    code = main(["gallery", "--name", "negative-curvature", "--n", "3",
                 "--out", str(out)])
    assert code == 1
    payload = json.loads((out / "gallery_negative-curvature.json").read_text())
    assert payload["computed"]["schwarz_quotient_origin"] == pytest.approx(3.0)


def test_sweep_psi(specs):
    out = specs["dir"] / "o8"
    code = main(["sweep", "--family", "psi", "--n-max", "50", "--out", str(out)])
    assert code == 0
    summary = _summary(out)
    assert summary["monotone"]
    rows = np.loadtxt(out / "psi_sweep.csv", delimiter=",", skiprows=1)
    assert rows.shape == (49, 4)


def test_sweep_r_ratio(specs):
    out = specs["dir"] / "o9"
    code = main(["sweep", "--family", "r-ratio", "--grid-n", "40",
                 "--out", str(out)])
    assert code == 0
    assert _summary(out)["max_ratio"] <= 1 + 1e-9


def test_lemma_diffeo(specs):
    out = specs["dir"] / "o10"
    code = main(["lemma", "--which", "diffeo", "--trials", "200", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    summary = _summary(out)
    assert summary["min_slack"] >= -1e-9
    assert summary["failures"] == 0


def test_lemma_unimodal(specs):
    out = specs["dir"] / "o11"
    code = main(["lemma", "--which", "unimodal", "--trials", "5", "--seed", "2",
                 "--out", str(out)])
    assert code == 0
    assert _summary(out)["min_slack"] >= -1e-9


def test_solve_subcommand(specs):
    out = specs["dir"] / "o12"
    code = main(["solve", "--metric", specs["metric"],
                 "--boundary", specs["boundary"], "--grid-n", "65",
                 "--out", str(out)])
    assert code == 0
    summary = _summary(out)
    assert summary["transform_vs_oracle_sup"] < 0.05  # step data: first order near jumps
    assert (out / "solution.csv").exists()


def test_tolerance_override_recorded(specs):
    out = specs["dir"] / "o13"
    code = main(["check-bounds", "--metric", specs["metric"],
                 "--boundary", specs["boundary"], "--out", str(out),
                 "--tolerance", "slack_tol=1e-6"])
    assert code == 0
    assert _summary(out)["effective_tolerances"]["slack_tol"] == 1e-6


def test_grid_radius_override_moves_the_ring_grid(specs):
    out = specs["dir"] / "o14"
    code = main(["check-bounds", "--metric", specs["metric"],
                 "--boundary", specs["boundary"], "--out", str(out),
                 "--tolerance", "grid_radius=0.5"])
    assert code == 0
    assert _summary(out)["radius"] == 0.5
    for name in ("gradient_bound", "unimodal_gradient_bound", "arctan_radial_bound"):
        rows = np.loadtxt(out / f"{name}.csv", delimiter=",", skiprows=1)
        assert np.max(np.hypot(rows[:, 0], rows[:, 1])) == pytest.approx(0.5, abs=1e-15)
    rows = np.loadtxt(out / "distance_contraction.csv", delimiter=",", skiprows=1)
    assert np.max(np.hypot(rows[:, 0], rows[:, 1])) <= 0.5
    with pytest.raises(SystemExit):
        main(["check-bounds", "--metric", specs["metric"],
              "--boundary", specs["boundary"], "--radius", "0.5"])


@pytest.mark.parametrize("override", ["grid_radius=1.5", "grid_radius=0",
                                      "grid_radii=0", "grid_angles=0",
                                      "grid_radii=nan", "fd_max_sweeps=inf"])
def test_bad_grid_tolerance_exits_2(specs, capsys, override):
    out = specs["dir"] / "o17"
    code = main(["check-bounds", "--metric", specs["metric"],
                 "--boundary", specs["boundary"], "--out", str(out),
                 "--tolerance", override])
    assert code == 2
    assert override.split("=")[0] in capsys.readouterr().err


def test_boundary_samples_override_is_applied(specs):
    slacks = []
    for i, samples in enumerate((1024, 512)):
        out = specs["dir"] / f"o15-{i}"
        assert main(["check-bounds", "--metric", specs["metric"],
                     "--boundary", specs["boundary"], "--out", str(out),
                     "--tolerance", f"boundary_samples={samples}"]) == 0
        summary = _summary(out)
        assert summary["effective_tolerances"]["boundary_samples"] == samples
        slacks.append(summary["gradient_bound"]["min_slack"])
    assert slacks[0] != slacks[1]


def test_equality_band_is_not_a_tolerance(specs, capsys):
    out = specs["dir"] / "o16"
    code = main(["check-bounds", "--metric", specs["metric"],
                 "--boundary", specs["boundary"], "--out", str(out),
                 "--tolerance", "equality_band=1.0"])
    assert code == 2
    assert "unknown tolerance 'equality_band'" in capsys.readouterr().err


def test_deterministic_summaries(specs):
    out_a = specs["dir"] / "da"
    out_b = specs["dir"] / "db"
    for out in (out_a, out_b):
        assert main(["check-bounds", "--metric", specs["metric"],
                     "--boundary", specs["boundary"], "--seed", "9",
                     "--out", str(out)]) == 0
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_output_dir_env(specs, monkeypatch):
    build_parser()      # the environment is read per run, not when the parser is built
    target = specs["dir"] / "env-out"
    monkeypatch.setenv("SCHWARZLAB_OUT", str(target))
    code = main(["curvature", "--metric", specs["metric"], "--grid-n", "33"])
    assert code == 0
    assert (target / "summary.json").exists()


def test_one_parser_reads_the_output_env_on_every_run(specs, monkeypatch):
    assert build_parser() is build_parser()
    for name in ("env-a", "env-b"):
        target = specs["dir"] / name
        monkeypatch.setenv("SCHWARZLAB_OUT", str(target))
        assert main(["sweep", "--family", "psi", "--n-max", "20"]) == 0
        assert (target / "psi_sweep.csv").exists()


def test_out_wins_over_the_output_env(specs, monkeypatch):
    monkeypatch.setenv("SCHWARZLAB_OUT", str(specs["dir"] / "env-unused"))
    out = specs["dir"] / "o30"
    assert main(["sweep", "--family", "psi", "--n-max", "20", "--out", str(out)]) == 0
    assert (out / "psi_sweep.csv").exists()
    assert not (specs["dir"] / "env-unused").exists()


SOLVE_HELP = """\
usage: schwarzlab solve [-h] --metric METRIC --boundary BOUNDARY [--out OUT]
                        [--tolerance NAME=VALUE] [--grid-n GRID_N]

options:
  -h, --help            show this help message and exit
  --metric METRIC       metric spec JSON
  --boundary BOUNDARY   boundary spec JSON
  --out OUT             output directory (default $SCHWARZLAB_OUT or
                        ./schwarzlab-out)
  --tolerance NAME=VALUE
                        override a named tolerance (repeatable)
  --grid-n GRID_N
"""


def test_solve_help_names_the_output_env_default(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(["solve", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out == SOLVE_HELP


def test_unknown_tolerance_is_invalid_input():
    from schwarzlab.config import DEFAULT
    from schwarzlab.errors import InvalidInput
    with pytest.raises(InvalidInput, match="unknown tolerance 'nope'"):
        DEFAULT.replaced(nope=1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["slack_tol", "fd_update_tol", "quad_abs_tol",
                                  "inverse_rel_tol"])
def test_non_finite_tolerance_is_invalid_input(name, value):
    from schwarzlab.config import DEFAULT, Tolerances
    from schwarzlab.errors import InvalidInput
    with pytest.raises(InvalidInput, match=f"tolerance '{name}' must be finite"):
        DEFAULT.replaced(**{name: value})
    with pytest.raises(InvalidInput, match=f"tolerance '{name}' must be finite"):
        Tolerances(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("slack_tol", -1e-9), ("quad_abs_tol", 0.0), ("quad_abs_tol", -1.0),
    ("inverse_rel_tol", 0.0), ("inverse_rel_tol", -1.0), ("fd_update_tol", 0.0),
    ("fd_update_tol", -1.0), ("fd_max_sweeps", 0), ("fd_max_sweeps", -5)])
def test_tolerance_outside_its_range_is_invalid_input(name, value):
    from schwarzlab.config import DEFAULT, Tolerances
    from schwarzlab.errors import InvalidInput
    with pytest.raises(InvalidInput, match=f"tolerance '{name}' must be"):
        DEFAULT.replaced(**{name: value})
    with pytest.raises(InvalidInput, match=f"tolerance '{name}' must be"):
        Tolerances(**{name: value})


@pytest.mark.parametrize("argv", [["sweep", "--family", "psi", "--n-max", "20"],
                                  ["gallery", "--name", "half-plane"],
                                  ["check-bounds", "--metric", "metric",
                                   "--boundary", "boundary"],
                                  ["curvature", "--metric", "metric"]])
@pytest.mark.parametrize("override", ["nope=1", "grid_radius=1.5", "grid_radii=2.7",
                                      "slack_tol=nan", "fd_update_tol=inf",
                                      "quad_abs_tol=nan", "slack_tol=-1",
                                      "quad_abs_tol=0", "inverse_rel_tol=-1",
                                      "fd_update_tol=0", "fd_max_sweeps=0"])
def test_bad_tolerance_exits_2_before_running(specs, capsys, argv, override):
    # sweep and gallery take no --tolerance at all: argparse exits 2
    argv = [specs.get(a, a) for a in argv]
    out = specs["dir"] / "o18"
    try:
        code = main(argv + ["--out", str(out), "--tolerance", override])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert override.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["sweep", "--family", "psi", "--n-max", "20"],
                                  ["gallery", "--name", "zero-curvature"]])
def test_sweep_and_gallery_record_no_tolerances(specs, argv):
    out = specs["dir"] / "o21"
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(out), "--tolerance", "slack_tol=1e-6"])
    assert info.value.code == 2
    assert not out.exists()
    assert main(argv + ["--out", str(out)]) == 0
    summary = _summary(out)
    assert summary["subcommand"] == argv[0]
    assert "effective_tolerances" not in summary


@pytest.mark.parametrize("name", ["quad_ceiling", "fd_fail_tol"])
def test_retired_tolerances_are_unknown(specs, capsys, name):
    out = specs["dir"] / "o31"
    code = main(["solve", "--metric", specs["metric"], "--boundary", specs["boundary"],
                 "--grid-n", "65", "--tolerance", f"{name}=1", "--out", str(out)])
    assert code == 2
    assert f"unknown tolerance {name!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["curvature", "solve", "sweep"])
def test_seed_goes_only_to_the_subcommands_that_read_it(specs, subcommand):
    argv = {"curvature": ["--metric", specs["metric"], "--grid-n", "33"],
            "solve": ["--metric", specs["metric"], "--boundary", specs["boundary"],
                      "--grid-n", "33"],
            "sweep": ["--family", "psi", "--n-max", "20"]}[subcommand]
    out = specs["dir"] / "o32"
    with pytest.raises(SystemExit) as info:
        main([subcommand, *argv, "--seed", "1", "--out", str(out)])
    assert info.value.code == 2
    assert main([subcommand, *argv, "--out", str(out)]) == 0
    assert "seed" not in _summary(out)


def test_tabulated_spec_in_params_form_exits_2(specs, capsys):
    spec = specs["dir"] / "tabulated.json"
    spec.write_text('{"kind": "tabulated", "params": {"u": [-1, 0, 1], "R": [1, 2, 1]}}')
    out = specs["dir"] / "o33"
    assert main(["transform", "--metric", str(spec), "--out", str(out)]) == 2
    assert "top-level 'u' and 'R'" in capsys.readouterr().err
    assert not out.exists()


def test_a_scaled_density_keeps_its_mass_and_its_bound(specs):
    # the bound |grad f| (1 - |z|^2) <= (4/pi)(1 - f^2) is invariant under
    # R -> cR, and so is the divergence verdict: a flat density of mass 2e12
    # gets its mass, its certificate chain and the slacks of the flat unit one
    wave = specs["dir"] / "wave.json"
    wave.write_text('{"kind": "expression-preset", "name": "cosine"}\n')
    slacks = []
    for value in (1.0, 2e12):
        spec = specs["dir"] / f"constant-{value:g}.json"
        spec.write_text(json.dumps({"kind": "constant", "params": {"value": value}}))
        out = specs["dir"] / f"o34-{value:g}"
        assert main(["transform", "--metric", str(spec), "--grid-n", "33",
                     "--out", str(out / "transform")]) == 0
        assert _summary(out / "transform")["mass"] == value
        assert main(["check-bounds", "--metric", str(spec), "--boundary", str(wave),
                     "--out", str(out / "bounds")]) == 0
        gradient = _summary(out / "bounds")["gradient_bound"]
        assert gradient["extras"]["mass"] == value
        assert gradient["extras"]["chain_checked"] is True
        slacks.append(gradient["min_slack"])
    assert abs(slacks[1] - slacks[0]) <= 1e-12


def test_integer_tolerances_take_only_integral_values():
    from schwarzlab.errors import InvalidInput
    for name in ("grid_radii", "grid_angles", "boundary_samples", "fd_max_sweeps"):
        assert getattr(DEFAULT.replaced(**{name: 48.0}), name) == 48
        with pytest.raises(InvalidInput, match=f"{name}.*needs an integer"):
            DEFAULT.replaced(**{name: 47.5})


@pytest.mark.parametrize("argv", [["lemma"], ["lemma", "--which", "both"],
                                  ["sweep", "--family", "nope"],
                                  ["gallery", "--name", "nope"],
                                  ["curvature"], ["solve", "--metric", "m.json"],
                                  # counts out of range
                                  ["sweep", "--family", "psi", "--n-max", "1"],
                                  ["curvature", "--metric", "m.json", "--grid-n", "0"],
                                  ["check-bounds", "--metric", "m.json",
                                   "--boundary", "b.json", "--seed", "-1"],
                                  ["lemma", "--which", "unimodal", "--trials", "0"],
                                  ["lemma", "--which", "diffeo", "--trials", "-3"]])
def test_argparse_rejects_missing_or_unknown_choices(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [["sweep", "--family", "r-ratio", "--k-max", "nan"],
                                  ["sweep", "--family", "r-ratio", "--k-max", "inf"],
                                  ["gallery", "--name", "strip", "--k", "nan"],
                                  ["gallery", "--name", "strip", "--k", "inf"],
                                  ["gallery", "--name", "zero-curvature", "--c", "nan"],
                                  ["gallery", "--name", "zero-curvature", "--c", "inf"]])
def test_non_finite_float_option_exits_2(specs, capsys, argv):
    out = specs["dir"] / "o29"
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(out)])
    assert info.value.code == 2
    assert "needs a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("which", ["n", "c", "k"])
def test_gallery_bad_parameter_exits_2(specs, capsys, which):
    name = {"n": "negative-curvature", "c": "zero-curvature", "k": "strip"}[which]
    out = specs["dir"] / "o21"
    assert main(["gallery", "--name", name, f"--{which}", "0", "--out", str(out)]) == 2
    assert f"{which} must be" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("kind, spec", [
    ("metric", {"kind": "exponential", "params": {"c": "x"}}),
    ("metric", {"kind": "exponential", "params": {"c": None}}),
    ("metric", {"kind": "lemma_psi_family", "params": {"a": 1, "s": 0.5, "epsilon": "x"}}),
    ("metric", {"kind": "tabulated", "u": ["a", "b", "c"], "R": [1, 1, 1]}),
    ("metric", {"kind": "cosine", "params": 3}),
    ("boundary", {"kind": "expression-preset", "name": "cosine",
                  "params": {"frequency": "x"}}),
    ("boundary", {"kind": "expression-preset", "name": "step",
                  "params": {"amplitude": [1]}}),
    ("boundary", {"kind": "samples", "theta": ["a", 1, 2], "values": [0, 0, 0]}),
    # booleans, non-finite values and fractional counts are not the numbers asked for
    ("metric", {"kind": "constant", "params": {"value": "nan"}}),
    ("metric", {"kind": "constant", "params": {"value": True}}),
    ("metric", {"kind": "exponential", "params": {"c": "inf"}}),
    ("metric", {"kind": "exponential", "params": {"c": float("nan")}}),
    ("boundary", {"kind": "expression-preset", "name": "cosine",
                  "params": {"frequency": 1.7}}),
    ("boundary", {"kind": "samples", "theta": [0, 2, 4], "values": [math.nan, 0.1, 0.2]}),
    ("boundary", {"kind": "samples", "theta": [0, math.nan, 4], "values": [0.0, 0.1, 0.2]}),
])
def test_non_numeric_spec_parameter_exits_2(specs, capsys, kind, spec):
    bad = specs["dir"] / "bad-spec.json"
    bad.write_text(json.dumps(spec))
    argv = {"metric": specs["metric"], "boundary": specs["boundary"], kind: str(bad)}
    out = specs["dir"] / "o22"
    assert main(["check-bounds", "--metric", argv["metric"], "--boundary",
                 argv["boundary"], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (out / "summary.json").exists()


def test_spec_param_takes_integral_counts():
    for value in (2, 2.0, "2"):
        count = spec_param({"frequency": value}, "frequency", 1, int)
        assert count == 2 and type(count) is int
    assert spec_param({}, "frequency", 1, int) == 1


@pytest.mark.parametrize("argv", [
    ["curvature", "--metric", {"kind": "constant", "params": {"value": -1}}],
    ["curvature", "--metric", {"kind": "lemma_psi_family", "params": {"a": 0.5, "s": 2}}],
    ["sweep", "--family", "r-ratio", "--k-max", "0"],
    # R^2 = e^(2cu) leaves the normal floats on (-1, 1) once |c| > 354.2
    ["curvature", "--metric", {"kind": "exponential", "params": {"c": 360}}],
    ["curvature", "--metric", {"kind": "exponential", "params": {"c": 1000}}],
    ["curvature", "--metric", {"kind": "exponential", "params": {"c": -360}}],
])
def test_parameter_out_of_range_exits_2(specs, capsys, argv):
    spec = specs["dir"] / "out-of-range.json"
    argv = list(argv)
    if isinstance(argv[-1], dict):
        spec.write_text(json.dumps(argv[-1]))
        argv[-1] = str(spec)
    out = specs["dir"] / "o25"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("subcommand", ["curvature", "transform", "check-bounds"])
@pytest.mark.parametrize("spec", [
    {"kind": "lemma_psi_family", "params": {"a": 1e300, "s": 1e-151}},
    {"kind": "lemma_psi_family", "params": {"a": 1e300, "s": 1e-151, "epsilon": 0.05}},
    {"kind": "constant", "params": {"value": 1e-320}},
    {"kind": "tabulated", "u": [-1, 0, 1], "R": [1e-320, 1e-320, 1e-320]},
], ids=["tent", "smoothed-tent", "constant", "tabulated"])
def test_metric_whose_density_overflows_exits_2(specs, capsys, subcommand, spec):
    # R^2 (or a tent's curvature atom) leaves the normal floats: refused at
    # construction, before any output
    metric = specs["dir"] / "overflow.json"
    metric.write_text(json.dumps(spec))
    argv = [subcommand, "--metric", str(metric)]
    if subcommand == "check-bounds":
        argv += ["--boundary", specs["boundary"]]
    out = specs["dir"] / "o31"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


_NAN, _INF = math.nan, math.inf

# Malformed specs, written with json.dumps (NaN and Infinity as the tokens
# json.load reads back)
MALFORMED_METRICS = {
    "not-an-object": [],
    "no-kind": {},
    "unknown-kind": {"kind": "nope"},
    "kind-not-a-string": {"kind": 3},
    "params-a-list": {"kind": "constant", "params": [1]},
    "constant-nan": {"kind": "constant", "params": {"value": _NAN}},
    "constant-inf": {"kind": "constant", "params": {"value": _INF}},
    "constant-minus-inf": {"kind": "constant", "params": {"value": -_INF}},
    "constant-huge": {"kind": "constant", "params": {"value": 1e300}},
    "constant-string": {"kind": "constant", "params": {"value": "abc"}},
    "constant-boolean": {"kind": "constant", "params": {"value": True}},
    "constant-negative": {"kind": "constant", "params": {"value": -1}},
    "constant-array": {"kind": "constant", "params": {"value": [1, 2]}},
    "exponential-no-rate": {"kind": "exponential"},
    "exponential-nan": {"kind": "exponential", "params": {"c": _NAN}},
    "exponential-huge": {"kind": "exponential", "params": {"c": 1e300}},
    "tent-no-s": {"kind": "lemma_psi_family", "params": {"a": 2}},
    "tent-inf": {"kind": "lemma_psi_family", "params": {"a": _INF, "s": 0.3}},
    "tent-s-outside": {"kind": "lemma_psi_family", "params": {"a": 2, "s": 2}},
    "tent-epsilon-nan": {"kind": "lemma_psi_family",
                         "params": {"a": 2, "s": 0.3, "epsilon": _NAN}},
    "tent-epsilon-negative": {"kind": "lemma_psi_family",
                              "params": {"a": 2, "s": 0.3, "epsilon": -0.1}},
    "tent-epsilon-tiny": {"kind": "lemma_psi_family",
                          "params": {"a": 2, "s": 0.3, "epsilon": 1e-300}},
    # just below the spline spacing 2/8192
    "tent-epsilon-below-spacing": {"kind": "lemma_psi_family",
                                   "params": {"a": 2, "s": 0.3, "epsilon": 2.4e-4}},
    "tabulated-no-R": {"kind": "tabulated", "u": [-1, 0, 1]},
    "tabulated-lengths": {"kind": "tabulated", "u": [-1, 0, 1], "R": [1, 1]},
    "tabulated-ragged": {"kind": "tabulated", "u": [[-1, 0], [1]], "R": [1, 1, 1]},
    "tabulated-nested": {"kind": "tabulated", "u": [[-1, 0, 1]], "R": [[1, 1, 1]]},
    "tabulated-duplicate": {"kind": "tabulated", "u": [-1, 0, 0, 1], "R": [1, 1, 1, 1]},
    "tabulated-unsorted": {"kind": "tabulated", "u": [-1, 0.5, 0, 1],
                           "R": [1, 1, 1, 1]},
    "tabulated-nan": {"kind": "tabulated", "u": [-1, 0, 1], "R": [1, _NAN, 1]},
    "tabulated-inf-u": {"kind": "tabulated", "u": [-_INF, 0, 1], "R": [1, 1, 1]},
    "tabulated-negative": {"kind": "tabulated", "u": [-1, 0, 1], "R": [1, -1, 1]},
    "tabulated-strings": {"kind": "tabulated", "u": ["a", "b", "c"], "R": [1, 1, 1]},
}

MALFORMED_BOUNDARIES = {
    "not-an-object": [],
    "no-kind": {},
    "unknown-kind": {"kind": "nope"},
    "samples-no-values": {"kind": "samples", "theta": [0, 1, 2]},
    "samples-inf-angle": {"kind": "samples", "theta": [0, _INF, 4],
                          "values": [0.1, 0.2, 0.3]},
    "samples-nan-value": {"kind": "samples", "theta": [0, 2, 4],
                          "values": [0.1, _NAN, 0.3]},
    "samples-lengths": {"kind": "samples", "theta": [0, 2, 4], "values": [0.1, 0.3]},
    "samples-ragged": {"kind": "samples", "theta": [[0, 2], [4]],
                       "values": [0.1, 0.2, 0.3]},
    "samples-nested": {"kind": "samples", "theta": [[0, 2, 4]],
                       "values": [[0.1, 0.2, 0.3]]},
    "samples-duplicate": {"kind": "samples", "theta": [0, 2, 2],
                          "values": [0.1, 0.2, 0.3]},
    "samples-too-few": {"kind": "samples", "theta": [0, 2], "values": [0.1, 0.2]},
    "samples-strings": {"kind": "samples", "theta": [0, 2, 4],
                        "values": ["a", "b", "c"]},
    "samples-huge": {"kind": "samples", "theta": [0, 2, 4],
                     "values": [1e300, 0.2, 0.3]},
    "preset-unknown": {"kind": "expression-preset", "name": "nope"},
    "preset-step-nan": {"kind": "expression-preset", "name": "step",
                        "params": {"amplitude": _NAN}},
    "preset-step-huge": {"kind": "expression-preset", "name": "step",
                         "params": {"amplitude": 1e300}},
    "preset-cosine-fractional": {"kind": "expression-preset", "name": "cosine",
                                 "params": {"frequency": 1.5}},
    "preset-cosine-inf": {"kind": "expression-preset", "name": "cosine",
                          "params": {"amplitude": _INF}},
    "preset-cosine-huge-frequency": {"kind": "expression-preset", "name": "cosine",
                                     "params": {"frequency": 1e300}},
    # half the 1024 boundary samples: the frequency aliases
    "preset-cosine-nyquist": {"kind": "expression-preset", "name": "cosine",
                              "params": {"frequency": -512}},
    "preset-cosine-huge-phase": {"kind": "expression-preset", "name": "cosine",
                                 "params": {"phase": 1e308}},
    "preset-cosine-phase-past-two-pi": {"kind": "expression-preset", "name": "cosine",
                                        "params": {"phase": 6.3}},
    "preset-constant-no-value": {"kind": "expression-preset", "name": "constant"},
    "preset-params-a-list": {"kind": "expression-preset", "name": "step", "params": [1]},
}


def _assert_refused(specs, capsys, argv):
    out = specs["dir"] / "o35"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("subcommand", ["curvature", "transform", "solve", "check-bounds"])
@pytest.mark.parametrize("spec", MALFORMED_METRICS.values(), ids=MALFORMED_METRICS)
def test_malformed_metric_spec_exits_2(specs, capsys, subcommand, spec):
    metric = specs["dir"] / "malformed-metric.json"
    metric.write_text(json.dumps(spec))
    argv = [subcommand, "--metric", str(metric)]
    if subcommand in ("solve", "check-bounds"):
        argv += ["--boundary", specs["boundary"]]
    _assert_refused(specs, capsys, argv)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("subcommand", ["solve", "check-bounds"])
@pytest.mark.parametrize("spec", MALFORMED_BOUNDARIES.values(), ids=MALFORMED_BOUNDARIES)
def test_malformed_boundary_spec_exits_2(specs, capsys, subcommand, spec):
    boundary = specs["dir"] / "malformed-boundary.json"
    boundary.write_text(json.dumps(spec))
    _assert_refused(specs, capsys, [subcommand, "--metric", specs["metric"],
                                    "--boundary", str(boundary)])


def test_zero_curvature_gallery_at_the_largest_rate_passes(specs):
    out = specs["dir"] / "o33"
    assert main(["gallery", "--name", "zero-curvature", "--c", "350", "--out", str(out)]) == 0
    payload = json.loads((out / "gallery_zero-curvature.json").read_text())
    assert payload["computed"]["max_abs_curvature"] == 0.0 and payload["passed"] is True


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exponential_rate_just_inside_the_float_range_runs(specs):
    spec = specs["dir"] / "exponential.json"
    spec.write_text('{"kind": "exponential", "params": {"c": 350}}')
    out = specs["dir"] / "o30"
    assert main(["curvature", "--metric", str(spec), "--out", str(out)]) == 0
    assert np.isfinite(_summary(out)["min_curvature"])


@pytest.mark.parametrize("subcommand", ["transform", "solve", "check-bounds"])
@pytest.mark.parametrize("spec", [
    {"kind": "half_plane_one_minus_exp"},
    {"kind": "tabulated", "u": [-0.5, 0.0, 0.5], "R": [1.0, 1.2, 1.0]},
], ids=["half-plane", "tabulated-half-width"])
def test_metric_off_the_unit_interval_exits_2(specs, capsys, subcommand, spec):
    metric = specs["dir"] / "off-unit.json"
    metric.write_text(json.dumps(spec))
    argv = [subcommand, "--metric", str(metric)]
    if subcommand != "transform":
        argv += ["--boundary", specs["boundary"]]
    out = specs["dir"] / "o26"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "(-1, 1)" in err and "Traceback" not in err
    assert not (out / "summary.json").exists()


def test_internal_value_error_is_not_an_input_error(specs, monkeypatch):
    import schwarzlab.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(cli.bounds_mod, "check_gradient_bound", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["check-bounds", "--metric", specs["metric"], "--boundary",
              specs["boundary"], "--out", str(specs["dir"] / "o24")])


def test_internal_key_error_is_not_an_input_error(specs, monkeypatch):
    import schwarzlab.cli as cli

    def broken(spec):
        raise KeyError("internal")

    monkeypatch.setattr(cli.metrics_mod, "metric_from_json", broken)
    with pytest.raises(KeyError):
        main(["curvature", "--metric", specs["metric"], "--out", str(specs["dir"] / "o20")])


def test_solve_compares_like_oracle_sup_difference(specs):
    from schwarzlab.harmonic import oracle_sup_difference, step_boundary
    out = specs["dir"] / "o19"
    assert main(["solve", "--metric", specs["metric"], "--boundary", specs["boundary"],
                 "--grid-n", "65", "--out", str(out),
                 "--tolerance", "inverse_rel_tol=1e-2"]) == 0
    tols = DEFAULT.replaced(inverse_rel_tol=1e-2)
    assert _summary(out)["transform_vs_oracle_sup"] == oracle_sup_difference(
        cosine_metric(), step_boundary(), 65, tols=tols)


def _artifacts(out):
    """Every output but the timing file, with the recorded tolerances dropped."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.name == "summary.json":
            summary = _summary(out)
            summary.pop("effective_tolerances")
            files[path.name] = summary
        elif path.name != "metadata.json":
            files[path.name] = path.read_bytes()
    return files


# One case per Tolerances field, on a subcommand that reads it: (field,
# subcommand arguments, the override, and the exit codes without and with
# it).  Equal exit codes mean the artifacts must differ.
TOLERANCE_CASES = [
    ("quad_abs_tol", ["check-bounds"], "1e-3", (0, 0)),
    ("inverse_rel_tol", ["solve", "--grid-n", "65"], "1e-2", (0, 0)),
    ("slack_tol", ["check-bounds"], "1e-13", (0, 0)),
    ("fd_update_tol", ["solve", "--grid-n", "65"], "1e-4", (0, 0)),
    ("fd_max_sweeps", ["solve", "--grid-n", "65"], "3", (0, 3)),
    ("boundary_samples", ["check-bounds"], "512", (0, 0)),
    ("grid_radii", ["check-bounds"], "12", (0, 0)),
    ("grid_angles", ["check-bounds"], "48", (0, 0)),
    ("grid_radius", ["check-bounds"], "0.5", (0, 0)),
]


def test_tolerance_cases_cover_every_field():
    from dataclasses import fields
    from schwarzlab.config import Tolerances
    assert sorted(case[0] for case in TOLERANCE_CASES) == sorted(
        f.name for f in fields(Tolerances))


@pytest.mark.parametrize("name, argv, value, codes", TOLERANCE_CASES,
                         ids=[case[0] for case in TOLERANCE_CASES])
def test_every_tolerance_is_applied(specs, name, argv, value, codes):
    tent = specs["dir"] / "tent.json"
    tent.write_text('{"kind": "lemma_psi_family", "params": {"a": 2.0, "s": 0.3}}\n')
    argv = [str(tent) if a == "tent" else a for a in argv]
    if "--metric" not in argv:
        argv += ["--metric", specs["metric"]]
    if argv[0] in ("solve", "check-bounds"):
        argv += ["--boundary", specs["boundary"]]
    runs = []
    for i, extra in enumerate(([], ["--tolerance", f"{name}={value}"])):
        out = specs["dir"] / f"t-{name}-{i}"
        runs.append((main(argv + extra + ["--out", str(out)]), out))
    assert (runs[0][0], runs[1][0]) == codes
    if codes[0] == codes[1]:
        assert _artifacts(runs[0][1]) != _artifacts(runs[1][1])
        assert _summary(runs[1][1])["effective_tolerances"][name] == float(value)


def _bare_tent(a, s):
    return {"kind": "lemma_psi_family", "params": {"a": a, "s": s}}


@pytest.mark.parametrize("metric, chain_checked, code", [
    pytest.param({"kind": "cosine"}, True, 0, id="cosine-True"),
    pytest.param({"kind": "secant"}, False, 0, id="secant-False"),
    # the 4/pi bound fails here, on a metric with negative atoms at +-0.1
    pytest.param(_bare_tent(81, 0.1), False, 1, id="tent-False")])
def test_chain_checked_is_written_as_a_boolean(specs, metric, chain_checked, code):
    spec = specs["dir"] / "metric.json"
    spec.write_text(json.dumps(metric))
    wave = specs["dir"] / "wave.json"
    wave.write_text('{"kind": "expression-preset", "name": "cosine"}\n')
    out = specs["dir"] / "o27"
    assert main(["check-bounds", "--metric", str(spec), "--boundary", str(wave),
                 "--out", str(out)]) == code
    raw = (out / "summary.json").read_text()
    assert f'"chain_checked": {json.dumps(chain_checked)}' in raw
    gradient = _summary(out)["gradient_bound"]
    assert gradient["extras"]["chain_checked"] is chain_checked
    assert any("not certified non-negative curvature" in w
               for w in gradient["warnings"]) is not chain_checked


@pytest.mark.parametrize("a, s", [(2.0, 0.3), (81.0, 0.1), (0.5, 0.5)])
def test_curvature_and_check_bounds_agree_on_a_bare_tent(specs, a, s):
    spec = specs["dir"] / "tent.json"
    spec.write_text(json.dumps(_bare_tent(a, s)))
    wave = specs["dir"] / "wave.json"
    wave.write_text('{"kind": "expression-preset", "name": "cosine"}\n')
    curv, bounds_out = specs["dir"] / "o28-curvature", specs["dir"] / "o28-bounds"
    assert main(["curvature", "--metric", str(spec), "--out", str(curv)]) == 0
    main(["check-bounds", "--metric", str(spec), "--boundary", str(wave),
          "--out", str(bounds_out)])
    wing = -2.0 * a / (1.0 - a * s * s) ** 3
    summary = _summary(curv)
    assert summary["is_nonnegative"] is False
    assert (summary["min_curvature"], summary["worst_u"]) == ("-Infinity", -s)
    assert summary["negative_atoms"] == [[-s, wing], [s, wing]]
    checked = _summary(bounds_out)
    for key in ("gradient_bound", "distance_contraction"):
        assert checked[key]["extras"]["negative_atoms"] == [[-s, wing], [s, wing]]
        assert checked[key]["extras"]["min_curvature"] == "-Infinity"
    assert checked["gradient_bound"]["extras"]["chain_checked"] is False


def test_infinite_mass_is_written_as_strict_json(specs):
    spec = specs["dir"] / "secant.json"
    spec.write_text('{"kind": "secant"}')
    wave = specs["dir"] / "wave.json"
    wave.write_text('{"kind": "expression-preset", "name": "cosine"}\n')
    out = specs["dir"] / "o28"
    assert main(["check-bounds", "--metric", str(spec), "--boundary", str(wave),
                 "--out", str(out)]) == 0

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
    assert summary["gradient_bound"]["extras"]["mass"] == "Infinity"
    assert float(summary["gradient_bound"]["extras"]["mass"]) == math.inf


@pytest.mark.parametrize("value, text", [(math.inf, '"Infinity"'), (-math.inf, '"-Infinity"'),
                                         (math.nan, '"NaN"'), (np.float32(-math.inf), '"-Infinity"'),
                                         (np.float64(0.1), "0.1"), (-0.0, "-0.0"),
                                         (np.bool_(True), "true"), (np.int64(3), "3")])
def test_json_values_are_strict(tmp_path, value, text):
    _write_json(tmp_path / "x.json", {"a": [value], "b": (value,), "c": {"d": value}})
    raw = (tmp_path / "x.json").read_text()
    assert raw.count(text) == 3
    json.loads(raw, parse_constant=lambda token: pytest.fail(token))


def _per_row(header, columns) -> bytes:
    """CSV text built one row at a time: `%.17g` values, commas, LF ends."""
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


def _curvature_columns():
    grid = np.linspace(-1.0 + 2e-3, 1.0 - 2e-3, 99)
    report = metrics.log_concavity_report(cosine_metric(), grid)
    return {"curvature.csv": (["u", "curvature"], [grid, report.curvature])}


def _transform_columns():
    grid = np.linspace(-1.0 + 1e-6, 1.0 - 1e-6, 33)
    h = metrics.transform_table(cosine_metric()).h(grid)
    return {"transform.csv": (["u", "H"], [grid, h])}


def _solve_columns():
    grid = harmonic.fd_solve_oracle(cosine_metric(), harmonic.step_boundary(), 65)
    pts, vals = grid.interior_points()
    return {"solution.csv": (["x", "y", "f"], [pts.real, pts.imag, vals])}


def _check_bounds_columns():
    m, b = cosine_metric(), harmonic.step_boundary()
    grid = bounds.ring_grid()
    reports = {"gradient_bound": bounds.check_gradient_bound(m, b, grid)}
    reports["unimodal_gradient_bound"], reports["arctan_radial_bound"] = (
        bounds.check_unimodal_bounds(m, b, grid))
    reports["distance_contraction"] = bounds.check_distance_contraction(
        m, b, bounds.random_disk_pairs(0, 1000, DEFAULT.grid_radius))
    return {f"{key}.csv": (["z_re", "z_im", "lhs", "rhs", "slack"],
                           [rep.z.real, rep.z.imag, rep.lhs, rep.rhs, rep.slack])
            for key, rep in reports.items()}


def _psi_columns():
    return {"psi_sweep.csv": (["n", "s", "u", "ratio"], lemmas.psi_sweep(50))}


def _r_ratio_columns():
    ks = np.linspace(20.0 / 40, 20.0, 40)
    xs = np.linspace(0.0, 0.999, 40)
    vals = lemmas.r_ratio(ks[:, None], xs[None, :])
    rows = [(k, x, vals[i, j]) for i, k in enumerate(ks) for j, x in enumerate(xs)]
    return {"r_ratio_sweep.csv": (["k", "x", "r_ratio"], list(zip(*rows)))}


CSV_CASES = {
    "curvature": (["curvature", "--metric", "metric", "--grid-n", "99"],
                  _curvature_columns),
    "transform": (["transform", "--metric", "metric", "--grid-n", "33"],
                  _transform_columns),
    "solve": (["solve", "--metric", "metric", "--boundary", "boundary",
               "--grid-n", "65"], _solve_columns),
    "check-bounds": (["check-bounds", "--metric", "metric", "--boundary", "boundary"],
                     _check_bounds_columns),
    "sweep-psi": (["sweep", "--family", "psi", "--n-max", "50"], _psi_columns),
    "sweep-r-ratio": (["sweep", "--family", "r-ratio", "--grid-n", "40"],
                      _r_ratio_columns),
}


@pytest.mark.parametrize("case", list(CSV_CASES))
def test_every_csv_is_the_per_row_17g_text_of_its_columns(specs, case):
    argv, expected = CSV_CASES[case]
    out = specs["dir"] / f"o28-{case}"
    assert main([specs.get(a, a) for a in argv] + ["--out", str(out)]) == 0
    files = expected()
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(files)
    for name, (header, columns) in files.items():
        raw = (out / name).read_bytes()
        assert raw.startswith((",".join(header) + "\n").encode()), name
        assert b"\r" not in raw, name
        assert raw == _per_row(header, columns), name


@pytest.mark.parametrize("rows", [0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, 2 * _CSV_BLOCK + 1])
def test_csv_blocks_join_into_the_per_row_text(tmp_path, rows):
    rng = np.random.default_rng(rows)
    special = np.resize([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300], rows)
    columns = [rng.normal(size=rows), rng.uniform(-1.0, 1.0, rows) ** 7, special]
    path = tmp_path / "blocks.csv"
    _write_csv(path, ["a", "b", "c"], columns)
    assert path.read_bytes() == _per_row(["a", "b", "c"], columns)


def _per_block_column(rows, distinct, rng):
    """A column whose every `_CSV_BLOCK` rows cycle through `distinct(size)`
    fresh normal draws, so the set of values changes from block to block."""
    parts = [np.empty(0)]
    for start in range(0, rows, _CSV_BLOCK):
        size = min(_CSV_BLOCK, rows - start)
        count = distinct(size)
        parts.append(rng.normal(size=count)[np.arange(size) % count])
    return np.concatenate(parts)


@pytest.mark.parametrize("rows", [0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, 2 * _CSV_BLOCK + 1])
def test_csv_columns_of_few_values_join_into_the_per_row_text(tmp_path, rows):
    rng = np.random.default_rng(rows)
    grid = np.linspace(-1.0, 1.0, 101)[1:-1]
    # -nan: a second NaN bit pattern, formatted "nan" as well
    special = np.resize([0.0, -0.0, np.nan, np.inf, 5e-324, 0.0, -np.nan, -0.0], rows)
    columns = [np.resize(np.repeat(grid, 83), rows),    # x of solution.csv
               np.resize(grid, rows),                   # its y
               special,
               # the largest share of distinct values that is deduplicated,
               # and one value past it
               _per_block_column(rows, lambda size: max(int(_CSV_DEDUP_SHARE * size), 1), rng),
               _per_block_column(rows, lambda size: int(_CSV_DEDUP_SHARE * size) + 1, rng),
               rng.normal(size=rows)]
    header = ["x", "y", "special", "at", "past", "unique"]
    path = tmp_path / "dedup.csv"
    _write_csv(path, header, columns)
    assert path.read_bytes() == _per_row(header, columns)
