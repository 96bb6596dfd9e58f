import json
import math

import numpy as np
import pytest

import nekrasov.extreme
from nekrasov.cli import main
from nekrasov.io import _metadata_text
from nekrasov.kernel import KernelSpec, characteristic_values


def run(tmp_path, *argv):
    return main(["--out-dir" if a == "@out" else a for a in
                 [*argv, "--out-dir", str(tmp_path)]])


class TestEigs:
    def test_deep(self, tmp_path, capsys):
        assert run(tmp_path, "eigs", "--depth", "inf", "--kmax", "3") == 0
        out = capsys.readouterr().out
        assert "3, 6, 9" in out
        assert (tmp_path / "eigs.csv").exists()

    def test_finite(self, tmp_path, capsys):
        assert run(tmp_path, "eigs", "--depth", "0.1", "--kmax", "1") == 0
        value = float(capsys.readouterr().out.splitlines()[-1])
        assert value == pytest.approx(5.38702829, abs=1e-6)

    def test_kmax_zero_is_validation_error(self, tmp_path):
        assert run(tmp_path, "eigs", "--kmax", "0") == 2

    def test_bad_depth(self, tmp_path):
        assert run(tmp_path, "eigs", "--depth", "-2") == 2


class TestSeries:
    def test_order_two(self, tmp_path, capsys):
        assert run(tmp_path, "series", "--order", "2") == 0
        out = capsys.readouterr().out
        assert "1/9" in out
        assert "-8/243" in out
        assert "1/54" in out
        data = json.loads((tmp_path / "series.json").read_text())
        values = {(c["power"], c["mode"]): c["value"] for c in data["coefficients"]}
        assert values[(1, 1)] == "1/9"
        assert values[(2, 2)] == "1/54"

    def test_order_one(self, tmp_path, capsys):
        assert run(tmp_path, "series", "--order", "1") == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "sin" in l]
        assert len(lines) == 1
        assert lines[0].endswith("1/9")

    def test_unsupported_order(self, tmp_path):
        assert run(tmp_path, "series", "--order", "9") == 2


class TestSolveAndProfile:
    def test_solve_json(self, tmp_path):
        assert run(tmp_path, "solve", "--mu", "3.2", "--n", "256",
                   "--format", "json") == 0
        data = json.loads((tmp_path / "solution.json").read_text())
        assert data["metadata"]["mu"] == 3.2
        assert data["metadata"]["residual"] < 1e-11
        coeffs = np.array(data["coefficients"])
        assert coeffs[0] == pytest.approx(0.2 / 9 - 8 * 0.04 / 243, rel=0.01)

    def test_profile_csv(self, tmp_path):
        assert run(tmp_path, "profile", "--mu", "3.2", "--n", "256") == 0
        text = (tmp_path / "profile.csv").read_text()
        header = next(l for l in text.splitlines() if not l.startswith("#"))
        assert header == "theta,x,eta,R,q_over_q0"
        assert "# height:" in text
        height = float(next(l for l in text.splitlines()
                            if l.startswith("# height:")).split(":")[1])
        assert height > 0
        # x column emitted in increasing order
        rows = [l for l in text.splitlines() if not l.startswith(("#", "theta"))]
        x = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all(np.diff(x) > 0)

    def test_subcritical_profile_warns_but_succeeds(self, tmp_path, capsys):
        assert run(tmp_path, "profile", "--mu", "2.5", "--n", "128") == 0
        assert "subcritical" in capsys.readouterr().err

    def test_solve_past_the_seed_reach(self, tmp_path, capsys):
        # the series seed alone breaks down at mu = 10; the warm-start
        # ladder reaches it, and n = 512 resolves it
        assert run(tmp_path, "solve", "--mu", "10", "--format", "json") == 0
        data = json.loads((tmp_path / "solution.json").read_text())
        assert data["metadata"]["residual"] <= 1e-12
        assert "unresolved" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "profile"])
    def test_unresolved_solution_warns(self, tmp_path, capsys, command):
        # the crest layer at mu = 100 needs n = 2048
        assert run(tmp_path, command, "--mu", "100") == 0
        assert "warning: unresolved on n=512" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name", [("solve", "solution"),
                                               ("profile", "profile")])
    def test_unresolved_file_says_so(self, tmp_path, command, name):
        # still exit 0: an unresolved result is written, flagged, not refused
        assert run(tmp_path, command, "--mu", "100", "--format", "json") == 0
        meta = json.loads((tmp_path / f"{name}.json").read_text())["metadata"]
        assert meta["resolved"] is False
        assert meta["tail"] == pytest.approx(1.5e-5, rel=0.05)
        assert (meta["n"], meta["mu"]) == (512, 100.0)
        assert run(tmp_path, command, "--mu", "100") == 0
        header = _csv_metadata((tmp_path / f"{name}.csv").read_text())
        assert header["resolved"] == "False"
        assert float(header["tail"]) == meta["tail"]

    @pytest.mark.parametrize("command, name", [("solve", "solution"),
                                               ("profile", "profile")])
    def test_resolved_file_says_so(self, tmp_path, command, name):
        assert run(tmp_path, command, "--mu", "3.2", "--n", "256", "--format", "json") == 0
        meta = json.loads((tmp_path / f"{name}.json").read_text())["metadata"]
        assert meta["resolved"] is True
        assert meta["tail"] <= 1e-9
        assert meta["iterations"] >= 1 and meta["residual"] <= 1e-12
        assert "method" not in meta

    def test_negative_mu_is_validation_error(self, tmp_path):
        assert run(tmp_path, "solve", "--mu", "-3.0") == 2

    def test_infinite_tol_is_validation_error(self, tmp_path, capsys):
        # not a 0-iteration solve written out as "resolved"
        assert run(tmp_path, "solve", "--mu", "3.5", "--tol", "inf") == 2
        assert "tol must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "solution.csv").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--g", "nan"), ("--g", "-1"), ("--wavelength", "inf"), ("--wavelength", "0")])
    def test_bad_wavelength_or_g_is_validation_error(self, tmp_path, capsys, monkeypatch,
                                                     flag, value):
        # rejected before the solve, not after it
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started before --g and --wavelength were checked")

        monkeypatch.setattr(nekrasov.solver, "solve", no_solve)
        assert run(tmp_path, "profile", "--mu", "3.5", "--n", "64", flag, value,
                   "--format", "json") == 2
        assert "wavelength and g" in capsys.readouterr().err
        assert not (tmp_path / "profile.json").exists()


class TestBranch:
    def test_columns_and_determinism(self, tmp_path):
        assert run(tmp_path, "branch", "--mu-end", "4", "--out", "b1.csv") == 0
        assert run(tmp_path, "branch", "--mu-end", "4", "--out", "b2.csv") == 0
        b1 = (tmp_path / "b1.csv").read_bytes()
        assert b1 == (tmp_path / "b2.csv").read_bytes()
        text = b1.decode()
        header = next(l for l in text.splitlines() if not l.startswith("#"))
        assert header == ("mu,n,iterations,sup_norm,wave_height,residual,tail,"
                          "cone_ok,cone_max_violation,L")
        rows = [l.split(",") for l in text.splitlines()
                if not l.startswith(("#", "mu"))]
        sup = np.array([float(r[3]) for r in rows])
        resid = np.array([float(r[5]) for r in rows])
        assert np.all(np.diff(sup) > 0)
        assert resid.max() <= 1e-12
        assert all(r[7] == "true" for r in rows)

    def test_inverted_range_is_validation_error(self, tmp_path):
        assert run(tmp_path, "branch", "--mu-start", "5", "--mu-end", "4") == 2

    @pytest.mark.parametrize("mu_end", ["inf", "nan"])
    def test_non_finite_mu_end_is_validation_error(self, tmp_path, monkeypatch, mu_end):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started before the input was checked")

        monkeypatch.setattr(nekrasov.continuation, "_converge_resolved", no_solve)
        monkeypatch.setattr(nekrasov.continuation, "_seeded_guess", no_solve)
        assert run(tmp_path, "branch", "--mu-end", mu_end) == 2

    def test_infinite_tol_is_validation_error(self, tmp_path, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started before the input was checked")

        monkeypatch.setattr(nekrasov.continuation, "_converge_resolved", no_solve)
        monkeypatch.setattr(nekrasov.continuation, "_seeded_guess", no_solve)
        assert run(tmp_path, "branch", "--mu-end", "3.2", "--tol", "inf") == 2
        assert not (tmp_path / "branch.csv").exists()

    def test_start_past_the_seed_reach(self, tmp_path, capsys):
        # the series seed alone breaks down at mu = 10; the branch starts from
        # the warm-start ladder, as solve does
        assert run(tmp_path, "branch", "--mu-start", "10", "--mu-end", "12") == 0
        assert "truncated" not in capsys.readouterr().err

    def test_default_start_is_past_mu1_at_the_depth(self, tmp_path):
        # mu1 = 3 coth(2 pi h/lambda) is 3.01123 at h/lambda = 0.5, above
        # deep water's 3.01
        assert run(tmp_path, "branch", "--depth", "0.5", "--mu-end", "3.5",
                   "--format", "json") == 0
        data = json.loads((tmp_path / "branch.json").read_text())
        mu1 = float(characteristic_values(KernelSpec(depth_ratio=0.5), 1)[0])
        assert mu1 == pytest.approx(3.0 / math.tanh(math.pi), rel=1e-15)
        assert data["metadata"]["mu_start"] == mu1 + 0.01
        assert not data["metadata"]["truncated"]

    def test_json_payload(self, tmp_path):
        assert run(tmp_path, "branch", "--mu-end", "3.3", "--format", "json") == 0
        data = json.loads((tmp_path / "branch.json").read_text())
        assert not data["metadata"]["truncated"]
        assert all(p["cone_ok"] for p in data["points"])


@pytest.mark.parametrize("argv, name", [
    (["profile", "--mu", "3.5"], "profile.json"),
    (["branch", "--mu-end", "4"], "branch.json"),
], ids=["profile", "branch"])
def test_json_output_is_byte_identical_across_runs(tmp_path, argv, name):
    outputs = []
    for label in ("first", "second"):
        assert main([*argv, "--format", "json", "--out-dir", str(tmp_path / label)]) == 0
        outputs.append((tmp_path / label / name).read_bytes())
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])


def _is_stdlib_indent(text: str) -> bool:
    return text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("argv, name", [
    (["eigs", "--depth", "inf", "--kmax", "3", "--format", "json"], "eigs.json"),
    (["solve", "--mu", "3.2", "--n", "256", "--format", "json"], "solution.json"),
    (["branch", "--mu-end", "4", "--format", "json"], "branch.json"),
    (["series", "--order", "3"], "series.json"),
    (["profile", "--mu", "3.5", "--format", "json"], "profile.json"),
], ids=["eigs", "solve", "branch", "series", "profile"])
def test_json_layout_is_stdlib_indent(tmp_path, argv, name):
    assert run(tmp_path, *argv) == 0
    assert _is_stdlib_indent((tmp_path / name).read_text(encoding="utf-8"))


class TestExtreme:
    def test_direct_report(self, tmp_path, capsys):
        assert run(tmp_path, "extreme") == 0
        text = (tmp_path / "extreme.json").read_text(encoding="utf-8")
        assert _is_stdlib_indent(text)
        data = json.loads(text)
        assert data["crest_angle_estimate"] == pytest.approx(math.pi / 6, abs=0.01)
        assert data["jump"] == pytest.approx(math.pi / 3, abs=0.02)
        assert data["C1"] < 0 < data["C2"]
        assert data["beta1"] == pytest.approx(0.802679, abs=1e-6)
        assert data["beta1"] == nekrasov.extreme.GRANT_BETA1
        assert data["convexity"]["convex"] is True
        # the extreme profile is judged itself: no grid size, no proxy mu
        assert "n" not in data["metadata"]
        assert "mu" not in data["convexity"]
        # the graded solve's own record, with no strategy key and no per-mu list
        meta = data["metadata"]
        assert "strategy" not in meta and "per_mu" not in data
        assert meta["n_nodes"] == 600 and meta["iterations"] >= 1
        assert meta["kernel_spec"] == {"depth_ratio": "inf"}
        assert meta["residual"] <= 1e-11
        assert meta["sup_norm"] == pytest.approx(math.pi / 6, abs=1e-6)
        assert "crest angle estimate" in capsys.readouterr().out

    def test_strategy_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run(tmp_path, "extreme", "--strategy", "sequence")
        assert info.value.code == 2


# (subcommand, flag, value) for each flag a subcommand would ignore: eigs
# depends on the depth alone, series and extreme write JSON only, series
# takes no grid, extreme solves on its own graded mesh, and verify runs
# fixed checks that write no file
IGNORED_FLAGS = [
    ("solve", "--method", "newton"), ("eigs", "--n", "64"), ("eigs", "--tol", "1e-12"),
    ("series", "--depth", "inf"), ("series", "--n", "512"),
    ("series", "--tol", "1e-12"), ("series", "--format", "json"),
    ("extreme", "--n", "7"), ("extreme", "--tol", "5"), ("extreme", "--format", "json"),
    ("verify", "--depth", "inf"), ("verify", "--n", "512"), ("verify", "--tol", "1e-12"),
    ("verify", "--out-dir", "."), ("verify", "--format", "json"),
    ("verify", "--out", "verify.json"),
]
# the rest of a call that would succeed without the ignored flag
REQUIRED = {"solve": ["--mu", "3.2"], "verify": ["--fast"]}


@pytest.mark.parametrize("command, flag, value", IGNORED_FLAGS,
                         ids=[f"{c}{f}" for c, f, _ in IGNORED_FLAGS])
def test_ignored_flag_is_rejected(tmp_path, monkeypatch, command, flag, value):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NEKRASOV_OUT_DIR", raising=False)
    with pytest.raises(SystemExit) as info:
        main([command, *REQUIRED.get(command, []), flag, value])
    assert info.value.code == 2


class TestConfigFile:
    def test_config_merging_and_flag_priority(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu": 3.4, "n": 128}))
        assert main(["solve", "--config", str(cfg), "--format", "json",
                     "--out-dir", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "solution.json").read_text())
        assert data["metadata"]["mu"] == 3.4
        assert data["metadata"]["n"] == 128
        # explicit flag wins over the config value
        assert main(["solve", "--config", str(cfg), "--mu", "3.6",
                     "--format", "json", "--out-dir", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "solution.json").read_text())
        assert data["metadata"]["mu"] == 3.6

    @pytest.mark.parametrize("spelling", [["--config", "{}"], ["--config={}"],
                                          ["--conf", "{}"]])
    def test_every_config_spelling_is_read(self, tmp_path, spelling):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu": 3.4, "n": 128}))
        flags = [token.format(cfg) for token in spelling]
        assert run(tmp_path, "solve", "--mu", "3.2", *flags, "--format", "json") == 0
        meta = json.loads((tmp_path / "solution.json").read_text())["metadata"]
        assert (meta["n"], meta["mu"]) == (128, 3.2)
        # an explicit flag still wins over the file, before or after it
        assert run(tmp_path, "solve", "--mu", "3.2", *flags, "--n", "256",
                   "--format", "json") == 0
        assert json.loads((tmp_path / "solution.json").read_text())["metadata"]["n"] == 256
        assert run(tmp_path, "solve", "--n", "256", "--mu", "3.2", *flags,
                   "--format", "json") == 0
        assert json.loads((tmp_path / "solution.json").read_text())["metadata"]["n"] == 256

    def test_false_boolean_in_config_stays_false(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fast": False}))
        # verify --fast: False must not turn the flag on; run only the
        # argument plumbing by checking the parsed flags via a quick parse
        from nekrasov.cli import _load_config, build_parser
        argv = _load_config(["verify", "--config", str(cfg)])
        args = build_parser().parse_args(argv)
        assert args.fast is False

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_unreadable_config_is_validation_error(self, tmp_path, capsys, name):
        assert run(tmp_path, "solve", "--config", str(tmp_path / name)) == 2
        assert "--config" in capsys.readouterr().err

    def test_env_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NEKRASOV_OUT_DIR", str(tmp_path / "envout"))
        assert main(["eigs", "--kmax", "2"]) == 0
        assert (tmp_path / "envout" / "eigs.csv").exists()


def _csv_metadata(text: str) -> dict[str, str]:
    """The '# key: value' lines above a CSV file's columns."""
    lines = text.splitlines()
    head = lines[:next(i for i, l in enumerate(lines) if not l.startswith("#"))]
    return dict(l[2:].split(": ", 1) for l in head)


class TestMetadata:
    def test_header_block(self, tmp_path):
        run(tmp_path, "solve", "--mu", "3.2", "--n", "64")
        text = (tmp_path / "solution.csv").read_text()
        assert "# tool: nekrasov" in text
        assert "# version:" in text
        assert "# kernel_spec:" in text
        assert "# n: 64" in text

    @pytest.mark.parametrize("argv, stem", [
        (["eigs", "--depth", "0.5", "--kmax", "3"], "eigs"),
        (["solve", "--mu", "3.2", "--n", "128"], "solution"),
        (["solve", "--mu", "2.5", "--n", "64"], "solution"),
        (["branch", "--mu-end", "3.1", "--n", "128"], "branch"),
        (["profile", "--mu", "3.5", "--n", "128", "--wavelength", "100", "--g", "9.81"],
         "profile"),
    ], ids=["eigs", "solve", "solve-subcritical", "branch", "profile"])
    def test_csv_and_json_carry_the_same_metadata(self, tmp_path, argv, stem):
        # one metadata dict per output: the CSV's '#' lines hold the same
        # keys, in the same order, as the JSON's "metadata", and each value
        # is the JSON value in the CSV's text
        assert run(tmp_path, *argv) == 0
        assert run(tmp_path, *argv, "--format", "json") == 0
        header = _csv_metadata((tmp_path / f"{stem}.csv").read_text())
        meta = json.loads((tmp_path / f"{stem}.json").read_text())["metadata"]
        assert list(header) == list(meta)
        assert header == {key: _metadata_text(value) for key, value in meta.items()}

    @pytest.mark.parametrize("argv, stem, depth", [
        (["eigs", "--depth", "0.5", "--format", "json"], "eigs", 0.5),
        (["solve", "--mu", "3.2", "--n", "128", "--format", "json"], "solution", "inf"),
        (["branch", "--mu-end", "3.1", "--n", "128", "--format", "json"], "branch", "inf"),
        (["series", "--order", "2"], "series", "inf"),
        (["profile", "--mu", "3.5", "--n", "128", "--format", "json"], "profile", "inf"),
    ], ids=["eigs", "solve", "branch", "series", "profile"])
    def test_kernel_spec_is_the_depth_alone(self, tmp_path, argv, stem, depth):
        # the operator keeps the grid's n // 2 modes, and n is in the metadata
        assert run(tmp_path, *argv) == 0
        meta = json.loads((tmp_path / f"{stem}.json").read_text())["metadata"]
        assert meta["kernel_spec"] == {"depth_ratio": depth}

    def test_profile_csv_says_its_scale(self, tmp_path):
        assert run(tmp_path, "profile", "--mu", "3.5", "--n", "128",
                   "--wavelength", "100", "--g", "9.81") == 0
        header = _csv_metadata((tmp_path / "profile.csv").read_text())
        assert header["lambda"] == "100"
        assert header["g"] == "9.8100000000000005"

    def test_branch_metadata(self, tmp_path):
        assert run(tmp_path, "branch", "--mu-end", "3.1", "--n", "128") == 0
        header = _csv_metadata((tmp_path / "branch.csv").read_text())
        assert (header["n_start"], header["truncated"], header["failure"]) == (
            "128", "False", "None")
        assert "n" not in header

    def test_eigs_column_has_one_name(self, tmp_path):
        assert run(tmp_path, "eigs", "--kmax", "2") == 0
        assert run(tmp_path, "eigs", "--kmax", "2", "--format", "json") == 0
        csv_text = (tmp_path / "eigs.csv").read_text()
        assert "k,characteristic_value\n" in csv_text
        data = json.loads((tmp_path / "eigs.json").read_text())
        assert data["characteristic_value"] == [3.0, 6.0]
        assert "characteristic_values" not in data
