import itertools
import json
import warnings

import numpy as np
import pytest

from povmkit import (
    AspectConfig,
    MarginalSet,
    NoSignalingError,
    bell_state,
    check_martens,
    chsh_value,
    joint_exists,
    joint_probabilities,
    serialize,
    solve_nonideality,
    standard_composite,
)
from povmkit.cli import _chsh_report_dict, main
from povmkit.srt import (
    SrtConfig,
    interference_pvm,
    path_pvm,
    srt_bivariate,
)

from helpers import (
    NEGATIVE_CELL_BOX,
    TSIRELSON_ANGLES,
    oracle_cells_csv,
    oracle_chsh_csv_lines,
    oracle_fmt,
)

TSIRELSON_ANGLE_ARG = "0,0.7853981633974483,0.39269908169872414,1.1780972450961724"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_subcommand_exits_64(capsys):
    code, _, err = run(capsys, "nonsense")
    assert code == 64
    assert "unknown subcommand" in err


def test_missing_flags_exit_65(capsys):
    code, _, err = run(capsys, "srt")
    assert code == 65
    assert "absorber" in err


def test_invalid_range_exits_65(capsys):
    code, _, err = run(capsys, "srt", "--absorber", "1.5", "--emit", "povm")
    assert code == 65


class TestSrt:
    def test_sweep_three_points(self, capsys):
        code, out, _ = run(capsys, "srt", "sweep", "--points", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,J_lambda,J_mu,bound,slack"
        rows = [line.split(",") for line in lines[1:]]
        grid = [float(row[0]) for row in rows]
        assert grid == [0.0, 0.5, 1.0]
        slack = [float(row[4]) for row in rows]
        assert all(s >= -1e-9 for s in slack)
        assert abs(slack[0]) <= 1e-9 and abs(slack[-1]) <= 1e-9

    def test_sweep_to_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "srt", "sweep", "--points", "5", "--out", str(target))
        assert code == 0
        assert out == ""
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 6

    def test_emit_povm_round_trips(self, capsys):
        code, out, _ = run(capsys, "srt", "--absorber", "0.3", "--emit", "povm")
        assert code == 0
        recovered = serialize.measure_from_dict(json.loads(out))
        expected = serialize.measure_to_dict(recovered)
        assert json.loads(out) == expected

    def test_sweep_two_points_is_the_smallest_grid(self, capsys):
        code, out, _ = run(capsys, "srt", "sweep", "--points", "2")
        assert code == 0
        assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["0", "1"]

    @pytest.mark.parametrize(("emit", "n_elements", "index_shape"),
                             [("povm", 3, None), ("bivariate", 4, [2, 2])])
    def test_emit_chooses_the_arrangement(self, capsys, emit, n_elements, index_shape):
        code, out, _ = run(capsys, "srt", "--absorber", "0.3", "--emit", emit)
        assert code == 0
        record = json.loads(out)
        assert (len(record["elements"]), record["index_shape"]) == (n_elements, index_shape)

    def test_emit_probabilities_needs_state(self, capsys, tmp_path):
        code, _, err = run(capsys, "srt", "--absorber", "0.3", "--emit", "probabilities")
        assert code == 65
        state_path = tmp_path / "state.json"
        serialize.dump_json(serialize.state_to_dict(bell_state()), state_path)
        # Wrong dimension: the interferometer state space is 2-dimensional.
        code, _, err = run(
            capsys,
            "srt", "--absorber", "0.3", "--emit", "probabilities",
            "--state", str(state_path),
        )
        assert code == 65

    def test_emit_probabilities_on_open_path_state(self, capsys, tmp_path):
        from povmkit import State

        state_path = tmp_path / "plus.json"
        serialize.dump_json(serialize.state_to_dict(State.pure([1.0, 0.0])), state_path)
        code, out, _ = run(
            capsys,
            "srt", "--absorber", "0.5", "--emit", "probabilities",
            "--state", str(state_path),
        )
        assert code == 0
        table = serialize.table_from_dict(json.loads(out))
        assert table.values == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)


    @pytest.mark.parametrize(
        "argv",
        [("srt", "sweep", "--phase", "inf"),
         ("srt", "--absorber", "0.5", "--phase", "inf", "--emit", "povm")],
        ids=["sweep", "emit-povm"],
    )
    def test_infinite_phase_exits_65_as_a_nan_phase_does(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert (code, out) == (65, "")
        assert err == "error: phase is non-finite: inf\n"
        assert "Warning" not in err and caught == []


class TestMeasureValidate:
    def test_valid_measure(self, capsys, tmp_path):
        path = tmp_path / "measure.json"
        serialize.dump_json(serialize.measure_to_dict(srt_bivariate(SrtConfig(0.5))), path)
        code, out, _ = run(capsys, "measure", "validate", str(path))
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_invalid_measure(self, capsys, tmp_path):
        path = tmp_path / "measure.json"
        bad = {
            "labels": [0, 1],
            "index_shape": None,
            "elements": [
                serialize.matrix_to_dict(np.diag([0.5, 0.5])),
                serialize.matrix_to_dict(np.diag([0.4, 0.5])),
            ],
        }
        serialize.dump_json(bad, path)
        code, out, _ = run(capsys, "measure", "validate", str(path))
        assert code == 1
        report = json.loads(out)
        assert report["valid"] is False
        assert any("identity" in v for v in report["violations"])

    @pytest.mark.parametrize(
        ("elements", "expected"),
        [
            (
                [[[0.5, 0.6j], [-0.6j, 0.5]], [[0.5, -0.6j], [0.6j, 0.5]]],
                [
                    "element 0 is not positive (eigenvalue -1.000e-01)",
                    "element 1 is not positive (eigenvalue -1.000e-01)",
                ],
            ),
            (
                [[[np.nan, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, -0.25]], [[0.0, 0.0], [0.0, 1.25]]],
                [
                    "element 0 has non-finite entries",
                    "element 1 is not positive (eigenvalue -2.500e-01)",
                    "elements do not sum to identity (defect nan)",
                ],
            ),
            (
                [[[1e308, 0.0], [0.0, 0.0]], [[-1e308, 0.0], [0.0, 1.0]]],
                [
                    "element 1 is not positive (eigenvalue -1.000e+308)",
                    "elements do not sum to identity (defect 1.000e+00)",
                ],
            ),
        ],
        ids=["non-positive", "nan-and-non-positive", "near-the-float-limit"],
    )
    def test_invalid_qubit_report_is_pinned(self, capsys, tmp_path, elements, expected):
        # Qubit spectra take a closed form; the report must read as the
        # eigvalsh route printed it, byte for byte.  Entries near the float
        # limit must not overflow the Hermitian part (pytest errors on any warning).
        path = tmp_path / "measure.json"
        data = {"elements": [serialize.matrix_to_dict(np.array(e)) for e in elements]}
        serialize.dump_json(data, path)
        code, out, _ = run(capsys, "measure", "validate", str(path))
        assert code == 1
        lines = ",\n".join(f'    "{line}"' for line in expected)
        assert out == '{\n  "valid": false,\n  "violations": [\n' + lines + "\n  ]\n}\n"

    @pytest.mark.parametrize(
        "data",
        [[1, 2], {"elements": 5}, {"elements": [{"dim": "two", "entries": []}]}],
        ids=["not-an-object", "elements-not-a-list", "non-integer-dim"],
    )
    def test_unreadable_file_exits_1_without_traceback(self, capsys, tmp_path, data):
        path = tmp_path / "measure.json"
        serialize.dump_json(data, path)
        code, out, err = run(capsys, "measure", "validate", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("unreadable measure file: ")


class TestMartens:
    def test_report_matches_closed_forms(self, capsys, tmp_path):
        absorber = 0.25
        biv_path = tmp_path / "bivariate.json"
        pvm1_path = tmp_path / "pvm1.json"
        pvm2_path = tmp_path / "pvm2.json"
        serialize.dump_json(
            serialize.measure_to_dict(srt_bivariate(SrtConfig(absorber))), biv_path
        )
        serialize.dump_json(serialize.measure_to_dict(path_pvm()), pvm1_path)
        serialize.dump_json(serialize.measure_to_dict(interference_pvm()), pvm2_path)
        code, out, _ = run(
            capsys,
            "martens", "--bivariate", str(biv_path),
            "--pvm1", str(pvm1_path), "--pvm2", str(pvm2_path),
        )
        assert code == 0
        report = json.loads(out)
        from povmkit.srt import interference_nonideality_entropy, path_nonideality_entropy

        assert report["J_lambda"] == pytest.approx(path_nonideality_entropy(absorber), abs=1e-10)
        assert report["J_mu"] == pytest.approx(
            interference_nonideality_entropy(absorber), abs=1e-10
        )
        assert report["bound"] == pytest.approx(np.log(2.0), abs=1e-12)
        assert report["slack"] >= -1e-9

    def test_csv_format(self, capsys, tmp_path):
        biv_path = tmp_path / "bivariate.json"
        pvm_path = tmp_path / "pvm.json"
        serialize.dump_json(
            serialize.measure_to_dict(srt_bivariate(SrtConfig(0.5))), biv_path
        )
        serialize.dump_json(serialize.measure_to_dict(path_pvm()), pvm_path)
        pvm2_path = tmp_path / "pvm2.json"
        serialize.dump_json(serialize.measure_to_dict(interference_pvm()), pvm2_path)
        code, out, _ = run(
            capsys,
            "martens", "--bivariate", str(biv_path),
            "--pvm1", str(pvm_path), "--pvm2", str(pvm2_path),
            "--format", "csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "J_lambda,J_mu,bound,slack"
        assert len(row.split(",")) == 4


class TestAspect:
    def test_standard_composite_reports_tsirelson(self, capsys):
        code, out, err = run(
            capsys, "aspect", "standard-composite", "--angles", TSIRELSON_ANGLE_ARG
        )
        assert code == 0
        report = json.loads(out)
        assert report["max_abs"] == pytest.approx(2 * np.sqrt(2), abs=1e-9)
        assert len(report["values"]) == 8
        assert "2.828427" in err

    def test_emit_joint_round_trips(self, capsys):
        code, out, _ = run(
            capsys,
            "aspect", "--gamma1", "0.5", "--gamma2", "0.5",
            "--angles", TSIRELSON_ANGLE_ARG, "--emit", "joint",
        )
        assert code == 0
        table = serialize.table_from_dict(json.loads(out))
        assert json.loads(out) == serialize.table_to_dict(table)
        assert table.shape == (2, 2, 2, 2)

    def test_emit_marginals_feeds_fine(self, capsys, tmp_path):
        marginals_path = tmp_path / "marginals.json"
        code, _, _ = run(
            capsys,
            "aspect", "--gamma1", "0.4", "--gamma2", "0.9",
            "--angles", TSIRELSON_ANGLE_ARG, "--emit", "marginals",
            "--out", str(marginals_path),
        )
        assert code == 0
        code, out, _ = run(capsys, "fine", "--marginals", str(marginals_path))
        assert code == 0
        assert json.loads(out)["decision"] == "feasible"

    def test_emit_chsh_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "aspect", "--gamma1", "1", "--gamma2", "1",
            "--angles", TSIRELSON_ANGLE_ARG, "--emit", "chsh", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "signs,value"
        assert len(lines) == 9


    @pytest.mark.parametrize("angles", ["inf,0,0,0", "0,nan,0,0", "0,0,inf,0", "0,0,0,-inf"])
    @pytest.mark.parametrize(
        "mode",
        [("standard-composite",), ("--gamma1", "0.5", "--gamma2", "0.5", "--emit", "chsh")],
        ids=["standard-composite", "fixed"],
    )
    def test_non_finite_angles_exit_65_with_one_line(self, capsys, angles, mode):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "aspect", *mode, "--angles", angles)
        assert code == 65
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: angle theta")
        assert "non-finite" in err

    def test_negative_leading_angle_in_either_spelling(self, capsys):
        # argparse would take a separate "-0.5,..." for an option.
        separate = run(capsys, "aspect", "standard-composite", "--angles", "-0.5,0,0,0")
        joined = run(capsys, "aspect", "standard-composite", "--angles=-0.5,0,0,0")
        assert separate[0] == 0
        assert separate == joined
        assert json.loads(separate[1])["max_abs"] == pytest.approx(2.0)

    @pytest.mark.parametrize("spelling", ["--a", "--an", "--ang", "--angl", "--angle"])
    def test_abbreviated_angles_in_either_spelling(self, capsys, spelling):
        separate = run(capsys, "aspect", "standard-composite", spelling, "-0.5,0,0,0")
        joined = run(capsys, "aspect", "standard-composite", f"{spelling}=-0.5,0,0,0")
        full = run(capsys, "aspect", "standard-composite", "--angles=-0.5,0,0,0")
        assert separate[0] == 0
        assert separate == joined == full

    @pytest.mark.parametrize("spelling", ["--angles", "--ang"])
    def test_angles_followed_by_an_option_still_missing(self, capsys, spelling, tmp_path):
        code, out, err = run(capsys, "aspect", "standard-composite", spelling,
                             "--out", str(tmp_path / "x"))
        assert code == 65
        assert out == ""
        assert "expected one argument" in err

    def test_table_csv_matches_json(self, capsys):
        argv = ("aspect", "--gamma1", "0.4", "--gamma2", "0.9", "--angles", TSIRELSON_ANGLE_ARG)
        _, out_json, _ = run(capsys, *argv, "--emit", "joint")
        _, out_csv, _ = run(capsys, *argv, "--emit", "joint", "--format", "csv")
        joint = json.loads(out_json)
        want = [
            (",".join(outcome), value)
            for outcome, value in zip(itertools.product("+-", repeat=4), joint["values"])
        ]
        lines = out_csv.splitlines()
        assert lines[0] == "m1,n1,m2,n2,p"
        assert [(keys, float(p)) for keys, p in (ln.rsplit(",", 1) for ln in lines[1:])] == want

        _, out_json, _ = run(capsys, *argv, "--emit", "marginals")
        _, out_csv, _ = run(capsys, *argv, "--emit", "marginals", "--format", "csv")
        tables = json.loads(out_json)
        want = [
            (f"{key},{i},{j}", tables[key][i][j])
            for key in ("AB", "ABp", "ApB", "ApBp")
            for i in range(2)
            for j in range(2)
        ]
        lines = out_csv.splitlines()
        assert lines[0] == "table,row,col,p"
        assert [(keys, float(p)) for keys, p in (ln.rsplit(",", 1) for ln in lines[1:])] == want

    def test_chsh_csv_matches_json_report(self, capsys):
        for argv, extra in (
            (("aspect", "standard-composite"), 1),
            (("aspect", "--gamma1", "0.3", "--gamma2", "0.6", "--emit", "chsh"), 0),
        ):
            _, out_json, _ = run(capsys, *argv, "--angles", TSIRELSON_ANGLE_ARG)
            _, out_csv, _ = run(capsys, *argv, "--angles", TSIRELSON_ANGLE_ARG, "--format", "csv")
            report = json.loads(out_json)
            lines = out_csv.splitlines()
            assert lines[0] == "signs,value"
            assert len(lines) == 9 + extra
            for line, entry in zip(lines[1:9], report["values"]):
                signs, value = line.rsplit(",", 1)
                assert signs == '"' + " ".join(f"{s:+d}" for s in entry["signs"]) + '"'
                assert float(value) == entry["value"]
            if extra:
                assert lines[9] == f"max_abs,{report['max_abs']!r}"


@pytest.mark.parametrize(
    "argv",
    [
        ("measure", "validate", "measure.json"),
        ("srt", "sweep", "--points", "3"),
        ("srt", "--absorber", "0.5", "--emit", "povm"),
        ("fine", "--marginals", "marginals.json"),
    ],
    ids=["measure", "srt-sweep", "srt-emit", "fine"],
)
def test_format_only_where_it_is_honoured(capsys, tmp_path, monkeypatch, argv):
    # Only martens and aspect write CSV; elsewhere --format is a usage error.
    monkeypatch.chdir(tmp_path)
    serialize.dump_json(serialize.measure_to_dict(path_pvm()), "measure.json")
    serialize.dump_json({key: np.full((2, 2), 0.25).tolist()
                         for key in ("AB", "ABp", "ApB", "ApBp")}, "marginals.json")
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 65
    assert out == ""
    assert err.startswith("error: ")


class TestTolerance:
    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "-inf", "0.0"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("aspect", "standard-composite", "--angles", TSIRELSON_ANGLE_ARG),
            ("srt", "sweep", "--points", "3"),
            ("fine", "--marginals", "missing.json"),
        ],
        ids=["aspect", "srt", "fine"],
    )
    def test_invalid_tol_rejected(self, capsys, argv, tol):
        code, out, err = run(capsys, *argv, f"--tol={tol}")
        assert code == 65
        assert out == ""
        assert err.startswith("error: --tol must be a finite number greater than 0")

    def test_negative_tol_as_separate_argument(self, capsys):
        code, _, err = run(capsys, "srt", "sweep", "--points", "3", "--tol", "-1")
        assert code == 65
        assert "--tol" in err

    def test_strict_tol_reaches_fine(self, capsys, tmp_path):
        # Single-variable marginals disagree by 1e-11: consistent at the
        # default tolerance, a no-signaling violation at --tol 1e-12.
        data = {
            "AB": [[0.25 + 1e-11, 0.25], [0.25 - 1e-11, 0.25]],
            "ABp": [[0.25, 0.25], [0.25, 0.25]],
            "ApB": [[0.25, 0.25], [0.25, 0.25]],
            "ApBp": [[0.25, 0.25], [0.25, 0.25]],
        }
        path = tmp_path / "nearly.json"
        serialize.dump_json(data, path)
        code, out, _ = run(capsys, "fine", "--marginals", str(path))
        assert code == 0
        assert json.loads(out)["decision"] == "feasible"
        code, out, _ = run(capsys, "fine", "--marginals", str(path), "--tol", "1e-12")
        assert code == 3
        assert json.loads(out)["decision"] == "no-signaling-violation"

    def test_strict_tol_reaches_marginal_set(self, capsys, monkeypatch):
        from povmkit import cli

        built = []
        original = cli.MarginalSet.from_quadrivariate

        def spy(joint):
            built.append(original(joint))
            return built[-1]

        monkeypatch.setattr(cli.MarginalSet, "from_quadrivariate", staticmethod(spy))
        code, _, _ = run(
            capsys,
            "aspect", "--gamma1", "0.4", "--gamma2", "0.9", "--angles", TSIRELSON_ANGLE_ARG,
            "--emit", "marginals", "--tol", "1e-12",
        )
        assert code == 0
        # Each setting-pair cell sums four joint cells, so the set carries 4 * --tol.
        assert [marginals.tol for marginals in built] == [4 * 1e-12]


class TestFine:
    def test_composite_marginals_are_infeasible(self, capsys, tmp_path):
        from povmkit import MarginalSet, standard_composite

        result = standard_composite(0.0, np.pi / 4, np.pi / 8, 3 * np.pi / 8)
        marginals = MarginalSet.from_tables(result.tables)
        path = tmp_path / "composite.json"
        serialize.dump_json(serialize.marginals_to_dict(marginals), path)
        code, out, _ = run(capsys, "fine", "--marginals", str(path))
        assert code == 2
        report = json.loads(out)
        assert report["decision"] == "infeasible"
        assert abs(report["certificate"]["value"]) == pytest.approx(2 * np.sqrt(2), abs=1e-9)

    def test_signaling_marginals_exit_3(self, capsys, tmp_path):
        data = {
            "AB": [[0.3, 0.3], [0.2, 0.2]],
            "ABp": [[0.2, 0.2], [0.3, 0.3]],
            "ApB": [[0.25, 0.25], [0.25, 0.25]],
            "ApBp": [[0.25, 0.25], [0.25, 0.25]],
        }
        path = tmp_path / "signaling.json"
        serialize.dump_json(data, path)
        code, out, _ = run(capsys, "fine", "--marginals", str(path))
        assert code == 3
        assert json.loads(out)["decision"] == "no-signaling-violation"

    def test_cell_below_zero_is_feasible(self, capsys, tmp_path):
        # AB holds -9e-10, valid at the default tol; the box is decided on its white-noise mixture.
        path = tmp_path / "negative_cell.json"
        serialize.dump_json(dict(zip(("AB", "ABp", "ApB", "ApBp"), NEGATIVE_CELL_BOX)), path)
        code, out, err = run(capsys, "fine", "--marginals", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["decision"] == "feasible"

    def test_missing_file_exits_65(self, capsys):
        code, _, err = run(capsys, "fine", "--marginals", "/nonexistent/path.json")
        assert code == 65

    def test_overflowing_table_sum_exits_65_without_a_warning(self, capsys, tmp_path):
        # 1e308 + 1e308 overflows: the total reads as inf, and numpy must not warn about it.
        good = [[0.25, 0.25], [0.25, 0.25]]
        path = tmp_path / "overflow.json"
        serialize.dump_json({"AB": [[1e308, 1e308], [0, 0]], "ABp": good, "ApB": good, "ApBp": good},
                            path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "fine", "--marginals", str(path))
        assert (code, out) == (65, "")
        assert err == "error: table AB: probability table sums to inf, not 1\n"
        assert caught == []

    def test_wrong_shape_table_names_its_key(self, capsys, tmp_path):
        good = [[0.25, 0.25], [0.25, 0.25]]
        path = tmp_path / "flat.json"
        serialize.dump_json({"AB": good, "ABp": [0.5, 0.5], "ApB": good, "ApBp": good}, path)
        code, out, err = run(capsys, "fine", "--marginals", str(path))
        assert code == 65
        assert out == ""
        assert err == "error: table ABp: expected a 2x2 table, got shape (2,)\n"


def test_outputs_do_not_mutate_inputs(capsys, tmp_path):
    path = tmp_path / "measure.json"
    serialize.dump_json(serialize.measure_to_dict(srt_bivariate(SrtConfig(0.5))), path)
    before = path.read_text()
    run(capsys, "measure", "validate", str(path))
    assert path.read_text() == before


@pytest.mark.parametrize(
    "argv, unknown",
    [
        (("srt", "--absorber", "0.5", "--emit", "povm", "--format", "csv"), "--format csv"),
        (("aspect", "--emit", "chsh", "--bogus", "1"), "--bogus 1"),
        (("srt", "--format", "csv", "sweep"), "--format csv sweep"),
    ],
)
def test_unknown_option_value_is_not_taken_for_the_mode(capsys, argv, unknown):
    code, out, err = run(capsys, *argv)
    assert code == 65
    assert out == ""
    assert err == f"error: unrecognized arguments: {unknown}\n"


@pytest.mark.parametrize(
    "argv, choice",
    [(("srt", "bogus"), "sweep"), (("aspect", "bogus", "--angles", "0,0,0,0"), "standard-composite")],
)
def test_invalid_mode_is_named(capsys, argv, choice):
    code, out, err = run(capsys, *argv)
    assert code == 65
    assert out == ""
    assert err == f"error: argument mode: invalid choice: 'bogus' (choose from '{choice}')\n"


@pytest.mark.parametrize("field, value", [("labels", 5), ("index_shape", ["a"])])
def test_martens_rejects_malformed_measure_fields(capsys, tmp_path, field, value):
    data = serialize.measure_to_dict(srt_bivariate(SrtConfig(0.5)))
    data[field] = value
    serialize.dump_json(data, tmp_path / "bivariate.json")
    serialize.dump_json(serialize.measure_to_dict(path_pvm()), tmp_path / "pvm1.json")
    serialize.dump_json(serialize.measure_to_dict(interference_pvm()), tmp_path / "pvm2.json")
    code, out, err = run(
        capsys,
        "martens", "--bivariate", str(tmp_path / "bivariate.json"),
        "--pvm1", str(tmp_path / "pvm1.json"), "--pvm2", str(tmp_path / "pvm2.json"),
    )
    assert code == 65
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("fine", "--marginals"), ("measure", "validate")])
@pytest.mark.parametrize(
    "content, message",
    [(b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
     (b"[" * 100000, "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
     (b"{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)")],
    ids=["not-utf8", "too-deep", "not-json"],
)
def test_a_file_that_is_not_utf8_json_exits_65_with_one_line(capsys, tmp_path, argv, content, message):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out, err) == (65, "", f"error: {message}\n")


@pytest.mark.parametrize("value", [5, [1, 2], "text"])
def test_fine_rejects_marginals_that_are_not_an_object(capsys, tmp_path, value):
    path = tmp_path / "marginals.json"
    path.write_text(json.dumps(value), encoding="utf-8")
    code, out, err = run(capsys, "fine", "--marginals", str(path))
    assert code == 65
    assert out == ""
    assert err == f"error: marginals must be a JSON object, not {type(value).__name__}\n"


def test_martens_on_an_inexact_decomposition_exits_2(capsys, tmp_path):
    # The path marginal at a = 0.5 is no smearing of a polarization PVM at
    # 0.3 rad (residual 0.282): no report is printed, only why.
    from povmkit import polarization_pvm

    files = {
        "bivariate": srt_bivariate(SrtConfig(0.5)),
        "pvm1": polarization_pvm(0.3),
        "pvm2": interference_pvm(),
    }
    argv = ["martens"]
    for flag, measure in files.items():
        serialize.dump_json(serialize.measure_to_dict(measure), tmp_path / f"{flag}.json")
        argv += [f"--{flag}", str(tmp_path / f"{flag}.json")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        "not applicable: no exact decomposition of the first marginal onto --pvm1 "
        "(residual 2.823e-01)\n"
    )


ASPECT_FIXED = ("--gamma1", "0.4", "--gamma2", "0.9", "--angles", TSIRELSON_ANGLE_ARG)


def aspect_renderings(emit):
    """``aspect`` output under ``--emit emit`` (the standard composite for None), computed in
    process: as JSON, and as the frozen CSV writers render it."""
    angles = tuple(map(float, TSIRELSON_ANGLE_ARG.split(",")))
    if emit is None:
        report = standard_composite(*angles).chsh
        csv = oracle_chsh_csv_lines(report) + [f"max_abs,{oracle_fmt(report.max_abs)}"]
        return _chsh_report_dict(report), "\n".join(csv)
    joint = joint_probabilities(AspectConfig(0.4, 0.9, *angles, state=bell_state()))
    if emit == "joint":
        return (serialize.table_to_dict(joint),
                oracle_cells_csv("m1,n1,m2,n2,p", [((), joint.values, joint.axis_labels)]))
    marginals = MarginalSet.from_quadrivariate(joint)
    if emit == "marginals":
        cells = [((key,), values, (range(2), range(2)))
                 for key, values in zip(("AB", "ABp", "ApB", "ApBp"), marginals.values)]
        return serialize.marginals_to_dict(marginals), oracle_cells_csv("table,row,col,p", cells)
    report = chsh_value(marginals)
    return _chsh_report_dict(report), "\n".join(oracle_chsh_csv_lines(report))


class TestOutputBytes:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("emit", [None, "joint", "marginals", "chsh"])
    def test_aspect_output_is_the_frozen_rendering(self, capsys, emit, fmt):
        argv = ("standard-composite", "--angles", TSIRELSON_ANGLE_ARG) if emit is None else (
            *ASPECT_FIXED, "--emit", emit)
        code, out, _ = run(capsys, "aspect", *argv, "--format", fmt)
        record, csv = aspect_renderings(emit)
        assert code == 0
        assert out == (csv if fmt == "csv" else serialize.dump_json(record)) + "\n"

    def test_martens_csv_is_the_frozen_rendering(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        measures = {"bivariate": srt_bivariate(SrtConfig(0.25)), "pvm1": path_pvm(),
                    "pvm2": interference_pvm()}
        argv = ["martens", "--format", "csv"]
        for flag, measure in measures.items():
            serialize.dump_json(serialize.measure_to_dict(measure), f"{flag}.json")
            argv += [f"--{flag}", f"{flag}.json"]
        bivariate, pvm1, pvm2 = (
            serialize.measure_from_dict(serialize.load_json(f"{flag}.json"), pvm=flag != "bivariate")
            for flag in measures)
        report = check_martens(solve_nonideality(bivariate.marginal(keep=0), pvm1),
                               solve_nonideality(bivariate.marginal(keep=1), pvm2), pvm1, pvm2)
        values = (report.j_lambda, report.j_mu, report.bound, report.slack)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == "J_lambda,J_mu,bound,slack\n" + ",".join(map(oracle_fmt, values)) + "\n"

    @pytest.mark.parametrize("fmt, emit", [("json", "marginals"), ("csv", "joint")])
    def test_out_file_holds_the_rendering(self, capsys, tmp_path, fmt, emit):
        target = tmp_path / f"out.{fmt}"
        code, out, err = run(capsys, "aspect", *ASPECT_FIXED, "--emit", emit, "--format", fmt,
                             "--out", str(target))
        record, csv = aspect_renderings(emit)
        assert (code, out, err) == (0, "", "")
        want = (csv if fmt == "csv" else serialize.dump_json(record)) + "\n"
        assert target.read_bytes() == want.encode()


def fine_report(marginals):
    """The ``fine`` report of ``marginals`` in process, keyed in the CLI's order, and its exit code."""
    try:
        decision = joint_exists(marginals)
    except NoSignalingError as exc:
        return {"decision": "no-signaling-violation", "detail": str(exc)}, 3
    if decision.feasible:
        return {"decision": "feasible", "boundary": decision.boundary,
                "witness": serialize.table_to_dict(decision.joint),
                "marginal_residual": decision.residual,
                "chsh_max_abs": decision.chsh.max_abs}, 0
    signs, value = decision.certificate
    return {"decision": "infeasible", "boundary": decision.boundary,
            "certificate": {"signs": list(signs), "value": float(value)},
            "chsh_max_abs": decision.chsh.max_abs}, 2


@pytest.mark.parametrize(
    "tables, code, keys",
    [
        ([np.full((2, 2), 0.25).tolist()] * 4, 0,
         ["decision", "boundary", "witness", "marginal_residual", "chsh_max_abs"]),
        ([t.values.tolist() for t in standard_composite(*TSIRELSON_ANGLES).tables], 2,
         ["decision", "boundary", "certificate", "chsh_max_abs"]),
        ([[[0.5, 0.0], [0.0, 0.5]], [[1.0, 0.0], [0.0, 0.0]]] + [np.full((2, 2), 0.25).tolist()] * 2, 3,
         ["decision", "detail"]),
    ],
    ids=["feasible", "infeasible", "signaling"],
)
def test_fine_report_keys_in_order(capsys, tmp_path, tables, code, keys):
    path = tmp_path / "marginals.json"
    serialize.dump_json(dict(zip(("AB", "ABp", "ApB", "ApBp"), tables)), path)
    got = run(capsys, "fine", "--marginals", str(path))
    report, want_code = fine_report(serialize.marginals_from_dict(serialize.load_json(path)))
    assert (want_code, list(report)) == (code, keys)
    assert got == (code, serialize.dump_json(report) + "\n", "")
