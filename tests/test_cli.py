import json

import pytest

from disctrace import cli
from disctrace.boundary import MAX_DEGREE, HermitianPolynomial, reduced_basis
from disctrace.cli import UsageError, format_point, main, parse_point
from disctrace.geometry import Complex2

SCENE = ["0,0", "0.5,0", "0,0.5"]


@pytest.fixture
def holomorphic_file(tmp_path):
    path = tmp_path / "holo.json"
    HermitianPolynomial({(2, 1, 0, 0): 1.0, (0, 0, 0, 0): 0.5}).save(path)
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.json"
    HermitianPolynomial.monomial((0, 1), (0, 1)).save(path)  # |z2|^2
    return str(path)


class TestParsePoint:
    def test_full_syntax(self):
        p = parse_point("0.1,-0.2;0.3,0.4")
        assert p.z1 == complex(0.1, -0.2)
        assert p.z2 == complex(0.3, 0.4)

    def test_real_shorthand(self):
        p = parse_point("0.5,0")
        assert p.z1 == 0.5 and p.z2 == 0

    def test_round_trip(self):
        p = Complex2(0.1 - 0.2j, 0.3 + 0.4j)
        assert parse_point(format_point(p)).as_array().tolist() == (
            p.as_array().tolist()
        )

    @pytest.mark.parametrize("bad", ["", "1", "1;2;3", "a,b", "1,2;3"])
    def test_malformed(self, bad):
        with pytest.raises(UsageError):
            parse_point(bad)


class TestKernelCommand:
    def test_acceptance_scene_passes(self, capsys):
        rc = main(
            ["kernel", "--points", *SCENE, "--degree", "2", "--discs", "20",
             "--seed", "7", "--json-only"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kernel_dimension"] == 6
        assert doc["schema"] == "v1"

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            ["kernel", "--points", *SCENE, "--degree", "2", "--discs", "20",
             "--seed", "7", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["kernel_dimension"] == 6

    def test_collinear_is_usage_error(self, capsys):
        rc = main(["kernel", "--points", "0,0", "0.5,0", "0.7,0",
                   "--degree", "2", "--discs", "10"])
        assert rc == 2

    def test_bad_degree(self):
        assert main(["kernel", "--points", *SCENE, "--degree", "13"]) == 2
        assert main(["kernel", "--points", *SCENE, "--degree", "-1"]) == 2

    def test_bad_point(self):
        assert main(["kernel", "--points", "x", "0.5,0", "0,0.5"]) == 2

    def test_maximum_degree_passes(self, capsys):
        rc = main(["kernel", "--points", *SCENE, "--degree", "12", "--discs", "50",
                   "--seed", "7", "--json-only"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["kernel_dimension"] == doc["holomorphic_dimension"] == 91
        assert "svd_tol" not in doc["config"]
        assert rc == 0

    def test_rank_cutoff_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kernel", "--points", *SCENE, "--degree", "2", "--discs", "10",
                  "--svd-tol", "1e-8"])
        assert exc.value.code == 2
        assert "--svd-tol" in capsys.readouterr().err

    def test_undersampled_fails(self, capsys):
        rc = main(["kernel", "--points", *SCENE, "--degree", "4",
                   "--discs", "2", "--seed", "0"])
        assert rc == 1


class TestTestCommand:
    def test_holomorphic_passes(self, holomorphic_file, capsys):
        rc = main(["test", "--function", holomorphic_file, "--point", "0.2,0.1",
                   "--discs", "10", "--seed", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "disc_id,max_negative_modulus,verdict"
        assert len(lines) == 12
        assert lines[-1] == "summary,pass"
        assert all(line.endswith(",true") for line in lines[1:-1])

    def test_mixed_through_origin_passes(self, mixed_file, capsys):
        # |z2|^2 extends along every disc through 0
        rc = main(["test", "--function", mixed_file, "--point", "0,0",
                   "--discs", "10"])
        assert rc == 0

    def test_mixed_off_origin_fails(self, mixed_file, capsys):
        rc = main(["test", "--function", mixed_file, "--point", "0.3,0.1",
                   "--discs", "10"])
        assert rc == 1
        assert capsys.readouterr().out.strip().endswith("summary,fail")

    def test_missing_file(self, tmp_path):
        assert main(["test", "--function", str(tmp_path / "nope.json"),
                     "--point", "0,0"]) == 2

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["test", "--function", str(path), "--point", "0,0"]) == 2


class TestLemmasCommand:
    def test_passes_and_reports(self, capsys):
        rc = main(["lemmas", "--seed", "0", "--json-only"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_passed"] is True
        assert len(doc["checks"]) >= 10


class TestExtendCommand:
    def test_holomorphic_value(self, holomorphic_file, capsys):
        rc = main(["extend", "--function", holomorphic_file, "--points", *SCENE,
                   "--at", "0.2,0.1", "--discs", "10", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        value = complex(*map(float, out[0].split(",")[1:]))
        # z1^2 z2 + 0.5 at (0.2, 0.1)
        assert value == pytest.approx(0.2**2 * 0.1 + 0.5, abs=1e-10)
        assert float(out[1].split(",")[1]) < 1e-8

    def test_non_member_rejected(self, mixed_file, capsys):
        rc = main(["extend", "--function", mixed_file, "--points", *SCENE,
                   "--at", "0.1,0.1", "--discs", "10"])
        assert rc == 1
        assert "not extendible" in capsys.readouterr().err

    def test_exterior_point_rejected(self, holomorphic_file):
        assert main(["extend", "--function", holomorphic_file, "--points",
                     *SCENE, "--at", "2,0"]) == 2


class TestScaleInvariance:
    """Extending along a disc is linear in f, so a nonzero multiple of f
    gets the verdicts of f: no absolute cutoff passes a tiny non-extendible
    function or fails a large extendible one."""

    @pytest.mark.parametrize("command", ["test", "extend"])
    @pytest.mark.parametrize("terms, scale, code", [
        # z1^2 z2 + 0.5 + (|z1|^2 + |z2|^2 - 1) * z1 conj(z2): mixed terms,
        # and z1^2 z2 + 0.5 on the sphere
        ({(2, 1, 0, 0): 1.0, (0, 0, 0, 0): 0.5, (2, 0, 1, 1): 1.0,
          (1, 1, 0, 2): 1.0, (1, 0, 0, 1): -1.0}, 1e8, 0),
        ({(0, 1, 0, 1): 1.0}, 1e-12, 1),  # |z2|^2
    ], ids=["extendible-1e8", "z2sq-1e-12"])
    def test_scaled_function(self, command, terms, scale, code, tmp_path):
        path = tmp_path / "f.json"
        (scale * HermitianPolynomial(terms)).save(path)
        argv = {
            "test": ["test", "--function", str(path), "--point", "0.3,0.2"],
            "extend": ["extend", "--function", str(path), "--points", *SCENE,
                       "--at", "0.2,0.1"],
        }[command]
        assert main(argv) == code


class TestNegativeCoordinates:
    """A point whose first coordinate is negative starts with "-", as an
    option does; it still parses in --points, --point and --at."""

    def test_kernel_points(self, capsys):
        rc = main(["kernel", "--points", "-0.3,0.1", "0.5,0", "0,0.5",
                   "--degree", "2", "--discs", "20", "--seed", "7", "--json-only"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["points"][0] == [-0.3, 0.0, 0.1, 0.0]
        assert doc["kernel_dimension"] == 6

    def test_test_point(self, holomorphic_file, capsys):
        rc = main(["test", "--function", holomorphic_file, "--point", "-0.5,0",
                   "--discs", "4"])
        assert rc == 0
        assert capsys.readouterr().out.strip().endswith("summary,pass")

    def test_extend_points_and_at(self, holomorphic_file, capsys):
        rc = main(["extend", "--function", holomorphic_file, "--points",
                   "-0.3,0.1", "0.5,0", "0,0.5", "--at", "-0.2,-0.1;0.1,0",
                   "--discs", "8"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        value = complex(*map(float, out[0].split(",")[1:]))
        # z1^2 z2 + 0.5 at (-0.2 - 0.1i, 0.1)
        assert value == pytest.approx((-0.2 - 0.1j) ** 2 * 0.1 + 0.5, abs=1e-10)

    @pytest.mark.parametrize(
        "points", [["-2,0", "0.5,0", "0,0.5"], ["-0.3,0.1;2", "0.5,0", "0,0.5"]],
        ids=["exterior", "malformed"],
    )
    def test_bad_negative_point_is_usage_error(self, points, capsys):
        assert main(["kernel", "--points", *points, "--degree", "2",
                     "--discs", "10"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestDeterminism:
    def run_all(self, capsys, holo):
        outputs = []
        for argv in (
            ["kernel", "--points", *SCENE, "--degree", "2", "--discs", "15",
             "--seed", "7", "--json-only"],
            ["test", "--function", holo, "--point", "0.2,0.1", "--discs", "8",
             "--seed", "3"],
            ["extend", "--function", holo, "--points", *SCENE,
             "--at", "0.2,0.1", "--discs", "8", "--seed", "1"],
        ):
            rc = main(argv)
            captured = capsys.readouterr()
            outputs.append((rc, captured.out))
        return outputs

    def test_byte_identical_across_reruns(self, capsys, holomorphic_file):
        runs = [self.run_all(capsys, holomorphic_file) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]


class TestUsageErrors:
    """Bad input exits with code 2 and one `error:` line, never a traceback."""

    @staticmethod
    def assert_usage_error(argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["kernel", "test", "lemmas", "extend"])
    def test_negative_seed(self, command, holomorphic_file, capsys):
        argv = {
            "kernel": ["kernel", "--points", *SCENE, "--degree", "2",
                       "--discs", "10"],
            "test": ["test", "--function", holomorphic_file, "--point",
                     "0.3,0.2", "--discs", "4"],
            "lemmas": ["lemmas"],
            "extend": ["extend", "--function", holomorphic_file, "--points",
                       *SCENE, "--at", "0.2,0.1", "--discs", "4"],
        }[command]
        self.assert_usage_error([*argv, "--seed", "-1"], capsys)

    @pytest.mark.parametrize("bad", ["1,0", "0.8,0.6", "2,0"])
    def test_kernel_exterior_point(self, bad, capsys):
        self.assert_usage_error(
            ["kernel", "--points", bad, "0.5,0", "0,0.5", "--degree", "2",
             "--discs", "10"], capsys,
        )

    @pytest.mark.parametrize("bad", ["1,0", "2,0"])
    def test_extend_exterior_point(self, bad, holomorphic_file, capsys):
        self.assert_usage_error(
            ["extend", "--function", holomorphic_file, "--points", "0,0", bad,
             "0,0.5", "--at", "0.2,0.1", "--discs", "4"], capsys,
        )

    @pytest.mark.parametrize("bad", ["1,0", "2,0"])
    def test_test_exterior_point(self, bad, holomorphic_file, capsys):
        self.assert_usage_error(
            ["test", "--function", holomorphic_file, "--point", bad,
             "--discs", "4"], capsys,
        )

    def test_extend_zero_discs(self, holomorphic_file, capsys):
        self.assert_usage_error(
            ["extend", "--function", holomorphic_file, "--points", *SCENE,
             "--at", "0.2,0.1", "--discs", "0"], capsys,
        )

    @staticmethod
    def forbid_sampling(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sampled before the --discs check")

        monkeypatch.setattr(cli, "sample_disc_family", fail)
        monkeypatch.setattr(cli, "kernel_experiment", fail)

    def test_kernel_disc_limit_is_the_1_gib_matrix(self):
        # the doubled run's complex matrix: 3 points, 2n discs, d rows each
        for d in range(4, MAX_DEGREE + 1):
            limit = cli._kernel_disc_limit(d)
            per_disc = 16 * 3 * 2 * d * len(reduced_basis(d))
            assert limit * per_disc <= 2**30 < (limit + 1) * per_disc
        assert cli._kernel_disc_limit(12) == 1138

    @pytest.mark.parametrize(
        "degree,discs", [("12", "1139"), ("12", "100000"), ("1", "100001")]
    )
    def test_kernel_too_many_discs(self, degree, discs, monkeypatch, capsys):
        self.forbid_sampling(monkeypatch)
        self.assert_usage_error(
            ["kernel", "--points", *SCENE, "--degree", degree, "--discs", discs],
            capsys,
        )

    @pytest.mark.parametrize("command", ["test", "extend"])
    def test_too_many_discs(self, command, holomorphic_file, monkeypatch, capsys):
        self.forbid_sampling(monkeypatch)
        argv = {
            "test": ["test", "--function", holomorphic_file, "--point",
                     "0.3,0.2"],
            "extend": ["extend", "--function", holomorphic_file, "--points",
                       *SCENE, "--at", "0.2,0.1"],
        }[command]
        self.assert_usage_error([*argv, "--discs", "100001"], capsys)

    def test_function_above_degree_cap(self, tmp_path, capsys):
        path = tmp_path / "deg13.json"
        path.write_text(json.dumps(
            {"terms": [{"alpha": [13, 0], "beta": [0, 0], "re": 1.0, "im": 0.0}]}
        ))
        self.assert_usage_error(
            ["test", "--function", str(path), "--point", "0.3,0.2",
             "--discs", "4"], capsys,
        )

    @pytest.mark.parametrize("command", ["test", "extend"])
    @pytest.mark.parametrize(
        "term",
        [
            '"alpha": [2, 1], "beta": [0, 0], "re": NaN, "im": 0.0',
            '"alpha": [2, 1], "beta": [0, 0], "re": 1.0, "im": Infinity',
            '"alpha": [1], "beta": [0, 0], "re": 1.0, "im": 0.0',
            '"alpha": [1, 0, 5], "beta": [0, 0], "re": 1.0, "im": 0.0',
            '"alpha": [1.5, 0], "beta": [0, 0], "re": 1.0, "im": 0.0',
            '"alpha": [true, 0], "beta": [0, 0], "re": 1.0, "im": 0.0',
            '"alpha": [2, 1], "beta": [0, 0], "re": true, "im": false',
            '"alpha": [2, 1], "beta": [0, 0], "re": 1.0, "im": true',
        ],
        ids=["nan", "inf", "short", "long", "float", "bool", "bool-re", "bool-im"],
    )
    def test_malformed_function_file(self, command, term, tmp_path, capsys):
        # each file used to pass, print nan, end in a traceback or be
        # silently truncated
        path = tmp_path / "bad.json"
        path.write_text('{"terms": [{' + term + "}]}")
        argv = {
            "test": ["test", "--function", str(path), "--point", "0.3,0.2",
                     "--discs", "4"],
            "extend": ["extend", "--function", str(path), "--points", *SCENE,
                       "--at", "0.2,0.1", "--discs", "4"],
        }[command]
        self.assert_usage_error(argv, capsys)

    @pytest.mark.parametrize("at", SCENE)
    def test_extend_at_one_of_the_points(self, at, holomorphic_file, capsys):
        self.assert_usage_error(
            ["extend", "--function", holomorphic_file, "--points", *SCENE,
             "--at", at, "--discs", "4"], capsys,
        )
