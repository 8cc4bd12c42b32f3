import errno
import json
import os

import pytest

from disctrace import cli
from disctrace.boundary import HermitianPolynomial, reduced_basis
from disctrace.cli import MAX_DEGREE, UsageError, format_point, main, parse_point
from disctrace.errors import NotExtendible
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

    def test_origin_alone_fails_with_the_predicted_kernel(self, capsys):
        # one point does not suffice: at the origin the kernel is the span of
        # the 32 monomials with |alpha| >= |beta|, at an L2 angle of 2.45e-15
        rc = main(["kernel", "--points", "0,0", "--degree", "4", "--discs", "60",
                   "--seed", "7", "--json-only"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["kernel_dimension"] == 32
        assert doc["max_principal_angle"] < 1e-12

    @pytest.mark.parametrize(
        "points", [["0.5,0"], ["0.5,0", "0,0.5"]], ids=["one", "two"]
    )
    def test_one_or_two_points_pass_on_polynomials(self, points, capsys):
        rc = main(["kernel", "--points", *points, "--degree", "4", "--discs", "60",
                   "--seed", "7", "--json-only"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kernel_dimension"] == doc["holomorphic_dimension"] == 15
        # a single point off the origin has no predicted span to measure
        assert (doc["max_principal_angle"] is None) == (len(points) == 1)

    def test_points_without_a_value_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kernel", "--points", "--degree", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--points" in err and "Traceback" not in err

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

    def test_general_position_is_scale_free(self, capsys):
        # the standard scene shrunk by 1e-11 used to be refused as collinear;
        # its families see about one point, so its singular values jump
        # twice: below the five that one point gives, and at the floor
        rc = main(["kernel", "--points", "0,0", "1e-11,0", "0,1e-11",
                   "--degree", "2", "--discs", "10", "--seed", "7", "--json-only"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "verification failed: spectral gaps of at least 1000 at ranks 5 and 8 "
            "(8 columns, 60 rows): no one rank stands out\n"
        )

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
        assert capsys.readouterr().err == (
            "verification failed: kernel dimension not stable under doubling the "
            "disc count (discs per point: 2 gives kernel dimension 32, 4 gives 19)\n"
        )


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

    @pytest.mark.parametrize(
        "points", [["0.5,0", "0,0.5"], [*SCENE, "-0.3,0.1"]], ids=["two", "four"]
    )
    def test_two_or_more_points(self, points, holomorphic_file, mixed_file, capsys):
        argv = ["--points", *points, "--at", "0.2,0.1", "--discs", "10", "--seed", "1"]
        assert main(["extend", "--function", holomorphic_file, *argv]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        value = complex(*map(float, out[0].split(",")[1:]))
        # z1^2 z2 + 0.5 at (0.2, 0.1), within the moment bound over its terms
        assert abs(value - (0.2**2 * 0.1 + 0.5)) <= 1e-10 * 1.5
        assert float(out[1].split(",")[1]) < 1e-8
        assert main(["extend", "--function", mixed_file, *argv]) == 1
        assert "not extendible" in capsys.readouterr().err

    def test_extension_failure_after_membership(
        self, holomorphic_file, monkeypatch, capsys
    ):
        def fail(*args, **kwargs):
            raise NotExtendible("no extension value")

        monkeypatch.setattr(cli, "extension_consistency", fail)
        rc = main(["extend", "--function", holomorphic_file, "--points", *SCENE,
                   "--at", "0.2,0.1", "--discs", "4"])
        assert rc == 1
        assert capsys.readouterr().err == "not extendible: no extension value\n"


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
        # (1 + i) (|z1|^2 + |z2|^2 - 1) vanishes on the sphere; sum |c| overflows
        ({(1, 0, 1, 0): 1 + 1j, (0, 1, 0, 1): 1 + 1j, (0, 0, 0, 0): -1 - 1j}, 5e307, 0),
    ], ids=["extendible-1e8", "z2sq-1e-12", "sphere-5e307"])
    def test_scaled_function(self, command, terms, scale, code, tmp_path):
        path = tmp_path / "f.json"
        (scale * HermitianPolynomial(terms)).save(path)
        argv = {
            "test": ["test", "--function", str(path), "--point", "0.3,0.2"],
            "extend": ["extend", "--function", str(path), "--points", *SCENE,
                       "--at", "0.2,0.1"],
        }[command]
        assert main(argv) == code

    def test_largest_scale_fails_every_disc(self, tmp_path, capsys):
        # z1 conj(z2) + z2 conj(z1) + z2^2 conj(z2) near the largest float:
        # sum |c| overflows, and every disc still fails as at scale 1
        path = tmp_path / "f.json"
        HermitianPolynomial(
            {(1, 0, 0, 1): 1e308, (0, 1, 1, 0): 1e308, (0, 2, 0, 1): 1e308}
        ).save(path)
        argv = ["test", "--function", str(path), "--point", "0.3,0.1", "--discs", "3"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.rsplit(",", 1)[1] for line in lines[1:4]] == ["false"] * 3


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

    @pytest.mark.parametrize("command", ["kernel", "extend"])
    @pytest.mark.parametrize("third", ["0,0", "0.5,0"])
    def test_coincident_points(self, command, third, holomorphic_file, capsys):
        # a third point equal to the first or the second is named as such,
        # not as three points on one complex line
        points = ["--points", "0,0", "0.5,0", third]
        argv = {
            "kernel": ["kernel", *points, "--degree", "2", "--discs", "5"],
            "extend": ["extend", "--function", holomorphic_file, *points,
                       "--at", "0.2,0.1", "--discs", "4"],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: points must be pairwise distinct\n"

    @pytest.mark.parametrize("command", ["kernel", "extend"])
    def test_too_near_points_are_not_called_equal(self, command, holomorphic_file,
                                                 capsys):
        # distinct points whose difference underflows: |z|^2 of 1e-163 is 0
        argv, message = {
            "kernel": (["kernel", "--points", "0,0", "1e-163,0", "0,1e-163",
                        "--degree", "2", "--discs", "10", "--seed", "7"],
                       "points too near to tell apart: their difference underflows"),
            "extend": (["extend", "--function", holomorphic_file, "--points", *SCENE,
                        "--at", "1e-200,0", "--discs", "4"],
                       "disc through two points needs points farther apart: their "
                       "difference underflows"),
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

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

    @pytest.mark.parametrize(
        "points,message",
        [
            (["0.5,0"], "extend needs two or more --points: one does not suffice"),
            (["0,0", "0.5,0", "-0.5,0", "0.25,0"], "the 4 points lie on one complex line"),
        ],
        ids=["one", "four-collinear"],
    )
    def test_extend_points_refused(self, points, message, holomorphic_file, capsys):
        # one disc family leaves no second disc through --at to compare with
        assert main(["extend", "--function", holomorphic_file, "--points", *points,
                     "--at", "0.2,0.1", "--discs", "4"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_extend_point_count_before_at(self, holomorphic_file, capsys):
        assert main(["extend", "--function", holomorphic_file, "--points", "0.5,0",
                     "--at", "2,0", "--discs", "4"]) == 2
        assert "one does not suffice" in capsys.readouterr().err

    def test_extend_zero_discs(self, holomorphic_file, capsys):
        self.assert_usage_error(
            ["extend", "--function", holomorphic_file, "--points", *SCENE,
             "--at", "0.2,0.1", "--discs", "0"], capsys,
        )

    @staticmethod
    def forbid_sampling(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("ran before the argument checks")

        monkeypatch.setattr(cli, "sample_disc_families", fail)
        monkeypatch.setattr(cli, "kernel_experiment", fail)
        monkeypatch.setattr(cli, "lemma_suite", fail)

    def test_kernel_disc_limit_is_the_1_gib_matrix(self):
        # the doubled run's complex staircase: 2n discs per point, one entry
        # per monomial and negative degree k <= |beta|; for three points the
        # 100,000 cap is the smaller one below degree 5
        assert cli._kernel_disc_limit(4, 3) == 100_000
        for points in (1, 3, 5):
            for d in range(1, MAX_DEGREE + 1):
                limit = cli._kernel_disc_limit(d, points)
                stored = sum(k[2] + k[3] for k in reduced_basis(d))
                per_disc = 16 * points * 2 * stored
                if limit < 100_000:
                    assert limit * per_disc <= 2**30 < (limit + 1) * per_disc
                else:
                    assert limit == 100_000 and limit * per_disc <= 2**30
        assert cli._kernel_disc_limit(12, 3) == 2997

    @pytest.mark.parametrize(
        "degree,discs", [("12", "2998"), ("12", "100000"), ("1", "100001")]
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
        # the cap is the CLI's: the message names the highest degree, and a
        # fault in the form of a term comes first
        def term(alpha, beta, re=1.0):
            return {"alpha": alpha, "beta": beta, "re": re, "im": 0.0}

        files = {
            "deg13.json": ([term([13, 0], [0, 0])], "monomial degree 13 exceeds cap 12"),
            "deg15.json": (
                [term([13, 0], [0, 0]), term([2, 1], [0, 0]), term([7, 6], [0, 2])],
                "monomial degree 15 exceeds cap 12",
            ),
            "nan.json": (
                [term([13, 0], [0, 0]), term([2, 1], [0, 0], float("nan"))],
                "coefficients must be finite",
            ),
        }
        for name, (terms, message) in files.items():
            path = tmp_path / name
            path.write_text(json.dumps({"terms": terms}))
            for argv in (
                ["test", "--function", str(path), "--point", "0.3,0.2",
                 "--discs", "4"],
                ["extend", "--function", str(path), "--points", *SCENE,
                 "--at", "0.2,0.1", "--discs", "4"],
            ):
                assert main(argv) == 2
                err = capsys.readouterr().err
                assert err == f"error: malformed function file {path}: {message}\n"

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

    @pytest.mark.parametrize("command", ["test", "extend"])
    @pytest.mark.parametrize(
        "document, message",
        [
            ("[]", "the document must be an object"),
            ("{}", "terms must be a list"),
            ('{"terms": {}}', "terms must be a list"),
            ('{"terms": [1]}', "term 0 must be an object"),
            ('{"terms": [{"alpha": [1, 0], "beta": [0, 0], "re": 1, "im": 0}, '
             '{"alpha": [2, 0], "beta": [0, 0], "im": 0}]}', "term 1 lacks re"),
            ('{"terms": [{"alpha": [1, 0], "beta": [0, 0], "re": 1' + "0" * 400
             + ', "im": 0}]}', "coefficients must be finite"),
        ],
        ids=["list", "no-terms", "terms-mapping", "number-term", "no-re", "huge-int"],
    )
    def test_function_file_names_its_fault(
        self, command, document, message, tmp_path, capsys
    ):
        # these printed Python's own error text or a traceback, and a mapping
        # of terms read as the zero function
        path = tmp_path / "bad.json"
        path.write_text(document)
        argv = {
            "test": ["test", "--function", str(path), "--point", "0.3,0.2",
                     "--discs", "4"],
            "extend": ["extend", "--function", str(path), "--points", *SCENE,
                       "--at", "0.2,0.1", "--discs", "4"],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: malformed function file {path}: {message}\n"
        )

    @pytest.mark.parametrize("at", SCENE)
    def test_extend_at_one_of_the_points(self, at, holomorphic_file, capsys):
        self.assert_usage_error(
            ["extend", "--function", holomorphic_file, "--points", *SCENE,
             "--at", at, "--discs", "4"], capsys,
        )

    @pytest.mark.parametrize("command", ["test", "extend"])
    def test_function_file_is_a_directory(self, command, tmp_path, capsys):
        argv = {
            "test": ["test", "--point", "0.3,0.2", "--discs", "4"],
            "extend": ["extend", "--points", *SCENE, "--at", "0.2,0.1",
                       "--discs", "4"],
        }[command]
        self.assert_usage_error([*argv, "--function", str(tmp_path)], capsys)

    @pytest.mark.parametrize("case", ["lemmas", "kernel", "parent-is-file", "empty"])
    def test_report_path_not_writable(self, case, tmp_path, monkeypatch, capsys):
        # checked before the run, which used to take seconds at degree 12
        self.forbid_sampling(monkeypatch)
        (tmp_path / "file").write_text("")
        argv = {
            "lemmas": ["lemmas", "--out", str(tmp_path / "missing" / "r.json")],
            "kernel": ["kernel", "--points", *SCENE, "--degree", "2",
                       "--discs", "10", "--out", str(tmp_path)],
            "parent-is-file": ["lemmas", "--out", str(tmp_path / "file" / "r.json")],
            "empty": ["lemmas", "--out", ""],
        }[case]
        self.assert_usage_error(argv, capsys)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_report_write_fails(self, capsys):
        # /dev/full passes the path check; writing the report then fails
        assert main(["lemmas", "--seed", "0", "--out", "/dev/full"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write report /dev/full: {os.strerror(errno.ENOSPC)}\n"
        )

    def test_report_path_check_writes_nothing(self, tmp_path, capsys):
        # an undersampled run fails after the --out check and before the
        # report: the check neither creates a new file nor truncates one
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        old.write_text("kept")
        for out in (new, old):
            assert main(["kernel", "--points", *SCENE, "--degree", "4",
                         "--discs", "2", "--out", str(out)]) == 1
        assert not new.exists()
        assert old.read_text() == "kept"

    @pytest.mark.parametrize(
        "at", ["0,0.9999999999999999", "1e-200,0"], ids=["near-sphere", "underflow"]
    )
    def test_extend_at_too_near(self, at, holomorphic_file, capsys):
        # near the sphere the disc parameter of --at rounds to |tau| >= 1;
        # 1e-200 passes the exact --at check but is 0,0 to the disc
        self.assert_usage_error(
            ["extend", "--function", holomorphic_file, "--points", *SCENE,
             "--at", at, "--discs", "4"], capsys,
        )

    @pytest.mark.parametrize(
        "command",
        [
            ["test", "--point", "1e200,0"],
            ["test", "--point", "1e308,1e308;0,0"],
            ["kernel", "--points", "0,0", "0.5,0", "0,1e200"],
            ["extend", "--points", "0,0", "1e200,0", "0,0.5", "--at", "0.2,0.1"],
            ["extend", "--points", *SCENE, "--at", "0,-1e200"],
        ],
        ids=["test", "test-both-parts", "kernel", "extend-points", "extend-at"],
    )
    def test_huge_coordinates(self, command, holomorphic_file, capsys):
        # |z|^2 overflows above about 1.3e154
        if command[0] != "kernel":
            command = [*command, "--function", holomorphic_file]
        self.assert_usage_error([*command, "--discs", "4"], capsys)

    @pytest.mark.parametrize(
        "points", [["0,0", "0,0", "0.5,0"], ["0,0", "0.5,0", "0.25,0"]],
        ids=["repeated", "collinear"],
    )
    def test_extend_points_not_in_general_position(
        self, points, holomorphic_file, capsys
    ):
        # the kernel command's contract: both used to exit 0
        self.assert_usage_error(
            ["extend", "--function", holomorphic_file, "--points", *points,
             "--at", "0.2,0.1", "--discs", "4"], capsys,
        )


class TestDefaultRuns:
    """Exit codes of whole commands at their default --discs and --seed,
    with the function files of .github/scripts/console-script.sh, which
    itself checks only what needs the installed command."""

    FILES = {
        "holo": '{"terms": [{"alpha": [2, 1], "beta": [0, 0], "re": 1.0, "im": 0.0}]}',
        "z2sq": '{"terms": [{"alpha": [0, 1], "beta": [0, 1], "re": 1.0, "im": 0.0}]}',
    }

    @pytest.mark.parametrize(
        "code, command",
        [
            # |z2|^2 does not extend along a generic disc
            (1, "test --function z2sq --point 0.3,0.2"),
            (1, "extend --function z2sq --points 0,0 0.5,0 0,0.5 --at 0.2,0.1"),
            # extend takes two or more points in general position
            (0, "extend --function holo --points 0.5,0 0,0.5 --at 0.2,0.1"),
            (1, "extend --function z2sq --points 0.5,0 0,0.5 --at 0.2,0.1"),
            (0, "extend --function holo --points 0,0 0.5,0 0,0.5 -0.3,0.1 --at 0.2,0.1"),
            (1, "extend --function z2sq --points 0,0 0.5,0 0,0.5 -0.3,0.1 --at 0.2,0.1"),
            # usage errors
            (2, "test --function dir --point 0.3,0.2"),
            (2, "extend --function holo --points 0.5,0 --at 0.2,0.1"),
            (2, "extend --function holo --points 0,0 0,0 0.5,0 --at 0.2,0.1"),
            (2, "extend --function holo --points 0,0 0.5,0 -0.5,0 0.25,0 --at 0.2,0.1"),
            (2, "extend --function holo --points 0,0 0.5,0 0,0.5 --at 0,0.9999999999999999"),
            (2, "extend --function holo --points 0,0 0.5,0 0,0.5 --at 1e-200,0"),
        ],
    )
    def test_exit_code(self, code, command, tmp_path, capsys):
        paths = {"dir": str(tmp_path)}
        for name, text in self.FILES.items():
            paths[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(text + "\n")
        assert main([paths.get(arg, arg) for arg in command.split()]) == code
