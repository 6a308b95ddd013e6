"""Command-line interface: outputs, exit codes, determinism."""

import json
import math

import pytest

from quarklets import cli, duals, stability
from quarklets.cli import (
    MAX_DEGREE, MAX_DUAL_WORK, MAX_GRID_POINTS, MAX_LEVELS, MAX_ORDER, MAX_TABLE_ORDER, main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFilters:
    def test_haar_masks_json(self, capsys):
        code, out, _ = run(capsys, "filters", "--m", "1", "--mt", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["primal"]["taps"] == [[0, [1, 1]], [1, [1, 1]]]
        assert payload["wavelet"]["taps"] == [[0, [1, 1]], [1, [-1, 1]]]

    def test_dual_masks_include_matrices(self, capsys):
        code, out, _ = run(capsys, "filters", "--m", "1", "--mt", "1", "--p", "1", "--dual")
        assert code == 0
        payload = json.loads(out)
        taps = dict((k, v) for k, v in payload["dual_scaling_masks"]["taps"])
        assert taps[0] == [[[1, 1], [-1, 2]], [[0, 1], [2, 1]]]
        assert taps[1] == [[[1, 1], [-1, 2]], [[0, 1], [2, 1]]]

    def test_degree_emits_refinement_matrices(self, capsys):
        code, out, _ = run(capsys, "filters", "--m", "1", "--mt", "1", "--p", "1")
        assert code == 0
        payload = json.loads(out)
        taps = dict((k, v) for k, v in payload["scaling_masks"]["taps"])
        assert taps[0] == [[[1, 1], [0, 1]], [[0, 1], [1, 2]]]
        assert taps[1] == [[[1, 1], [0, 1]], [[1, 2], [1, 2]]]
        assert "dual_scaling_masks" not in payload

    def test_dual_without_p_is_usage_error(self, capsys):
        code, _, err = run(capsys, "filters", "--m", "1", "--mt", "1", "--dual")
        assert code == 2
        assert "error" in err

    def test_invalid_orders_exit_2(self, capsys):
        code, _, err = run(capsys, "filters", "--m", "2", "--mt", "3")
        assert code == 2
        assert "even" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "filters", "--m", "2", "--mt", "4")
        _, out2, _ = run(capsys, "filters", "--m", "2", "--mt", "4")
        assert out1 == out2


class TestVerifyPr:
    def test_identity_holds(self, capsys):
        code, out, _ = run(capsys, "verify-pr", "--m", "1", "--mt", "1", "--p", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["identity_holds"] is True
        assert payload["scalar_identity_holds"] is True
        assert payload["residual_entries"] == []

    def test_file_output(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify-pr", "--m", "2", "--mt", "2", "--p", "2", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["identity_holds"] is True

    def test_residual_exits_one(self, capsys, monkeypatch):
        import quarklets.cli as cli
        from helpers import perturb_detail_block

        from quarklets.modulation import build_modulation

        def broken(m, mt, p):
            return perturb_detail_block(build_modulation(m, mt, p))

        monkeypatch.setattr(cli, "build_modulation", broken)
        code, out, _ = run(capsys, "verify-pr", "--m", "1", "--mt", "1", "--p", "1")
        assert code == 1
        payload = json.loads(out)
        assert payload["identity_holds"] is False
        assert payload["residual_entries"]


class TestStabilityTable:
    def test_markdown_matches_grid(self, capsys):
        code, out, _ = run(capsys, "stability-table", "--max-m", "4", "--max-p", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("| m \\ p |")
        assert "unstable" in lines[3]  # m = 2 row

    def test_csv_layout(self, capsys):
        code, out, _ = run(
            capsys, "stability-table", "--max-m", "2", "--max-p", "1", "--format", "csv"
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "m,p,stability"
        assert rows[1:] == ["1,0,stable", "1,1,stable", "2,0,stable", "2,1,unstable"]

    def test_json_layout(self, capsys):
        code, out, _ = run(
            capsys, "stability-table", "--max-m", "1", "--max-p", "0", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["cells"] == [{"m": 1, "p": 0, "stable": True}]


    @pytest.mark.parametrize("flag", ["--max-m", "--max-p"])
    @pytest.mark.parametrize("value", [MAX_TABLE_ORDER + 1, 10**9])
    def test_oversized_table_exits_2_before_any_work(self, capsys, monkeypatch, flag, value):
        def never(*args):
            raise AssertionError("no cell may be decided for a refused table")

        monkeypatch.setattr(stability, "stability_table", never)
        argv = ["stability-table", "--max-m", "1", "--max-p", "0"]
        argv[argv.index(flag) + 1] = str(value)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert flag in err and str(MAX_TABLE_ORDER) in err

    def test_table_at_the_limit_runs(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(stability, "stability_table", lambda m, p: seen.append((m, p)) or {
            (i, j): True for i in range(1, m + 1) for j in range(p + 1)
        })
        limit = str(MAX_TABLE_ORDER)
        code, _, _ = run(capsys, "stability-table", "--max-m", limit, "--max-p", limit)
        assert code == 0
        assert seen == [(MAX_TABLE_ORDER, MAX_TABLE_ORDER)]


class TestFtZeros:
    def test_zero_csv(self, capsys):
        code, out, _ = run(
            capsys, "ft-zeros", "--m", "2", "--q", "2", "--lo", "-4", "--hi", "4",
            "--samples", "800",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "zero"
        zeros = [float(v) for v in rows[1:]]
        assert len(zeros) == 2
        assert abs(zeros[0] + 2.606) < 1e-3 and abs(zeros[1] - 2.606) < 1e-3

    @pytest.mark.parametrize("samples", ["-7", "0", "1", "2"])
    def test_too_few_samples_exit_2(self, capsys, monkeypatch, samples):
        def never(*args):
            raise AssertionError("no transform value is needed to refuse the grid")

        monkeypatch.setattr(stability, "quark_ft", never)
        code, out, err = run(
            capsys, "ft-zeros", "--m", "2", "--q", "2", "--lo", "-12", "--hi", "12", "--samples", samples
        )
        assert code == 2
        assert out == ""
        assert "at least 3 samples" in err

    @pytest.mark.parametrize("samples", [str(MAX_GRID_POINTS + 1), str(10**12)])
    def test_too_many_samples_exit_2_before_the_scan(self, capsys, monkeypatch, samples):
        def never(*args, **kwargs):
            raise AssertionError("the scan must not run for an oversized grid")

        monkeypatch.setattr(stability, "ft_zero_scan", never)
        code, out, err = run(
            capsys, "ft-zeros", "--m", "2", "--q", "2", "--lo", "-12", "--hi", "12", "--samples", samples
        )
        assert code == 2
        assert out == ""
        assert str(MAX_GRID_POINTS) in err

    def test_samples_at_the_limit_reach_the_scan(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(stability, "ft_zero_scan", lambda *a, samples: seen.append(samples) or [])
        code, out, _ = run(
            capsys, "ft-zeros", "--m", "2", "--q", "2", "--lo", "-12", "--hi", "12",
            "--samples", str(MAX_GRID_POINTS),
        )
        assert code == 0
        assert out == "zero\n"
        assert seen == [MAX_GRID_POINTS]


class TestEigen:
    def test_spectrum_payload(self, capsys):
        code, out, _ = run(capsys, "eigen", "--m", "1", "--mt", "1", "--p", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["eigenvalues"] == [[1, 1], [2, 1], [4, 1], [8, 1]]
        assert payload["condition_e"] is False
        assert payload["eigenvector"][-1] == [1, 1]

    def test_degree_zero_condition_e(self, capsys):
        _, out, _ = run(capsys, "eigen", "--m", "1", "--mt", "1", "--p", "0")
        assert json.loads(out)["condition_e"] is True


class TestDual:
    def test_csv_shape_and_zero_frequency(self, capsys):
        code, out, _ = run(
            capsys,
            "dual", "--m", "1", "--mt", "1", "--p", "0",
            "--levels", "12", "--grid-span", "1", "--grid-depth", "2",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "xi,component,re,im"
        assert len(rows) == 1 + 9
        mid = rows[1 + 4].split(",")
        assert float(mid[0]) == 0.0
        assert abs(float(mid[2]) - 1.0) < 1e-12

    def test_quarklet_values(self, capsys):
        code, out, _ = run(
            capsys,
            "dual", "--m", "1", "--mt", "1", "--p", "0",
            "--levels", "20", "--grid-span", "1", "--grid-depth", "2", "--quarklets",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        by_xi = {float(r.split(",")[0]): complex(float(r.split(",")[2]), float(r.split(",")[3])) for r in rows}
        xi = 2 * math.pi
        w = complex(math.cos(xi / 2), -math.sin(xi / 2))
        target = (1 - w) ** 2 / (1j * xi)
        assert abs(by_xi[xi] - target) < 1e-5

    @pytest.mark.parametrize("span,depth", [("1", "60"), ("1", "17"), ("3", "15"), ("5", "14")])
    def test_oversized_grid_is_refused_before_it_is_built(self, capsys, monkeypatch, span, depth):
        def never(*args):
            raise AssertionError("dyadic_grid must not run for an oversized grid")

        monkeypatch.setattr(duals, "dyadic_grid", never)
        code, out, err = run(
            capsys, "dual", "--m", "1", "--mt", "1", "--p", "0",
            "--grid-span", span, "--grid-depth", depth,
        )
        assert code == 2
        assert out == ""
        assert str(MAX_GRID_POINTS) in err

    @pytest.mark.parametrize("span,depth", [("1", "16"), ("4", "14")])
    def test_grid_at_the_limit_is_built(self, capsys, monkeypatch, span, depth):
        sizes = []

        def tiny(span, depth):
            sizes.append(2 * span * 2**depth + 1)
            return [0]

        monkeypatch.setattr(duals, "dyadic_grid", tiny)
        code, _, _ = run(
            capsys, "dual", "--m", "1", "--mt", "1", "--p", "0", "--levels", "2",
            "--grid-span", span, "--grid-depth", depth,
        )
        assert code == 0
        assert sizes == [MAX_GRID_POINTS]

    @pytest.mark.parametrize("levels", [str(MAX_LEVELS + 1), str(10**9)])
    def test_too_many_levels_exit_2_before_any_work(self, capsys, monkeypatch, levels):
        def never(*args):
            raise AssertionError("nothing may be built for a refused depth")

        monkeypatch.setattr(duals, "dyadic_grid", never)
        monkeypatch.setattr(duals, "dual_quark_ft", never)
        code, out, err = run(capsys, "dual", "--m", "1", "--mt", "1", "--p", "0", "--levels", levels)
        assert code == 2
        assert out == ""
        assert "--levels" in err and str(MAX_LEVELS) in err

    def test_levels_at_the_limit_run(self, capsys, monkeypatch):
        monkeypatch.setattr(duals, "dyadic_grid", lambda span, depth: [0])
        code, out, _ = run(
            capsys, "dual", "--m", "1", "--mt", "1", "--p", "0", "--levels", str(MAX_LEVELS)
        )
        assert code == 0
        assert out.splitlines()[1:] == ["0,0,1,0"]

    def test_work_above_the_cap_exits_2_before_any_work(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("nothing may be built for a refused amount of work")

        for name in ["dyadic_grid", "with_halves", "dual_quark_ft", "build_modulation"]:
            monkeypatch.setattr(duals, name, never)
        code, out, err = run(
            capsys, "dual", "--m", "5", "--mt", "7", "--p", "8",
            "--levels", "64", "--grid-span", "4", "--grid-depth", "14",
        )
        assert code == 2
        assert out == ""
        assert "--levels" in err and str(MAX_DUAL_WORK) in err

    @pytest.mark.parametrize("span,accepted", [(1953, True), (1954, False)])
    def test_work_cap_boundary(self, span, accepted):
        # 2 * 1953 * 2^2 + 1 = 15625 points, and 15625 * 64 * (3 + 1) is the cap exactly
        args = cli.build_parser().parse_args(
            ["dual", "--m", "1", "--mt", "1", "--p", "3", "--levels", "64",
             "--grid-span", str(span), "--grid-depth", "2"]
        )
        assert 15625 * 64 * 4 == MAX_DUAL_WORK
        if accepted:
            cli._check_bounds(args)
        else:
            with pytest.raises(cli.UsageError, match=str(MAX_DUAL_WORK)):
                cli._check_bounds(args)


class TestFramesRoundTrip:
    def test_decompose_then_reconstruct(self, capsys, tmp_path):
        frame = {
            "level": 1,
            "width": 2,
            "coefficients": [[0, [[1, 1], [1, 2]]], [3, [[-2, 3], [0, 1]]]],
        }
        src = tmp_path / "c.json"
        src.write_text(json.dumps(frame))
        s_path, d_path, back = tmp_path / "s.json", tmp_path / "d.json", tmp_path / "c2.json"
        code, _, _ = run(
            capsys,
            "decompose", "--m", "1", "--mt", "1",
            "--input", str(src), "--out-scaling", str(s_path), "--out-detail", str(d_path),
        )
        assert code == 0
        code, _, _ = run(
            capsys,
            "reconstruct", "--m", "1", "--mt", "1",
            "--scaling", str(s_path), "--detail", str(d_path), "--out", str(back),
        )
        assert code == 0
        result = json.loads(back.read_text())
        assert result == json.loads(json.dumps({
            "level": 1,
            "width": 2,
            "coefficients": [[0, [[1, 1], [1, 2]]], [3, [[-2, 3], [0, 1]]]],
        }))


    # a frame that lists translate 0 twice; the reader used to keep only the last entry
    DUPLICATE = '{"level": 1, "width": 1, "coefficients": [[0, [[1, 2]]], [0, [[1, 3]]]]}'
    GOOD = '{"level": 1, "width": 1, "coefficients": [[0, [[1, 2]]]]}'

    def test_decompose_rejects_a_repeated_translate(self, capsys, tmp_path):
        src = tmp_path / "c.json"
        src.write_text(self.DUPLICATE)
        code, _, err = run(
            capsys,
            "decompose", "--m", "1", "--mt", "1",
            "--input", str(src), "--out-scaling", str(tmp_path / "s.json"),
            "--out-detail", str(tmp_path / "d.json"),
        )
        assert code == 2
        assert "error: malformed input: index 0 is repeated" in err
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("bad", ["scaling", "detail"])
    def test_reconstruct_rejects_a_repeated_translate(self, capsys, tmp_path, bad):
        paths = {}
        for name in ("scaling", "detail"):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(self.DUPLICATE if name == bad else self.GOOD)
        code, _, err = run(
            capsys,
            "reconstruct", "--m", "1", "--mt", "1",
            "--scaling", str(paths["scaling"]), "--detail", str(paths["detail"]),
            "--out", str(tmp_path / "c.json"),
        )
        assert code == 2
        assert "error: malformed input: index 0 is repeated" in err
        assert not (tmp_path / "c.json").exists()


class TestSizeBounds:
    def never(self, *args):
        raise AssertionError("nothing may be built for a refused order or degree")

    @pytest.mark.parametrize("argv, flag, value", [
        (["verify-pr", "--m", "1", "--mt", "1", "--p", "0"], "--m", MAX_ORDER + 1),
        (["verify-pr", "--m", "1", "--mt", "1", "--p", "0"], "--mt", MAX_ORDER + 1),
        (["verify-pr", "--m", "1", "--mt", "1", "--p", "0"], "--p", MAX_DEGREE + 1),
        (["filters", "--m", "1", "--mt", "1", "--p", "0"], "--p", 10**9),
        (["dual", "--m", "1", "--mt", "1", "--p", "0"], "--mt", 10**9),
        (["eigen", "--m", "1", "--mt", "1", "--p", "0"], "--p", MAX_DEGREE + 1),
        (["ft-zeros", "--m", "1", "--q", "0", "--lo", "0", "--hi", "1"], "--m", MAX_ORDER + 1),
        (["ft-zeros", "--m", "1", "--q", "0", "--lo", "0", "--hi", "1"], "--q", MAX_DEGREE + 1),
        (["orthogonalize", "--mt", "1", "--p", "0"], "--mt", MAX_ORDER + 1),
        (["orthogonalize", "--mt", "1", "--p", "0"], "--p", MAX_DEGREE + 1),
        (["sample", "--function", "bspline", "--start", "0", "--end", "1"], "--m", 2000),
        (["sample", "--function", "quarklet", "--start", "0", "--end", "1"], "--mt", MAX_ORDER + 1),
        (["sample", "--function", "quark", "--start", "0", "--end", "1"], "--q", MAX_DEGREE + 1),
    ])
    def test_oversized_flag_exits_2_before_any_work(self, capsys, monkeypatch, argv, flag, value):
        for module, name in [(cli, "build_modulation"), (cli, "cdf_masks"), (cli, "bspline"), (cli, "quark"),
                             (cli, "quarklet"), (cli, "orthogonalize_haar"), (stability, "ft_zero_scan"),
                             (stability, "dual_symbol_eigenvalues"), (duals, "dual_quark_ft")]:
            monkeypatch.setattr(module, name, self.never)
        if flag not in argv:
            argv = argv + [flag, "1"]
        argv[argv.index(flag) + 1] = str(value)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and flag in err
        assert str(MAX_DEGREE if flag in ("--p", "--q") else MAX_ORDER) in err

    @pytest.mark.parametrize("command", ["decompose", "reconstruct"])
    def test_oversized_frame_width_exits_2_before_any_work(self, capsys, monkeypatch, tmp_path, command):
        monkeypatch.setattr(cli, "build_modulation", self.never)
        src = tmp_path / "c.json"
        src.write_text(f'{{"level": 1, "width": {MAX_DEGREE + 2}, "coefficients": []}}')
        if command == "decompose":
            files = ["--input", str(src), "--out-scaling", str(tmp_path / "s.json"),
                     "--out-detail", str(tmp_path / "d.json")]
        else:
            files = ["--scaling", str(src), "--detail", str(src), "--out", str(tmp_path / "out.json")]
        code, out, err = run(capsys, command, "--m", "1", "--mt", "1", *files)
        assert code == 2
        assert out == ""
        assert "width" in err and str(MAX_DEGREE + 1) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_orders_and_degree_at_the_limit_run(self, capsys, monkeypatch, tmp_path):
        seen = []
        monkeypatch.setattr(stability, "ft_zero_scan", lambda m, q, *rest, samples: seen.append((m, q)) or [])
        code, _, _ = run(
            capsys, "ft-zeros", "--m", str(MAX_ORDER), "--q", str(MAX_DEGREE), "--lo", "0", "--hi", "1"
        )
        assert code == 0
        assert seen == [(MAX_ORDER, MAX_DEGREE)]
        widest = {"level": 1, "width": MAX_DEGREE + 1, "coefficients": [[0, [[1, 1]] * (MAX_DEGREE + 1)]]}
        src = tmp_path / "c.json"
        src.write_text(json.dumps(widest))
        code, _, err = run(
            capsys, "decompose", "--m", "1", "--mt", "1", "--input", str(src),
            "--out-scaling", str(tmp_path / "s.json"), "--out-detail", str(tmp_path / "d.json"),
        )
        assert code == 0, err
        assert json.loads((tmp_path / "s.json").read_text())["width"] == MAX_DEGREE + 1


class TestOrthogonalizeAndSample:
    def test_orthogonalize_json(self, capsys):
        code, out, _ = run(capsys, "orthogonalize", "--mt", "1", "--p", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["to_plain"][2] == [[1, 6], [-1, 1], [1, 1]]
        assert len(payload["members"]) == 3

    def test_orthogonalize_csv_samples(self, capsys):
        code, out, _ = run(
            capsys, "orthogonalize", "--mt", "1", "--p", "2", "--format", "csv", "--samples", "4"
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "degree,x,value"
        assert len(rows) == 1 + 3 * 5

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_orthogonalize_csv_needs_a_sample(self, capsys, samples):
        code, out, err = run(
            capsys, "orthogonalize", "--mt", "1", "--p", "2", "--format", "csv", "--samples", samples
        )
        assert code == 2
        assert out == ""
        assert "--samples" in err

    @pytest.mark.parametrize("samples", [str(MAX_GRID_POINTS + 1), str(10**12)])
    def test_orthogonalize_csv_sample_cap(self, capsys, monkeypatch, samples):
        def never(*args):
            raise AssertionError("nothing may be built for a refused sample count")

        monkeypatch.setattr(cli, "orthogonalize_haar", never)
        code, out, err = run(
            capsys, "orthogonalize", "--mt", "1", "--p", "2", "--format", "csv", "--samples", samples
        )
        assert code == 2
        assert out == ""
        assert str(MAX_GRID_POINTS) in err

    def test_sample_bspline(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--function", "bspline", "--m", "2",
            "--start", "0", "--end", "2", "--count", "5",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[1] == "0,0"
        assert rows[3] == "1,1"

    @pytest.mark.parametrize("count", [str(MAX_GRID_POINTS + 1), str(10**12), "1"])
    def test_sample_count_refused_before_the_function_is_built(self, capsys, monkeypatch, count):
        def never(*args):
            raise AssertionError("nothing may be built for a refused count")

        monkeypatch.setattr(cli, "bspline", never)
        code, out, err = run(
            capsys, "sample", "--function", "bspline", "--m", "2",
            "--start", "0", "--end", "2", "--count", count,
        )
        assert code == 2
        assert out == ""
        assert "--count" in err and str(MAX_GRID_POINTS) in err

    def test_sample_ortho_quarklet_requires_order_one(self, capsys):
        code, _, err = run(
            capsys, "sample", "--function", "ortho-quarklet", "--m", "2", "--mt", "1",
            "--q", "1", "--start", "0", "--end", "1",
        )
        assert code == 2
        assert "error" in err

    def test_sample_bad_range(self, capsys):
        code, _, _ = run(
            capsys, "sample", "--function", "bspline", "--m", "1",
            "--start", "1", "--end", "0",
        )
        assert code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_missing_input_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "decompose", "--m", "1", "--mt", "1",
            "--input", str(tmp_path / "nope.json"),
            "--out-scaling", str(tmp_path / "s.json"),
            "--out-detail", str(tmp_path / "d.json"),
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"level": 0}',
            '{"level": 1, "width": 1, "coefficients": [[0, [[1.5, 2]]]]}',
            '{"level": 1, "width": 1, "coefficients": [[0, [[1, 0]]]]}',
            '{"level": 1, "width": 1, "coefficients": [[0, [5]]]}',
            '[1, 1, [[0, [[1, 2]]]]]',
            '{"level": 1.5, "width": 1, "coefficients": []}',
            '{"level": 1, "width": 1, "coefficients": [[0.5, [[1, 2]]]]}',
            '{"level": true, "width": 1, "coefficients": []}',
            '{"level": 1, "width": "1", "coefficients": []}',
            '{"level": 1, "width": 1, "coefficients": [5]}',
        ],
        ids=[
            "missing-keys", "float-numerator", "zero-denominator", "bare-number", "top-level-list",
            "float-level", "float-translate", "bool-level", "string-width", "bare-entry",
        ],
    )
    def test_malformed_frame_exits_2(self, capsys, tmp_path, text):
        src = tmp_path / "bad.json"
        src.write_text(text)
        code, _, err = run(
            capsys,
            "decompose", "--m", "1", "--mt", "1",
            "--input", str(src),
            "--out-scaling", str(tmp_path / "s.json"),
            "--out-detail", str(tmp_path / "d.json"),
        )
        assert code == 2
        assert "error: malformed input" in err
