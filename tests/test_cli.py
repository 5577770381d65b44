import json
import math

import numpy as np
import pytest

from toruseig import eigensolver
from toruseig.cli import (
    build_parser,
    golden_tables,
    main,
    parse_eigenfunction,
    parse_spectrum,
)
from toruseig.oracles import fd_spectrum


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, (out.read_text() if out.exists() else "")


class TestExitCodes:
    def test_usage_error_is_exit_2(self, capsys):
        for argv in (["spectrum", "--order", "not-a-number"],
                     ["spectrum", "--order", "0"],
                     ["spectrum", "--m", ","],
                     ["wavefn", "--m", "0", "--state", "1", "--samples", "-3"],
                     ["wavefn", "--m", "0", "--state", "1", "--samples", "0"],
                     ["embed", "--grid", "-2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_unknown_method_is_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--m", "0", "--state", "1", "--methods", "fourier,magic"])
        assert exc.value.code == 2

    def test_single_method_is_usage_error(self, tmp_path):
        # a repeated method is still one method: nothing would be compared
        for methods in ("fourier", "fourier,fourier"):
            code = main(["compare", "--m", "0", "--state", "1",
                         "--methods", methods])
            assert code == 2

    def test_unknown_state_is_exit_1_and_lists_states(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "wavefn", "--m", "0", "--state", "40",
                          "--beta-max", "5")
        assert code == 1
        err = capsys.readouterr().err
        assert "available" in err and "trivial" in err

    def test_non_real_pencil_root_is_exit_1(self, tmp_path, monkeypatch, capsys):
        pencil = eigensolver._m0_pencil_eigvals
        monkeypatch.setattr(eigensolver, "_m0_pencil_eigvals",
                            lambda alpha, parity, order:
                            np.append(pencil(alpha, parity, order), 3.0 + 0.5j))
        code, _ = run_cli(tmp_path, "spectrum", "--m", "0", "--beta-max", "10")
        assert code == 1
        assert "non-real" in capsys.readouterr().err

    def test_bad_alpha_is_exit_1(self, tmp_path):
        code, _ = run_cli(tmp_path, "spectrum", "--alpha", "1.5", "--m", "0",
                          "--beta-max", "5")
        assert code == 1


class TestSpectrumCommand:
    def test_includes_reference_values(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "--alpha", "0.5", "--m", "0",
                             "--parity", "even", "--order", "10",
                             "--beta-max", "10")
        assert code == 0
        betas = [ev["beta"] for rec in json.loads(text)["records"]
                 for ev in rec["eigenvalues"]]
        for ref in (1.122288, 4.051724, 9.041071):
            assert min(abs(b - ref) for b in betas) < 5e-6

    def test_flat_ring_limit(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "--alpha", "0.001",
                             "--m", "0", "--beta-max", "6")
        assert code == 0
        betas = sorted(ev["beta"] for rec in json.loads(text)["records"]
                       for ev in rec["eigenvalues"])
        assert betas[0] == pytest.approx(0.0, abs=1e-12)
        assert betas[1:5] == pytest.approx([1.0, 1.0, 4.0, 4.0], abs=1e-4)

    def test_byte_identical_reruns(self, tmp_path):
        args = ("spectrum", "--m", "1", "--parity", "even", "--beta-max", "5")
        _, first = run_cli(tmp_path, *args)
        _, second = run_cli(tmp_path, *args)
        assert first == second

    def test_json_roundtrip(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "--m", "1",
                             "--parity", "even", "--beta-max", "5")
        records = parse_spectrum(text, "json")
        assert records == json.loads(text)["records"]

    def test_csv_roundtrip_is_canonical(self, tmp_path):
        args = ("spectrum", "--m", "1", "--parity", "even", "--beta-max", "5",
                "--format", "csv")
        code, text = run_cli(tmp_path, *args)
        assert code == 0
        records = parse_spectrum(text, "csv")
        # reserializing the parsed records reproduces the file byte for byte
        from toruseig.cli import render_csv_rows

        rows = [
            [r["alpha"], r["m"], r["parity"], r["order"], ev["beta"],
             ev["trivial"], ev["residual"], ev["converged"]]
            for r in records for ev in r["eigenvalues"]
        ]
        again = render_csv_rows(
            ["alpha", "m", "parity", "order", "beta", "trivial", "residual",
             "converged"], rows)
        assert again == text

    def test_orders_above_64(self, tmp_path):
        # the residual grid grows with the order (4 points per harmonic)
        code, text = run_cli(tmp_path, "spectrum", "--m", "0", "--order", "80",
                             "--beta-max", "3")
        assert code == 0
        states = [ev for rec in json.loads(text)["records"] for ev in rec["eigenvalues"]
                  if not ev["trivial"]]
        assert [ev["beta"] for ev in states] == pytest.approx([1.1222883, 0.9767313],
                                                              abs=1e-7)
        assert all(ev["converged"] and ev["residual"] < 1e-10 for ev in states)
        code, _ = run_cli(tmp_path, "wavefn", "--m", "0", "--state", "1",
                          "--order", "80")
        assert code == 0

    def test_m1_order_40_lists_its_states(self, tmp_path):
        code, text = run_cli(tmp_path, "spectrum", "--alpha", "0.5", "--m", "1",
                             "--order", "40")
        assert code == 0
        counts = {"even": 5, "odd": 4}  # states below the default beta_max 25
        for rec in json.loads(text)["records"]:
            states = rec["eigenvalues"]
            assert len(states) == counts[rec["parity"]]
            assert all(ev["converged"] for ev in states)


class TestWavefnCommand:
    def test_trivial_state_export(self, tmp_path):
        code, text = run_cli(tmp_path, "wavefn", "--m", "0", "--state", "trivial",
                             "--beta-max", "2", "--samples", "4")
        assert code == 0
        rec = json.loads(text)
        assert rec["lambda"] == 0
        assert rec["beta"] == 0.0
        assert rec["a"][0] == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-12)
        assert all(abs(v - rec["a"][0]) < 1e-12 for _, v in rec["samples"])

    def test_m2_second_state_matches_true_shape(self, tmp_path):
        # the genuine second even m=2 state (not the mislabeled printed row)
        code, text = run_cli(tmp_path, "wavefn", "--m", "2", "--state", "2",
                             "--beta-max", "10")
        assert code == 0
        rec = json.loads(text)
        assert rec["beta"] == pytest.approx(3.17525, abs=1e-4)
        assert rec["a"][2] / rec["a"][0] == pytest.approx(0.691, abs=1e-2)

    def test_json_roundtrip(self, tmp_path):
        code, text = run_cli(tmp_path, "wavefn", "--m", "1", "--state", "1",
                             "--beta-max", "2")
        rec = parse_eigenfunction(text, "json")
        expected = {k: v for k, v in json.loads(text).items()
                    if k not in ("samples", "parity")}
        assert rec == expected

    def test_csv_roundtrip_is_canonical(self, tmp_path):
        code, text = run_cli(tmp_path, "wavefn", "--m", "1", "--state", "1",
                             "--beta-max", "2", "--format", "csv")
        rec = parse_eigenfunction(text, "csv")
        from toruseig.cli import render_csv_rows

        rows = [
            [rec["alpha"], rec["m"], rec["lambda"], rec["beta"],
             rec["normalization"], k, rec["a"][k], rec["b"][k]]
            for k in range(len(rec["a"]))
        ]
        again = render_csv_rows(
            ["alpha", "m", "lambda", "beta", "normalization", "k", "a_k", "b_k"],
            rows)
        assert again == text


class TestCompareCommand:
    def test_three_method_agreement(self, tmp_path):
        code, text = run_cli(tmp_path, "compare", "--m", "0", "--state", "1",
                             "--methods", "fourier,rk,fd", "--beta-max", "5",
                             "--rk-steps", "1024")
        assert code == 0
        payload = json.loads(text)
        assert payload["pass"] is True
        assert payload["pairwise"]["fourier-rk"]["abs_diff"] < 5e-6
        assert payload["pairwise"]["fd-fourier"]["abs_diff"] < 1e-4
        assert payload["eigenfunction"]["pass"] is True
        assert payload["convergence"]["pass"] is True

    @pytest.mark.parametrize("order,code", [("10", 1), ("12", 0)])
    def test_unconverged_fourier_value_fails_on_its_own_verdict(self, tmp_path,
                                                               order, code):
        # at order 10 this state still moves by 9.0e-6 from order 10 to 12
        got, text = run_cli(tmp_path, "compare", "--methods", "fourier,rk,fd",
                            "--alpha", "0.725", "--m", "0", "--parity", "odd",
                            "--state", "3", "--order", order,
                            "--beta-max", "9.602748")
        assert got == code
        block = json.loads(text)["convergence"]
        assert block["tolerance"] == 1e-6
        assert block["pass"] is (code == 0)
        if code:
            assert block["estimate"] == pytest.approx(9.0e-6, abs=0.1e-6)

    def test_fd_matches_high_state_of_one_parity(self, tmp_path):
        # state 8 of the even sector lies past the 12 lowest merged FD states
        code, text = run_cli(tmp_path, "compare", "--m", "0", "--state", "8",
                             "--methods", "fourier,fd", "--beta-max", "80",
                             "--order", "20")
        assert code == 0
        payload = json.loads(text)
        assert payload["beta"]["fourier"] == pytest.approx(64.0389, abs=1e-4)
        assert payload["pairwise"]["fd-fourier"]["pass"] is True


    def test_trivial_state_shooting_bracket(self, tmp_path):
        # the shooting bracket starts at beta = 0, where the m = 0 even
        # mismatch vanishes exactly
        code, text = run_cli(tmp_path, "compare", "--m", "0", "--state", "trivial",
                             "--methods", "fourier,rk")
        assert code == 0
        payload = json.loads(text)
        assert payload["beta"]["rk"] == 0.0
        assert payload["pass"] is True

    def test_ground_state_below_the_scan_step(self, tmp_path):
        # alpha = 0.1, m = 1: the even ground state lies at beta ~ 0.0100
        code, text = run_cli(tmp_path, "compare", "--alpha", "0.1", "--m", "1",
                             "--state", "1", "--methods", "fourier,rk,fd")
        assert code == 0
        payload = json.loads(text)
        assert payload["beta"]["fourier"] == pytest.approx(0.010048345, abs=1e-8)

    def test_eigenfunction_matches_shooting_to_2e6(self, tmp_path):
        # the stencil continued past the truncation resolves this state's
        # shape better than the rows cut at N, which deviate by 4.3e-6
        code, text = run_cli(tmp_path, "compare", "--methods", "fourier,rk",
                             "--alpha", "0.525", "--m", "3", "--parity", "odd",
                             "--state", "2", "--order", "10",
                             "--beta-max", "8.195077")
        assert code == 0
        assert json.loads(text)["eigenfunction"]["max_rel_deviation"] < 2e-6

    def test_fd_takes_same_parity_and_state(self, tmp_path):
        code, text = run_cli(tmp_path, "compare", "--m", "1", "--parity", "odd",
                             "--state", "2", "--methods", "fourier,fd",
                             "--fd-grid", "256")
        assert code == 0
        fd = fd_spectrum(0.5, 1, grid_size=256, k_lowest=2, parity="odd")
        assert json.loads(text)["beta"]["fd"] == fd[1].beta


class TestEmbedCommand:
    def test_mesh_lies_on_torus(self, tmp_path):
        code, text = run_cli(tmp_path, "embed", "--minor-radius", "1",
                             "--major-radius", "2", "--grid", "8")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "theta,phi,x,y,z"
        assert len(lines) == 1 + 64
        for line in lines[1:]:
            theta, phi, x, y, z = map(float, line.split(","))
            rho = math.hypot(x, y)
            assert math.hypot(rho - 2.0, z) == pytest.approx(1.0, abs=1e-7)


class TestGoldenData:
    def test_tables_present_and_consistent(self):
        data = golden_tables()
        assert data["alpha"] == 0.5
        assert set(data["eigenvalue_tables"]) == {"1", "2", "3"}
        for tid, table in data["eigenvalue_tables"].items():
            for row in table["rows"]:
                for col, val in row["cells"].items():
                    assert val is None or val > 0
        assert len(data["table4"]["psi_fs"]) == 5
        assert len(data["table5"]["rows"]) == 3

    def test_repro_json_schema(self, tmp_path):
        code, text = run_cli(tmp_path, "repro", "--table", "5", "--format", "json")
        assert code == 0
        payload = json.loads(text)
        assert payload["table"] == 5
        assert payload["pass"] is True
        assert {"label", "computed", "paper", "abs_diff", "pass", "note"} <= set(
            payload["rows"][0])


class TestParserHelp:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for name in ("spectrum", "repro", "wavefn", "compare", "embed"):
            assert name in text

    def test_defaults_match_reference_configuration(self):
        args = build_parser().parse_args(["spectrum"])
        assert args.alpha == 0.5
        assert args.order == 10
        args = build_parser().parse_args(["compare", "--m", "0", "--state", "1"])
        assert args.rk_steps == 4096
        assert args.fd_grid == 1024

    @pytest.mark.parametrize("command,option,value", [
        ("spectrum", "--rk-steps", "7"), ("spectrum", "--fd-grid", "66"),
        ("wavefn", "--rk-steps", "7"), ("wavefn", "--fd-grid", "66"),
        ("compare", "--format", "csv"), ("spectrum", "--scan-step", "0.01"),
    ])
    def test_unread_options_are_usage_errors(self, command, option, value):
        argv = [command, option, value]
        if command != "spectrum":
            argv += ["--m", "0", "--state", "1"]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
