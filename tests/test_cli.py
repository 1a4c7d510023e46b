import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE1_H, EXAMPLE1_SNR_DB
from ifwb import __version__
from ifwb import rates as rates_module
from ifwb.cli import _json_text, main
from ifwb.rates import ChannelInstance
from ifwb.region import RatePoint, enumerate_achievable_points
from test_region import _TIE_CHANNELS, _seeded_channels

ANCHOR_TOL = 5e-4

# frozen once from the built simulator; changes here mean the randomness
# contract or decoder changed
GOLDEN_SIM = {
    "trials": 4000,
    "seed": 20240611,
    "symbol_error_rate": [0.30025, 0.30275],
    "equation_error_rate": [0.10425, 0.256],
}


@pytest.fixture
def ex1_csv(tmp_path):
    path = tmp_path / "ex1.csv"
    path.write_text(f"{float(np.sqrt(2.0))!r},1.0\n")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestRates:
    def test_example_report(self, capsys, ex1_csv):
        report = run_json(
            capsys,
            ["rates", "--channel", ex1_csv, "--snr-db", "15", "--a-matrix", "1,1;3,2"],
        )
        res = report["results"]
        assert report["snr_db"] == 15.0
        assert res["a_det"] == -1
        per_step = res["successive_if"]["per_step"]
        assert abs(per_step[0] - 1.8452) <= ANCHOR_TOL
        assert abs(per_step[1] - 1.4463) <= ANCHOR_TOL
        perms = {tuple(a["permutation"]) for a in res["allocations"]}
        assert perms == {(1, 2), (2, 1)}
        assert all(a["monotone_feasible"] for a in res["allocations"])
        for key in ("mmse_sic_sum_minus_cwi", "successive_if_identity"):
            assert abs(report["residuals"][key]) <= 1e-9
        assert report["version"]

    def test_identity_channel_at_zero_db(self, capsys, tmp_path):
        path = tmp_path / "ident.csv"
        path.write_text("1,0\n0,1\n")
        report = run_json(capsys, ["rates", "--channel", str(path), "--snr-db", "0"])
        rates = report["results"]["mmse_sic"]["rates"]
        assert all(abs(r - 0.5) <= 1e-9 for r in rates)

    def test_default_a_is_unimodular(self, capsys, ex1_csv):
        report = run_json(capsys, ["rates", "--channel", ex1_csv, "--snr-db", "15"])
        assert abs(report["results"]["a_det"]) == 1

    def test_order_flag(self, capsys, ex1_csv):
        report = run_json(
            capsys,
            ["rates", "--channel", ex1_csv, "--snr-db", "15", "--order", "2,1"],
        )
        stream_rates = report["results"]["mmse_sic"]["stream_rates"]
        assert abs(stream_rates[0] - 3.0028) <= ANCHOR_TOL
        assert abs(stream_rates[1] - 0.2887) <= ANCHOR_TOL

    def test_exit_codes(self, capsys, ex1_csv, tmp_path):
        assert main(["rates", "--channel", ex1_csv, "--snr-db", "15", "--a-matrix", "1,1;2,2"]) == 3
        big = tmp_path / "big.csv"
        rows = ["1," * 10 + "1"] * 11
        big.write_text("\n".join(r.rstrip(",") for r in rows) + "\n")
        assert main(["rates", "--channel", str(big), "--snr-db", "15"]) == 4
        assert main(["rates", "--channel", "/nonexistent.csv", "--snr-db", "15"]) == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("1,x\n")
        assert main(["rates", "--channel", str(bad), "--snr-db", "15"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("snr_db", ["4000", "1e308"])
    def test_rejects_snr_beyond_float_range(self, capsys, ex1_csv, snr_db):
        # 10 ** (snr_db / 10) overflows a float above about 3083 dB
        assert main(["rates", "--channel", ex1_csv, "--snr-db", snr_db]) == 2
        captured = capsys.readouterr()
        assert "beyond the float range" in captured.err
        assert captured.out == ""

    def test_rejects_a_matrix_beyond_int64(self, capsys, ex1_csv):
        argv = ["rates", "--channel", ex1_csv, "--snr-db", "15", "--a-matrix", "99999999999999999999,0;0,1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "bad --a-matrix: A has an entry beyond the int64 range" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("a_matrix, code, message", [
        ("1,0,0;0,1,0;0,0,1", 2, "ifwb: A must be 2x2 for this channel, got (3, 3)"),
        ("1,1;2,2", 3, "ifwb: singular integer matrix: A is singular (exact integer determinant is zero)"),
    ])
    def test_a_matrix_checked_once(self, capsys, ex1_csv, a_matrix, code, message):
        assert main(["rates", "--channel", ex1_csv, "--snr-db", "15", "--a-matrix", a_matrix]) == code
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [message]
        assert captured.out == ""

    def test_signed_permutation_is_plain_sic(self, capsys, ex1_csv):
        """-I gets the allocations of I, and the swap those of decode order (2, 1),
        bit for bit; a matrix that starts with a minus sign takes '='."""
        base = ["rates", "--channel", ex1_csv, "--snr-db", "15"]

        def allocations(a_matrix):
            return run_json(capsys, base + [f"--a-matrix={a_matrix}"])["results"]["allocations"]

        assert allocations("-1,0;0,-1") == allocations("1,0;0,1")
        (swap,) = allocations("0,1;1,0")
        sic = run_json(capsys, base + ["--order", "2,1"])["results"]["mmse_sic"]
        assert swap["permutation"] == [2, 1] and swap["monotone_feasible"]
        assert swap["stream_rates"] == sic["stream_rates"]
        with pytest.raises(SystemExit):
            main(base + ["--a-matrix", "-1,0;0,-1"])
        assert "expected one argument" in capsys.readouterr().err

    def test_complex_channel_pair(self, capsys, tmp_path):
        re_path = tmp_path / "re.csv"
        im_path = tmp_path / "im.csv"
        re_path.write_text("1.0\n")
        im_path.write_text("1.0\n")
        report = run_json(
            capsys,
            ["rates", "--channel", str(re_path), "--channel-imag", str(im_path), "--snr-db", "10"],
        )
        # complex 1x1 becomes a real 2x2 block channel
        assert report["channel"]["rows"] == 2 and report["channel"]["cols"] == 2


class TestOptimizeA:
    def test_kz_mode(self, capsys, ex1_csv):
        report = run_json(capsys, ["optimize-a", "--channel", ex1_csv, "--snr-db", "15"])
        res = report["results"]
        assert abs(res["a_det"]) == 1
        worst = min(res["successive_if_per_step"])
        assert abs(worst - 1.4463) <= ANCHOR_TOL

    def test_brute_mode(self, capsys, ex1_csv):
        report = run_json(
            capsys,
            ["optimize-a", "--channel", ex1_csv, "--snr-db", "15", "--mode", "brute", "--coeff-bound", "3"],
        )
        assert report["results"]["a_det"] != 0


class TestRegion:
    def test_frontier_and_csv(self, capsys, ex1_csv, tmp_path):
        out = tmp_path / "region.json"
        csv_out = tmp_path / "frontier.csv"
        code = main(
            [
                "region", "--channel", ex1_csv, "--snr-db", "15",
                "--coeff-bound", "3", "--out", str(out), "--csv-out", str(csv_out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        frontier = [(p["r1"], p["r2"]) for p in report["results"]["frontier"]]

        def present(r1, r2):
            return any(abs(a - r1) <= ANCHOR_TOL and abs(b - r2) <= ANCHOR_TOL for a, b in frontier)

        assert present(1.8452, 1.4463) and present(1.4463, 1.8452)
        assert present(0.7776, 2.5139) and present(3.0028, 0.2887)

        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "R1,R2,source,detA"
        assert len(lines) == len(frontier) + 1
        for line in lines[1:]:
            r1, r2, source, det = line.split(",")
            assert source in ("sic_corner", "successive_if")
            assert abs(int(det)) >= 1
            float(r1), float(r2)

    def test_rejects_zero_bound(self, capsys, ex1_csv):
        assert main(["region", "--channel", ex1_csv, "--snr-db", "15", "--coeff-bound", "0"]) == 2
        assert capsys.readouterr().err == "ifwb: coeff_bound must be in [1, 5]\n"

    @pytest.mark.parametrize("bound", ["-1", "6"])
    def test_bound_range_is_checked_by_the_library(self, capsys, ex1_csv, bound):
        assert main(["region", "--channel", ex1_csv, "--snr-db", "15", f"--coeff-bound={bound}"]) == 2
        assert capsys.readouterr().err == "ifwb: coeff_bound must be in [1, 5]\n"

    def test_requires_a_bound(self, capsys, ex1_csv):
        assert main(["region", "--channel", ex1_csv, "--snr-db", "15"]) == 2
        assert capsys.readouterr().err == "ifwb: --coeff-bound is required\n"

    def test_rejects_three_streams(self, capsys, tmp_path):
        path = tmp_path / "h3.csv"
        path.write_text("1,0,0\n0,1,0\n0,0,1\n")
        assert main(["region", "--channel", str(path), "--snr-db", "10", "--coeff-bound", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.err == "ifwb: dimension guard: pentagon geometry needs 2 streams, got 3\n"
        assert captured.out == ""

    def test_complex_scalar_channel_becomes_two_user(self, capsys, tmp_path):
        re_path, im_path = tmp_path / "re.csv", tmp_path / "im.csv"
        re_path.write_text("1.0\n")
        im_path.write_text("0.5\n")
        report = run_json(
            capsys,
            ["region", "--channel", str(re_path), "--channel-imag", str(im_path),
             "--snr-db", "10", "--coeff-bound", "2"],
        )
        assert report["channel"]["cols"] == 2
        assert len(report["results"]["frontier"]) >= 1


class TestSimulate:
    @pytest.fixture
    def config_path(self, tmp_path):
        cfg = {
            "channel": [[float(np.sqrt(2.0)), 1.0]],
            "snr_db": 15,
            "a_matrix": [[1, 1], [3, 2]],
            "pam_points": 4,
            "trials": GOLDEN_SIM["trials"],
            "seed": GOLDEN_SIM["seed"],
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", "--config", config_path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", config_path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_golden_fixture(self, capsys, config_path):
        report = run_json(capsys, ["simulate", "--config", config_path])
        res = report["results"]
        assert res["symbol_error_rate"] == GOLDEN_SIM["symbol_error_rate"]
        assert res["equation_error_rate"] == GOLDEN_SIM["equation_error_rate"]
        assert res["ktilde_max_abs_relative_error"] < 0.1

    def test_rejects_zero_trials(self, capsys, tmp_path):
        cfg = {"channel": [[1.0]], "snr_db": 10, "a_matrix": [[1]], "pam_points": 4,
               "trials": 0, "seed": 1}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "noise_scale, message",
        [("NaN", "noise_scale must be finite"), ("Infinity", "noise_scale must be finite"),
         ("-1.0", "noise_scale must be finite"), ('"x"', "bad simulation config: ")],
    )
    def test_rejects_bad_noise_scale(self, capsys, tmp_path, noise_scale, message):
        path = tmp_path / "noise.json"
        path.write_text('{"channel": [[1.0]], "snr_db": 10, "a_matrix": [[1]], '
                        f'"trials": 100, "noise_scale": {noise_scale}}}')
        assert main(["simulate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "field, value",
        [("trials", "2.7"), ("trials", "true"), ("trials", "Infinity"), ("pam_points", "4.9"),
         ("seed", "1.5")],
    )
    def test_rejects_non_integers(self, capsys, tmp_path, field, value):
        path = tmp_path / "fraction.json"
        fields = {"trials": "100", "pam_points": "4", "seed": "1", field: value}
        path.write_text('{"channel": [[1.0, 0.0], [0.0, 1.0]], "snr_db": 20, '
                        + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        assert main(["simulate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"bad simulation config: {field} must be an integer" in captured.err
        assert captured.out == ""

    def test_rejects_pam_points_above_int32_draw(self, capsys, tmp_path):
        path = tmp_path / "pam.json"
        path.write_text('{"channel": [[1.0]], "snr_db": 20, "trials": 10, '
                        '"pam_points": 4294967296}')
        assert main(["simulate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert ("bad simulation config: pam_points must be an even integer from 2 to 2**31"
                in captured.err)
        assert captured.out == ""

    @pytest.mark.parametrize("field", ["snr_db", "noise_scale"])
    def test_rejects_booleans(self, capsys, tmp_path, field):
        path = tmp_path / "bool.json"
        fields = {"snr_db": "20", "noise_scale": "1.0", field: "true"}
        path.write_text('{"channel": [[1.0, 0.0], [0.0, 1.0]], "trials": 10, '
                        + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        assert main(["simulate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"bad simulation config: {field} must be a number" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("a_matrix", ["[[1e30, 0], [0, 1]]", "[[99999999999999999999, 0], [0, 1]]",
                                          "[[9223372036854775808, 0], [0, 1]]"])
    def test_rejects_a_matrix_beyond_int64(self, capsys, tmp_path, a_matrix):
        path = tmp_path / "big_a.json"
        path.write_text('{"channel": [[1.0, 0.0], [0.0, 1.0]], "snr_db": 20, "trials": 10, '
                        f'"a_matrix": {a_matrix}}}')
        assert main(["simulate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert "bad simulation config: A has an entry beyond the int64 range" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("a_matrix, code, message", [
        ("[[1, 0, 0], [0, 1, 0], [0, 0, 1]]", 2,
         "ifwb: bad simulation config: A must be 2x2 for this channel, got (3, 3)"),
        ("[[1, 1], [1, 1]]", 3,
         "ifwb: singular integer matrix: A is singular (exact integer determinant is zero)"),
    ])
    def test_a_matrix_checked_by_the_effective_model(self, capsys, tmp_path, a_matrix, code, message):
        path = tmp_path / "bad_a.json"
        path.write_text('{"channel": [[1.0, 0.0], [0.0, 1.0]], "snr_db": 20, "trials": 10, '
                        f'"a_matrix": {a_matrix}}}')
        assert main(["simulate", "--config", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [message]
        assert captured.out == ""

    @pytest.mark.parametrize("a_matrix", ["[[true, false], [false, true]]", "[[1, true], [0, 1]]"])
    def test_rejects_boolean_a_matrix_entries(self, capsys, tmp_path, a_matrix):
        path = tmp_path / "bool_a.json"
        path.write_text('{"channel": [[1.0, 0.0], [0.0, 1.0]], "snr_db": 20, "trials": 10, '
                        f'"a_matrix": {a_matrix}}}')
        assert main(["simulate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert "bad simulation config: a_matrix entry must be a number, got True" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("field, channel", [
        ("channel", '"channel": [[true, false], [false, true]]'),
        ("channel", '"channel": [[1.0, 0.0], [false, 1.0]]'),
        ("channel_imag", '"channel": [[1.0, 0.0], [0.0, 1.0]], "channel_imag": [[0.0, true], [0.0, 0.0]]'),
    ])
    def test_rejects_boolean_channel_entries(self, capsys, tmp_path, field, channel):
        path = tmp_path / "bool_h.json"
        path.write_text("{" + channel + ', "snr_db": 20, "trials": 10}')
        assert main(["simulate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"bad simulation config: {field} entry must be a number" in captured.err
        assert captured.out == ""

    def test_rejects_a_config_that_is_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["simulate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert "bad simulation config: the config must be a JSON object, got list" in captured.err
        assert captured.out == ""

    def test_rejects_snr_beyond_float_range(self, capsys, tmp_path):
        path = tmp_path / "loud.json"
        path.write_text('{"channel": [[1.0, 0.0], [0.0, 1.0]], "snr_db": 4000, "trials": 10}')
        assert main(["simulate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "ifwb: bad simulation config: SNR of 4000.0 dB is beyond the float range\n"
        assert captured.out == ""

    def test_accepts_integral_floats(self, capsys, tmp_path):
        path = tmp_path / "floats.json"
        path.write_text('{"channel": [[1.0, 0.0], [0.0, 1.0]], "snr_db": 20, '
                        '"trials": 1e2, "pam_points": 4.0, "seed": 2e0}')
        res = run_json(capsys, ["simulate", "--config", str(path)])["results"]
        assert (res["trials"], res["pam_points"], res["seed"]) == (100, 4, 2)

    def test_flags_override_the_config(self, capsys, tmp_path):
        path = tmp_path / "override.json"
        path.write_text('{"channel": [[1.0, 0.0], [0.0, 1.0]], "snr_db": 20, '
                        '"trials": 100, "seed": 1, "pam_points": 4}')
        argv = ["simulate", "--config", str(path), "--trials", "50", "--seed", "9"]
        res = run_json(capsys, argv + ["--pam", "2"])["results"]
        assert (res["trials"], res["seed"], res["pam_points"]) == (50, 9, 2)
        assert main(argv + ["--pam", "3"]) == 2
        captured = capsys.readouterr()
        assert "bad simulation config: pam_points must be an even integer" in captured.err
        assert captured.out == ""

    def test_channel_file_is_not_a_config_key(self, capsys, tmp_path, ex1_csv):
        path = tmp_path / "file.json"
        path.write_text(json.dumps({"channel_file": ex1_csv, "snr_db": 20, "trials": 10}))
        assert main(["simulate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert "bad simulation config: 'channel'" in captured.err
        assert captured.out == ""

    def test_rejects_garbage_config(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 2
        capsys.readouterr()

    def test_rejects_imaginary_part_of_other_shape(self, capsys, tmp_path):
        cfg = {"channel": [[1.0, 0.5], [0.2, 1.0]], "channel_imag": [[0.1, 0.3]],
               "snr_db": 10, "a_matrix": np.eye(4, dtype=int).tolist(), "trials": 100}
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("ifwb: bad simulation config: real and imaginary channel parts "
                                "differ in shape: (2, 2) vs (1, 2)\n")
        assert captured.out == ""


class TestSweep:
    def test_schema_and_monotonicity(self, capsys, ex1_csv):
        code = main(
            ["sweep", "--channel", ex1_csv, "--snr-db", "0,10,15,20",
             "--schemes", "zf-baseline,mmse-sic,if,s-if"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "snr_db,scheme,symmetric_rate,sum_rate"
        table = {}
        for line in lines[1:]:
            snr_db, scheme, sym, tot = line.split(",")
            table.setdefault(scheme, []).append((float(snr_db), float(sym), float(tot)))
        assert set(table) == {"zf-baseline", "mmse-sic", "if", "s-if"}
        for scheme, rows in table.items():
            assert [r[0] for r in rows] == [0.0, 10.0, 15.0, 20.0]
            sym = [r[1] for r in rows]
            tot = [r[2] for r in rows]
            assert all(a <= b + 1e-9 for a, b in zip(sym, sym[1:]))
            assert all(a <= b + 1e-9 for a, b in zip(tot, tot[1:]))
        # s-if dominates parallel if at every SNR
        for (sa, ia) in zip(table["s-if"], table["if"]):
            assert sa[2] >= ia[2] - 1e-9
        # known symmetric total at 15 dB
        at15 = [r for r in table["s-if"] if r[0] == 15.0][0]
        assert abs(at15[1] - 2 * 1.4463) <= 2 * ANCHOR_TOL

    def test_negative_snr_list_takes_equals(self, capsys, ex1_csv):
        assert main(["sweep", "--channel", ex1_csv, "--snr-db=-10,0,10", "--schemes", "s-if"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["-10.0", "0.0", "10.0"]
        with pytest.raises(SystemExit):
            main(["sweep", "--channel", ex1_csv, "--snr-db", "-10,0,10"])
        assert "expected one argument" in capsys.readouterr().err

    def test_rejects_empty_snr_list(self, capsys, ex1_csv):
        assert main(["sweep", "--channel", ex1_csv, "--snr-db", ",", "--schemes", "s-if"]) == 2
        capsys.readouterr()

    def test_rejects_snr_beyond_float_range(self, capsys, ex1_csv):
        assert main(["sweep", "--channel", ex1_csv, "--snr-db", "0,4000", "--schemes", "s-if"]) == 2
        captured = capsys.readouterr()
        assert "beyond the float range" in captured.err
        assert captured.out == ""

    def test_rejects_unknown_scheme(self, capsys, ex1_csv):
        assert main(["sweep", "--channel", ex1_csv, "--snr-db", "10", "--schemes", "magic"]) == 2
        capsys.readouterr()

    def test_rejects_imaginary_part_of_other_shape(self, capsys, tmp_path):
        re_path, im_path = tmp_path / "re.csv", tmp_path / "im.csv"
        re_path.write_text("1.0,0.5\n0.2,1.0\n")
        im_path.write_text("0.1,0.3\n")
        argv = ["sweep", "--channel", str(re_path), "--channel-imag", str(im_path),
                "--snr-db", "10", "--schemes", "s-if"]
        assert main(argv) == 2
        assert "differ in shape" in capsys.readouterr().err

    def test_schemes_without_a_compute_no_a(self, capsys, tmp_path):
        """zf-baseline and mmse-sic read no A, so neither the KZ dimension
        guard nor brute force's missing bound stops them; the schemes that
        read A still exit 4 and 2."""
        path = tmp_path / "h11.csv"
        h = np.random.default_rng(11).standard_normal((11, 11))
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in h.tolist()))
        argv = ["sweep", "--channel", str(path), "--snr-db", "0,20"]
        assert main(argv + ["--schemes", "zf-baseline,mmse-sic"]) == 0
        csv = capsys.readouterr().out
        assert [line.split(",")[:2] for line in csv.splitlines()] == [
            ["snr_db", "scheme"], ["0.0", "zf-baseline"], ["0.0", "mmse-sic"],
            ["20.0", "zf-baseline"], ["20.0", "mmse-sic"]]
        assert main(argv + ["--schemes", "mmse-sic,zf-baseline", "--mode", "brute"]) == 0
        assert sorted(capsys.readouterr().out.splitlines()) == sorted(csv.splitlines())
        assert main(argv + ["--schemes", "zf-baseline,s-if"]) == 4
        assert capsys.readouterr().err == "ifwb: dimension guard: exact KZ guarded to dimension 10\n"
        assert main(argv + ["--schemes", "if", "--mode", "brute"]) == 2
        assert capsys.readouterr().err == "ifwb: brute_force mode requires an entry bound\n"

    @pytest.mark.parametrize("snr_db", ["0,15,30,45,60", "60,-10,30,5,120,20", "5,5,25,25,0,0"])
    def test_kz_started_from_the_previous_snr_keeps_the_csv(self, capsys, tmp_path, monkeypatch, snr_db):
        """The sweep's KZ starts each SNR from the previous transform; its CSV
        is byte for byte that of a sweep whose KZ starts from scratch, also
        on channels whose lattices tie (circulant, all-ones plus I)."""
        rng = np.random.default_rng(34)
        channels = [rng.standard_normal((n, m)) for m, n in ((2, 1), (4, 4), (6, 8), (8, 5), (10, 10))]
        channels += [np.array([[(1.0, 0.5, 0.25, 0.1, 0.3)[(j - i) % m] for j in range(m)]
                               for i in range(m)]) for m in (4, 5)]
        channels.append(np.ones((5, 5)) + np.eye(5))
        outputs = []
        for i, h in enumerate(channels):
            path = tmp_path / f"h{i}.csv"
            path.write_text("".join(",".join(map(repr, row)) + "\n" for row in h.tolist()))
            assert main(["sweep", "--channel", str(path), f"--snr-db={snr_db}"]) == 0
            outputs.append(capsys.readouterr().out)
        kz_reduce = rates_module.kz_reduce
        monkeypatch.setattr(rates_module, "kz_reduce", lambda basis, start=None: kz_reduce(basis))
        for i, out in enumerate(outputs):
            assert main(["sweep", "--channel", str(tmp_path / f"h{i}.csv"), f"--snr-db={snr_db}"]) == 0
            assert capsys.readouterr().out == out


@pytest.mark.parametrize("command, flag, message", [
    ("rates", "--a-matrix", "ifwb: bad --a-matrix: invalid literal for int() with base 10: ''"),
    ("rates", "--order", "ifwb: bad --order: invalid literal for int() with base 10: ''"),
    ("rates", "--channel-imag", "ifwb: cannot read channel file : [Errno 2] No such file or directory: ''"),
    ("sweep", "--schemes", "ifwb: --schemes must name at least one scheme"),
], ids=["a-matrix", "order", "channel-imag", "schemes"])
def test_empty_value_is_not_the_default(capsys, ex1_csv, command, flag, message):
    """An explicit empty value reaches its parser and is an input error, not
    the value the flag takes when it is left out."""
    assert main([command, "--channel", ex1_csv, "--snr-db", "15", f"{flag}="]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["--snr-db", "15"], "--channel is required"),
    (["--channel", "{h}"], "--snr-db is required"),
    (["--channel", "{h}", "--snr-db", "abc"], "bad --snr-db value: could not convert string to float: 'abc'"),
    (["--channel", "{h}", "--snr-db", "10,20"], "this subcommand takes a single --snr-db value"),
    (["--channel", "{h}", "--snr-db", "15", "--order", "1,1"], "--order must be a 1-based permutation of 1..2"),
    (["--channel", "{ragged}", "--snr-db", "15"], "{ragged} is not a rectangular CSV matrix"),
], ids=["no-channel", "no-snr", "snr-not-a-number", "two-snr-values", "order-repeats", "ragged-csv"])
def test_rates_input_errors(capsys, tmp_path, ex1_csv, argv, message):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    paths = {"h": ex1_csv, "ragged": str(ragged)}
    assert main(["rates"] + [a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["ifwb: " + message.format(**paths)]
    assert captured.out == ""


def _channel_argv(tmp_path, command, h):
    """A call of command on the channel h, a list of rows, at 15 dB."""
    if command == "simulate":
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"channel": h, "snr_db": 15, "trials": 100}))
        return ["simulate", "--config", str(config)]
    path = tmp_path / "h.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in h))
    argv = [command, "--channel", str(path), "--snr-db", "15"]
    return argv + ["--coeff-bound", "2"] if command == "region" else argv


_COMMANDS = ("rates", "optimize-a", "region", "simulate", "sweep")


@pytest.mark.parametrize("entry", [1e200, 1e300, -1e300])
@pytest.mark.parametrize("command", _COMMANDS)
def test_rejects_channel_beyond_float_range(capsys, tmp_path, command, entry):
    """snr * max|H_ij|^2 beyond the largest float is one input error, checked
    when the channel is built, before any numpy product can overflow (the
    suite turns every warning into an error)."""
    assert main(_channel_argv(tmp_path, command, [[1.0, entry], [0.5, 2.0]])) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ifwb: ")
    assert "is beyond the float range (largest float 1.7976931348623157e+308)" in err[0]


@pytest.mark.parametrize("command", ["rates", "optimize-a", "simulate", "sweep"])
def test_large_channel_within_float_range_reaches_the_conditioning_check(capsys, tmp_path, command):
    assert main(_channel_argv(tmp_path, command, [[1.0, 1e150], [0.5, 2.0]])) == 2
    assert capsys.readouterr().err.splitlines() == [
        "ifwb: basis columns are (numerically) linearly dependent"]


_HIGH_SNR_H = [[1.0, 0.5], [0.3, 1.2]]


@pytest.mark.parametrize("snr_db", ["150", "200", "250", "300"])
def test_high_snr_channel_reaches_a_result(capsys, tmp_path, snr_db):
    """rates, region and sweep succeed at 150-300 dB, and the rates report's
    residuals stay within 1e-9."""
    argv = _channel_argv(tmp_path, "rates", _HIGH_SNR_H)[:-1] + [snr_db]
    residuals = run_json(capsys, argv)["residuals"]
    assert residuals and all(abs(v) <= 1e-9 for v in residuals.values())
    run_json(capsys, ["region"] + argv[1:] + ["--coeff-bound", "3"])
    assert main(["sweep"] + argv[1:3] + [f"--snr-db=0,{snr_db}"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 4


def test_channel_with_a_1e150_entry(capsys, tmp_path):
    """H = [[1e150, 0.5], [0.3, 1.2]] at 15 dB: G has singular values about
    2e-151 and 0.15, so the lattice basis G^T is numerically rank deficient
    and rates and optimize-a refuse it; region reduces no lattice and
    reaches its result."""
    h = [[1e150, 0.5], [0.3, 1.2]]
    for command, extra in (("rates", []), ("optimize-a", ["--mode", "kz"])):
        assert main(_channel_argv(tmp_path, command, h) + extra) == 2
        assert capsys.readouterr().err.splitlines() == [
            "ifwb: basis columns are (numerically) linearly dependent"]
    assert run_json(capsys, _channel_argv(tmp_path, "region", h))["results"]


def _example_argv(tmp_path, ex1_csv, command):
    """A call of command on example 1 at 15 dB that succeeds."""
    if command == "simulate":
        config = tmp_path / "sim.json"
        config.write_text('{"channel": [[1.4142135623730951, 1.0]], "snr_db": 15, '
                          '"a_matrix": [[1, 1], [3, 2]], "trials": 100}')
        return ["simulate", "--config", str(config)]
    argv = [command, "--channel", ex1_csv, "--snr-db", "15"]
    return argv + ["--coeff-bound", "2"] if command == "region" else argv


_OUTPUT_FLAGS = [(command, "--out") for command in _COMMANDS] + [("region", "--csv-out")]


def _write_to(tmp_path, ex1_csv, command, flag, path):
    """The exit code of the example call of command with flag=path."""
    argv = _example_argv(tmp_path, ex1_csv, command)
    if flag == "--csv-out":  # the JSON report goes to a file, so stdout stays empty
        argv += ["--out", str(tmp_path / "r.json")]
    return main(argv + [f"{flag}={path}"])


@pytest.mark.parametrize("command, flag", _OUTPUT_FLAGS)
class TestOutputPath:
    """An output path that is given is written, or the call exits 2 with one line."""

    def test_empty_path_is_an_input_error(self, capsys, tmp_path, ex1_csv, command, flag):
        assert _write_to(tmp_path, ex1_csv, command, flag, "") == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "ifwb: cannot write : [Errno 2] No such file or directory: ''"]
        assert captured.out == ""

    def test_unwritable_path_is_an_input_error(self, capsys, tmp_path, ex1_csv, command, flag):
        path = str(tmp_path / "missing" / "r.out")
        assert _write_to(tmp_path, ex1_csv, command, flag, path) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"ifwb: cannot write {path}: [Errno 2] No such file or directory: '{path}'"]
        assert captured.out == ""

    def test_directory_path_is_an_input_error(self, capsys, tmp_path, ex1_csv, command, flag):
        path = tmp_path / "a_directory"
        path.mkdir()
        assert _write_to(tmp_path, ex1_csv, command, flag, path) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"ifwb: cannot write {path}: [Errno 21] Is a directory: '{path}'"]
        assert captured.out == ""

    def test_longer_file_holds_exactly_the_new_text(self, capsys, tmp_path, ex1_csv, command, flag):
        fresh, path = tmp_path / "fresh", tmp_path / "longer"
        assert _write_to(tmp_path, ex1_csv, command, flag, fresh) == 0
        path.write_text("stale\n" * (len(fresh.read_text()) // 3))
        assert _write_to(tmp_path, ex1_csv, command, flag, path) == 0
        capsys.readouterr()
        assert path.read_bytes() == fresh.read_bytes()

    def test_character_device_is_written(self, capsys, tmp_path, ex1_csv, command, flag):
        """A file that is not regular is written as it is, not truncated."""
        assert _write_to(tmp_path, ex1_csv, command, flag, os.devnull) == 0
        captured = capsys.readouterr()
        assert captured.err == captured.out == ""


class TestRegionOutputPaths:
    """Both region paths are opened before either is written: a call that exits 2
    on one of them leaves no file it created and truncates none."""

    @staticmethod
    def region(tmp_path, ex1_csv, *flags):
        return main(_example_argv(tmp_path, ex1_csv, "region") + list(flags))

    @pytest.mark.parametrize("empty", ["--out", "--csv-out"])
    def test_empty_path_writes_nothing(self, capsys, tmp_path, ex1_csv, empty):
        other = {"--out": "--csv-out", "--csv-out": "--out"}[empty]
        written = tmp_path / "written"
        assert self.region(tmp_path, ex1_csv, f"{other}={written}", f"{empty}=") == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "ifwb: cannot write : [Errno 2] No such file or directory: ''"]
        assert captured.out == ""
        assert not written.exists()

    def test_unopenable_csv_path_removes_the_created_report(self, capsys, tmp_path, ex1_csv):
        report, csv_path = tmp_path / "r.json", str(tmp_path / "missing" / "x.csv")
        assert self.region(tmp_path, ex1_csv, "--out", str(report), "--csv-out", csv_path) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"ifwb: cannot write {csv_path}: [Errno 2] No such file or directory: '{csv_path}'"]
        assert not report.exists()

    def test_unopenable_csv_path_leaves_an_existing_report(self, capsys, tmp_path, ex1_csv):
        report = tmp_path / "r.json"
        report.write_text("an earlier report\n")
        assert self.region(tmp_path, ex1_csv, "--out", str(report),
                           "--csv-out", str(tmp_path / "missing" / "x.csv")) == 2
        capsys.readouterr()
        assert report.read_text() == "an earlier report\n"

    def test_unopenable_csv_path_keeps_stdout_empty(self, capsys, tmp_path, ex1_csv):
        assert self.region(tmp_path, ex1_csv, "--csv-out", str(tmp_path / "missing" / "x.csv")) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1

    def test_one_path_for_both_holds_the_csv(self, capsys, tmp_path, ex1_csv):
        """As when each is written in turn: the CSV is written last."""
        both, csv_path = tmp_path / "both", tmp_path / "frontier.csv"
        assert self.region(tmp_path, ex1_csv, "--out", str(both), "--csv-out", str(both)) == 0
        assert self.region(tmp_path, ex1_csv, "--csv-out", str(csv_path)) == 0
        capsys.readouterr()
        assert both.read_text() == csv_path.read_text()

    def test_one_path_for_both_over_a_longer_file_holds_the_csv(self, capsys, tmp_path, ex1_csv):
        both, csv_path = tmp_path / "both", tmp_path / "frontier.csv"
        assert self.region(tmp_path, ex1_csv, "--csv-out", str(csv_path)) == 0
        both.write_text("stale\n" * 10_000)
        assert self.region(tmp_path, ex1_csv, "--out", str(both), "--csv-out", str(both)) == 0
        capsys.readouterr()
        assert both.read_bytes() == csv_path.read_bytes()

    def test_two_longer_files_hold_exactly_the_new_texts(self, capsys, tmp_path, ex1_csv):
        fresh = [tmp_path / "fresh.json", tmp_path / "fresh.csv"]
        longer = [tmp_path / "longer.json", tmp_path / "longer.csv"]
        assert self.region(tmp_path, ex1_csv, "--out", str(fresh[0]), "--csv-out", str(fresh[1])) == 0
        for new, old in zip(fresh, longer):
            old.write_text("stale\n" * len(new.read_text()))
        assert self.region(tmp_path, ex1_csv, "--out", str(longer[0]), "--csv-out", str(longer[1])) == 0
        capsys.readouterr()
        assert [p.read_bytes() for p in longer] == [p.read_bytes() for p in fresh]


class TestParserBuiltOnce:
    def test_one_parser_per_process(self):
        from ifwb.cli import build_parser

        assert build_parser() is build_parser()

    def test_sequence_matches_fresh_parsers(self, capsys, monkeypatch, ex1_csv):
        from ifwb import cli

        region = ["region", "--channel", ex1_csv, "--snr-db", "15", "--coeff-bound", "2"]
        sequence = [
            region,
            ["rates", "--channel", ex1_csv, "--snr-db", "15"],
            ["sweep", "--channel", ex1_csv, "--snr-db", "10", "--schemes", "magic"],
            region,
        ]

        def run():
            results = []
            for argv in sequence:
                code = cli.main(argv)
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            return results

        cli.build_parser()  # the cached parser exists before the sequence starts
        cached = run()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = run()
        assert [code for code, _, _ in cached] == [0, 0, 2, 0]
        assert cached == fresh


_SCALARS = st.one_of(
    st.text(),  # non-ASCII, quotes, backslashes and control characters
    st.sampled_from(["\u2028", '"\\', "\x00\x1f\x7f", "é€😀"]),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([2**63, 2**64 + 1, -(2**63) - 1]),
    st.booleans(),
    st.none(),
    st.floats(),  # NaN, infinities, -0.0 and subnormals included
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324]),
    st.floats().map(np.float64),
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=25,
)


def _nested(levels):
    """levels containers deep, alternating lists and dicts, with scalars beside each."""
    value = 1.5
    for i in range(levels):
        value = [i, value, "x"] if i % 2 else {"i": i, "v": value, "f": i / 3}
    return value


class TestJsonWriter:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(value=_JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert _json_text(value) == json.dumps(value, indent=2) + "\n"

    @pytest.mark.parametrize(
        "value",
        [
            pytest.param(_nested(200), id="200-levels"),
            pytest.param([i / 7 if i % 3 else i for i in range(10**4)], id="10k-items"),
            pytest.param([1, True, 2, None, 3, float("nan"), 4, np.float64(0.1), -0.0,
                          float("-inf"), 5, False, "s", [True, None], 6], id="mixed-list"),
            pytest.param({"a": 1, "b": True, "c": None, "d": float("nan"), "e": np.float64(2.5),
                          "f": [1, False, np.float64(-1e300)], "g": float("inf"), "h": 7},
                         id="mixed-dict"),
        ],
    )
    def test_matches_json_dumps_beyond_the_strategy(self, value):
        assert _json_text(value) == json.dumps(value, indent=2) + "\n"

    @pytest.mark.parametrize("value", [np.int64(3), {1, 2}, [1.0, {"a": np.int64(3)}], {"s": {1}}])
    def test_type_errors_match_json_dumps(self, value):
        with pytest.raises(TypeError) as want:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as got:
            _json_text(value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("command", ["rates", "optimize-a", "region", "simulate"])
    def test_reports_are_indented_json(self, tmp_path, ex1_csv, command):
        out = tmp_path / "report.json"
        assert main(_example_argv(tmp_path, ex1_csv, command) + ["--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def _point_form(p):
    """A rate point as the region report writes it: this dict, one-based permutation."""
    return {
        "r1": p.rates[0],
        "r2": p.rates[1],
        "source": p.source,
        "a": [list(row) for row in p.A],
        "det_a": p.det_a,
        "permutation": [int(i) + 1 for i in p.permutation],
    }


def _dict_form(value):
    """value with each RatePoint in it replaced by its _point_form."""
    if type(value) is RatePoint:
        return _point_form(value)
    if isinstance(value, (list, tuple)):
        return [_dict_form(v) for v in value]
    if isinstance(value, dict):
        return {k: _dict_form(v) for k, v in value.items()}
    return value


_REGION_CHANNELS = (
    [("example1", EXAMPLE1_H, EXAMPLE1_SNR_DB)]
    + [(f"seeded{i}", ch.H, float(10.0 * np.log10(ch.snr))) for i, ch in enumerate(_seeded_channels())]
    + [(f"tie{i}", ch.H, float(10.0 * np.log10(ch.snr))) for i, ch in enumerate(_TIE_CHANNELS)]
)


_RATE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, 1.7976931348623157e308, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_SMALL = st.integers(-5, 5)


@st.composite
def _rate_points(draw):
    """A point as region.enumerate_achievable_points makes it: two finite float
    rates (0.0, -0.0, subnormal and huge among them), either source, a 2x2 int
    A and either permutation, all in tuples."""
    return RatePoint(
        rates=(draw(_RATE), draw(_RATE)),
        source=draw(st.sampled_from(["successive_if", "sic_corner"])),
        A=draw(st.tuples(*[st.tuples(_SMALL, _SMALL)] * 2)),
        permutation=draw(st.sampled_from([(0, 1), (1, 0)])),
    )


class TestRatePointTemplate:
    """The region report writes each RatePoint through a template, and the text
    is that of the point's dict form at every indentation depth."""

    @pytest.mark.parametrize("bound", range(1, 6))
    @pytest.mark.parametrize("name, h, snr_db", _REGION_CHANNELS, ids=[c[0] for c in _REGION_CHANNELS])
    def test_region_report_is_its_dict_form(self, tmp_path, name, h, snr_db, bound):
        channel, out = tmp_path / "h.csv", tmp_path / "r.json"
        channel.write_text("".join(",".join(map(repr, row)) + "\n" for row in h.tolist()))
        argv = ["region", "--channel", str(channel), f"--snr-db={snr_db!r}",
                "--coeff-bound", str(bound), "--out", str(out)]
        assert main(argv) == 0
        ch = ChannelInstance(np.array(h.tolist()), 10.0 ** (snr_db / 10.0))
        reg = enumerate_achievable_points(ch, bound)
        report = {
            "channel": {"rows": ch.num_receive, "cols": 2, "entries": ch.H.tolist()},
            "snr_db": snr_db,
            "results": {
                "coeff_bound": bound,
                "capacity_vertices": [list(v) for v in reg.capacity_vertices],
                "points": [_point_form(p) for p in reg.points],
                "frontier": [_point_form(p) for p in reg.frontier],
            },
            "residuals": {},
            "version": __version__,
        }
        assert any(p.source == "sic_corner" for p in reg.points)
        assert out.read_text(encoding="utf-8") == json.dumps(report, indent=2) + "\n"

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(points=st.lists(_rate_points(), min_size=1, max_size=3), depth=st.integers(0, 4))
    def test_hand_built_points(self, points, depth):
        value = points
        for level in range(depth):
            value = {"level": level, "points": value} if level % 2 else [value, level]
        assert _json_text(value) == json.dumps(_dict_form(value), indent=2) + "\n"
