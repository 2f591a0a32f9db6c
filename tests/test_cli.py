import json
import multiprocessing

import pytest

from manincount.cli import UsageError, main, scan_rows
from manincount.verify import run_suite


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_affine_with_oracle(self, capsys):
        code, out, _ = run(capsys, "count", "--mode", "affine", "--B", "2", "--n", "4", "--oracle")
        assert code == 0
        assert "exact=64" in out and "oracle=64" in out and "match=true" in out

    def test_s_mode(self, capsys):
        code, out, _ = run(capsys, "count", "--mode", "S", "--B", "2", "--y", "8")
        assert code == 0
        assert "exact=11" in out

    def test_s_mode_requires_y(self, capsys):
        code, _, err = run(capsys, "count", "--mode", "S", "--B", "2")
        assert code == 2

    @pytest.mark.parametrize("mode", ["S", "M"])
    def test_modes_requiring_y(self, capsys, mode):
        code, out, err = run(capsys, "count", "--mode", mode, "--B", "2")
        assert code == 2 and out == ""
        assert err == f"usage error: --y is required for --mode {mode}\n"

    def test_dead_worker_exits_3(self, capsys, dying_block_worker):
        code, out, err = run(capsys, "count", "--mode", "S", "--B", "70000", "--y", "4900000000",
                             "--workers", "2")
        assert code == 3 and out == ""
        assert err.startswith("worker pool broken: ") and err.count("\n") == 1

    def test_invalid_B(self, capsys):
        code, _, _ = run(capsys, "count", "--mode", "affine", "--B", "0")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "count", "--mode", "projective", "--B", "8",
                           "--format", "json", "--oracle")
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] == "48" and doc["match"] == "true"

    def test_mean_value_mode(self, capsys):
        code, out, _ = run(capsys, "count", "--mode", "M", "--B", "2", "--y", "2")
        assert code == 0
        assert "exact=1" in out

    def test_resource_exit_code(self, capsys):
        # n = 8 runs on the folded walk; n = 12 still needs a lattice table
        # of length B^2 + 1, which the memory budget refuses at once
        code, _, err = run(capsys, "count", "--mode", "affine", "--B", "100000", "--n", "12")
        assert code == 3
        assert "budget" in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "row.csv"
        code, _, _ = run(capsys, "count", "--mode", "T", "--B", "3",
                         "--format", "csv", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[:2] == ["mode", "B"]
        assert lines[1].split(",")[0] == "T"

    def test_out_in_missing_directory(self, capsys, monkeypatch, tmp_path):
        from manincount import counting

        calls = []

        def never(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("counted before checking --out")

        monkeypatch.setattr(counting, "s_sum", never)
        path = tmp_path / "missing" / "x.txt"
        code, out, err = run(capsys, "count", "--mode", "S", "--B", "2", "--y", "8",
                             "--out", str(path))
        assert code == 2 and out == ""
        assert str(path) in err and len(err.strip().splitlines()) == 1
        assert calls == []
        assert not path.parent.exists()


class TestConstants:
    def test_rejects_non_multiple_of_4(self, capsys):
        code, _, _ = run(capsys, "constants", "--n", "6")
        assert code == 2

    def test_rejects_low_digits(self, capsys):
        code, _, _ = run(capsys, "constants", "--n", "4", "--digits", "20")
        assert code == 2

    def test_n4_document(self, capsys, tmp_path):
        path = tmp_path / "c4.json"
        code, _, _ = run(capsys, "constants", "--n", "4", "--prime-limit", "3000",
                         "--digits", "30", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        for key in ("n", "C_script", "C_star", "C_proj", "prime_limit",
                    "tail_bound", "digits", "a0", "a1", "a2"):
            assert key in doc, key
        assert doc["n"] == 4 and doc["digits"] == 30
        assert "cross_route_residual" in doc
        c_script = float(doc["C_script"])
        assert abs(float(doc["C_star"]) - 16 / 3 * c_script) < 1e-12
        # C_script ((3/16) G(1,1)) against 27 zeta(4)/(392 zeta(3)^2): the
        # truncation error, positive and within the printed tail bound
        residual = float(doc["cross_route_residual"])
        assert 0 < residual <= c_script * float(doc["tail_bound"])

    def test_n4_small_prime_limit(self, capsys):
        code, out, _ = run(capsys, "constants", "--n", "4", "--prime-limit", "200")
        assert code == 0
        assert "cross_route_residual" in json.loads(out)

    def test_n4_below_direct_product_limit(self, capsys):
        # no prime-limit floor below 100: the closed form needs no primes
        for plim in ("2", "99"):
            code, out, _ = run(capsys, "constants", "--n", "4", "--prime-limit", plim)
            assert code == 0, plim
            doc = json.loads(out)
            residual = float(doc["cross_route_residual"])
            assert 0 < residual <= float(doc["C_script"]) * float(doc["tail_bound"]), plim

    def test_n8_flags_bernoulli_sign(self, capsys):
        code, out, _ = run(capsys, "constants", "--n", "8", "--prime-limit", "3000")
        assert code == 0
        doc = json.loads(out)
        assert any("negative" in note for note in doc["notes"])
        assert "cross_route_residual" not in doc


class TestVerify:
    def test_hessian_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "hessian", "--budget", "quick")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["failed"] == 0 and summary["checks"] >= 6

    def test_bracketing_seeded(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bracketing", "--seed", "7")
        assert code == 0
        assert "seed=7" in out

    def test_workers_reach_only_pooled_suites(self):
        constants = run_suite("constants", "quick", workers=2)
        bracketing = run_suite("bracketing", "quick", workers=2)
        hessian = run_suite("hessian", "quick", workers=2)
        assert bracketing and all(r.ok for r in constants + bracketing + hessian)
        assert "poly-derivatives-k1" in [r.name for r in constants]
        assert "rank-profile-B2" in [r.name for r in hessian]

    def test_all_stops_at_first_failed_check(self, capsys, monkeypatch):
        from manincount import counting

        true_count = counting.count_affine_bruteforce

        def off_by_one_at_7(B, n):
            return true_count(B, n) + (B == 7 and n == 4)

        monkeypatch.setattr(counting, "count_affine_bruteforce", off_by_one_at_7)
        code, out, _ = run(capsys, "verify", "--suite", "all", "--budget", "quick")
        assert code == 1
        *checks, last = out.strip().splitlines()
        exact = counting.count_affine_exact(7, 4)
        assert checks[-1] == f"FAIL affine-oracle-n4: B=7: exact={exact} brute={exact + 1}"
        assert all(line.startswith("ok ") for line in checks[:-1])
        summary = json.loads(last)
        assert summary["failed"] == 1 and summary["checks"] == len(checks)
        assert summary["failing_case"]["name"] == "affine-oracle-n4"

    def test_quick_oracles_reach_odd_ninth_powers(self, monkeypatch):
        # the mutant "odd-p r*(p^j) off by one from j = 9" first changes
        # N*_4 at B = 141, where d = 3^9 | 27^3 enters the range: the walk
        # reads the mutant through counting's entries, the brute force its
        # lattice table
        from manincount import counting

        true_powers = counting.rn_star_prime_powers

        def off_from_j9(p, emax, k=1):
            return [v + (p > 2 and j >= 9) for j, v in enumerate(true_powers(p, emax, k))]

        monkeypatch.setattr(counting, "rn_star_prime_powers", off_from_j9)
        last = run_suite("oracles", "quick")[-1]
        assert last.name == "affine-oracle-n4" and not last.ok
        assert last.detail.startswith("B=150: ")

    def test_full_identities_start_a_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(multiprocessing, "get_context", refuse)
        with pytest.raises(AssertionError, match="pool was started"):
            run_suite("identities", "full", workers=2)

    @pytest.mark.parametrize("budget", ["Quick", "ful", ""])
    def test_unknown_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="unknown budget"):
            run_suite("identities", budget)
        with pytest.raises(ValueError, match="unknown budget"):
            run_suite("all", budget)

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2


class TestScan:
    def test_header_and_rows(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan", "--quantity", "S", "--B-list", "20,40",
                         "--n", "4", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "B,n,exact,predicted,ratio,log_B,scaled_error"
        assert len(lines) == 3
        assert lines[1].startswith("20,4,10455,")

    def test_T_needs_n4(self, capsys, monkeypatch):
        from manincount import counting

        def never(*args, **kwargs):
            raise AssertionError("counted before rejecting --quantity T --n 8")

        monkeypatch.setattr(counting, "t_sum", never)
        code, out, err = run(capsys, "scan", "--quantity", "T", "--B-list", "100", "--n", "8")
        assert code == 2
        assert out == "" and "--n 4" in err

    def test_empty_b_list(self, capsys):
        code, _, _ = run(capsys, "scan", "--quantity", "S", "--B-list", "")
        assert code == 2

    def test_byte_identical_across_workers(self, capsys, tmp_path):
        texts = []
        for w in ("1", "2", "4"):
            path = tmp_path / f"scan{w}.csv"
            code, _, _ = run(capsys, "scan", "--quantity", "T", "--B-list", "25,50",
                             "--workers", w, "--out", str(path))
            assert code == 0
            texts.append(path.read_bytes())
        assert texts[0] == texts[1] == texts[2]

    def test_library_T_needs_n4(self, monkeypatch):
        from manincount import counting

        def never(*args, **kwargs):
            raise AssertionError("counted before rejecting quantity T at n = 8")

        monkeypatch.setattr(counting, "t_sum", never)
        with pytest.raises(UsageError, match="--n 4"):
            scan_rows("T", [100], 8)
