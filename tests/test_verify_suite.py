import nekrasov.solver
from nekrasov import verify


def test_fast_suite_passes(capsys):
    assert verify.run_suite(fast=True)
    out = capsys.readouterr().out
    assert out.count("PASS") == len(verify.FAST_CHECKS)
    assert "FAIL" not in out


def test_crashing_check_reports_fail(capsys, monkeypatch):
    def boom():
        raise RuntimeError("synthetic")

    monkeypatch.setattr(verify, "FAST_CHECKS", [("boom", boom)])
    monkeypatch.setattr(verify, "SLOW_CHECKS", [])
    assert not verify.run_suite()
    assert "FAIL  boom" in capsys.readouterr().out


def test_solving_checks_require_resolved_results(capsys, monkeypatch):
    # no tail is at or below -1, so every SolveResult reads unresolved
    monkeypatch.setattr(nekrasov.solver, "TAIL_THRESHOLD", -1.0)
    assert not verify.run_suite(fast=True)
    failed = {line.split(":")[0][len("FAIL  "):]
              for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")}
    assert failed == {"local bifurcation", "system equivalence", "dispersion recovery",
                      "cross-route profiles"}
