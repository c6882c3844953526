"""The benchmark's correctness check: comparator and invariants."""

import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import check  # noqa: E402
import workloads  # noqa: E402


def _reference_rows():
    rows = workloads.load_reference("fig6b")
    stable = [i for i, r in enumerate(rows) if r["stable"] and r["en_f1m1"]][:20]
    unstable = [i for i, r in enumerate(rows) if not r["stable"]][:20]
    return [rows[i] for i in stable + unstable]


def _problems(rows, ref):
    return check.check_rows(rows, ref, check.sweep_row_problems)


def test_reference_passes_against_itself():
    ref = _reference_rows()
    assert _problems(copy.deepcopy(ref), ref) == {}


def test_flipped_stable_is_rejected():
    ref = _reference_rows()
    rows = copy.deepcopy(ref)
    rows[-1]["stable"] = True
    bad = _problems(rows, ref)
    assert set(bad) == {len(rows) - 1}
    assert any("stable" in p for p in bad[len(rows) - 1])


def test_relative_change_in_a_measure_is_rejected():
    ref = _reference_rows()
    rows = copy.deepcopy(ref)
    i = next(i for i, r in enumerate(rows) if r["en_f1m1"])
    rows[i]["en_f1m1"] *= 1.0 + 1e-6
    assert set(_problems(rows, ref)) == {i}
    rows[i]["en_f1m1"] = ref[i]["en_f1m1"] * (1.0 + 1e-11)
    assert _problems(rows, ref) == {}


def test_residual_above_gate_is_rejected_even_against_its_own_reference():
    ref = _reference_rows()
    rows = copy.deepcopy(ref)
    rows[0]["lyap_residual"] = 2e-9
    ref[0]["lyap_residual"] = 2e-9
    bad = _problems(rows, ref)
    assert set(bad) == {0}
    assert "lyap_residual" in bad[0][0]


def test_invariants_without_reference():
    ref = _reference_rows()
    stable = copy.deepcopy(ref[0])
    assert check.sweep_row_problems(stable) == []
    stable["fidelity_bound"] += 1e-9
    assert check.sweep_row_problems(stable)
    stable = copy.deepcopy(ref[0])
    stable["fidelity"] = None
    assert check.sweep_row_problems(stable)
    unstable = copy.deepcopy(ref[-1])
    assert check.sweep_row_problems(unstable) == []
    unstable["en_f1f2"] = 0.0
    assert check.sweep_row_problems(unstable)
    unstable = copy.deepcopy(ref[-1])
    unstable["error"] = "boom"
    assert check.sweep_row_problems(unstable)


def test_row_count_mismatch_fails_every_row():
    ref = _reference_rows()
    bad = _problems(copy.deepcopy(ref[:-1]), ref)
    assert check.failed_count(bad, len(ref) - 1) == len(ref) - 1


def test_stability_disagreement_is_rejected():
    rows = workloads.load_reference("fig5")[:5]
    assert check.check_rows(rows, rows, check.stability_row_problems) == {}
    flipped = copy.deepcopy(rows)
    flipped[2]["agree"] = False
    assert set(check.check_rows(flipped, None, check.stability_row_problems)) == {2}


def test_read_table_parses_cells():
    text = ("# header\n"
            "delta,stable,s1,branch,error\n"
            "0.5,true,,2,\n"
            "1,false,-3.5,0,singular; denominator\n")
    rows = check.read_table(text)
    assert rows == [
        {"delta": 0.5, "stable": True, "s1": None, "branch": 2, "error": ""},
        {"delta": 1.0, "stable": False, "s1": -3.5, "branch": 0, "error": "singular; denominator"},
    ]
