"""tools/parity.py's report of where two outputs part, loaded by path."""

import importlib.util
import time
from pathlib import Path

PARITY = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
_spec = importlib.util.spec_from_file_location("parity", PARITY)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)

CHECKS = [
    b"status=converged iterations=115 final_residual=9.2740798746843057e-12",
    b"trace written to ramp-one.csv",
    b"check ck: PASS",
    b"check descent: PASS (114 indices)",
    b"check contraction: PASS (114 indices)",
    b"check product: PASS (114 indices)",
    b"check small_o: res^2[:115]: PASS; step^2[:114]: PASS",
]
# `ikm run` on the ramp-one case at seed 1: the tail-window certificate line,
# and the constant-schedule lines that replaced it
RAMP_ONE_OLD = [
    b"relaxation_seq(eta_k=gamma*lambda_k, gamma=0.90909090909090917; tail 1249 of 4999): "
    b"sup=-0.069999999999999896 first_nonstrict_k=2 PASS (tail-satisfied, not proved)",
] + CHECKS
RAMP_ONE_NEW = [
    b"relaxation(eta=0.81818181818181823): lhs=0.7527272727272728 rhs=0.81000000000000005 "
    b"margin=0.057272727272727253 PASS",
    b"contraction(q=0.81818181818181834,xi=1): lhs=0.017024793388429729 rhs=0 "
    b"margin=-0.017024793388429729 FAIL",
    b"warning: schedule fails the feasibility certificates; running anyway",
] + CHECKS


def lines(rows):
    return b"".join(row + b"\n" for row in rows)


def test_lines_shifted_by_a_longer_block_are_shared():
    # pairing lines by position reported "8 of 8 lines differ"
    report = parity.first_difference(lines(RAMP_ONE_OLD), lines(RAMP_ONE_NEW))
    assert report == (f"replace at line 1 vs 1: {RAMP_ONE_OLD[0][:100]!r} vs "
                      f"{RAMP_ONE_NEW[0][:100]!r} (1 vs 3 lines; 7 of 8 vs 10 lines shared)")


def test_one_line_replacement():
    report = parity.first_difference(lines(CHECKS), lines(CHECKS[:2] + [b"check ck: FAIL"]
                                                          + CHECKS[3:]))
    assert report == ("replace at line 3 vs 3: b'check ck: PASS' vs b'check ck: FAIL' "
                      "(1 vs 1 lines; 6 of 7 vs 7 lines shared)")


def test_insert_and_delete_name_the_side_that_has_the_lines():
    old, new = lines(CHECKS), lines(CHECKS[:1] + CHECKS[2:])
    assert parity.first_difference(old, new) == (
        "delete at line 2 vs 2: b'trace written to ramp-one.csv' vs nothing "
        "(1 vs 0 lines; 6 of 7 vs 6 lines shared)")
    assert parity.first_difference(new, old).startswith(
        "insert at line 2 vs 2: nothing vs b'trace written to ramp-one.csv' (0 vs 1 lines;")


def test_interleaved_differences_in_long_outputs_are_reported_in_linear_time():
    # every other line differs: a whole-file SequenceMatcher took 33 s and found the
    # same 8501 shared lines
    old = [b"k,residual"] + [b"%d,%.17g" % (k, 1.0 / k) for k in range(1, 17_000)]
    new = [line if i % 2 else line + b"1" for i, line in enumerate(old)]
    new[0] = old[0]
    start = time.perf_counter()
    report = parity.first_difference(lines(old), lines(new))
    assert time.perf_counter() - start < 1.0
    assert report == (f"replace at line 3 vs 3: {old[2]!r} vs {new[2]!r} (1 vs 1 lines; "
                      "at least 8501 of 17000 vs 17000 lines shared)")


def test_a_long_shift_is_an_insert_not_a_rewrite():
    # one line inserted near the top of a 17,000-line output: every later line is shared
    old = [b"%d,%.17g" % (k, 1.0 / k) for k in range(1, 17_001)]
    new = old[:5] + [b"inserted"] + old[5:]
    assert parity.first_difference(lines(old), lines(new)) == (
        "insert at line 6 vs 6: nothing vs b'inserted' (0 vs 1 lines; "
        "17000 of 17000 vs 17001 lines shared)")


def test_a_difference_in_comment_lines_only_is_marked_and_not_diffed_by_column():
    # a trace whose outcome moved from its '# config:' line to a '# derived:' line
    old = lines([b"# ikm-trace-v2", b"# config: a.x=1; run.status=converged", b"k,residual",
                 b"1,0.5"])
    new = lines([b"# ikm-trace-v2", b"# config: a.x=1", b"# derived: run.status=converged",
                 b"k,residual", b"1,0.5"])
    assert parity.compare(([], {"t.csv": old}), ([], {"t.csv": new})) == [
        "t.csv: replace at line 2 vs 2: b'# config: a.x=1; run.status=converged' vs "
        "b'# config: a.x=1' (1 vs 2 lines; 3 of 4 vs 5 lines shared); comment lines only"]
    # a differing row is no comment line: the columns are compared
    edited = new.replace(b"1,0.5", b"1,0.25")
    assert parity.compare(([], {"t.csv": old}), ([], {"t.csv": edited})) == [
        "t.csv: replace at line 2 vs 2: b'# config: a.x=1; run.status=converged' vs "
        "b'# config: a.x=1' (1 vs 2 lines; 2 of 4 vs 5 lines shared)",
        "t.csv: header agrees; rows 1 vs 1; k column agrees; residual 0.5"]
