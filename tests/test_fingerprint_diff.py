import importlib.util
import json
from pathlib import Path

import numpy as np

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint_diff.py"
_spec = importlib.util.spec_from_file_location("fingerprint_diff", _TOOL)
fingerprint_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint_diff)


def _tree(path: Path, report: dict, scan: list, text: str) -> Path:
    path.mkdir(parents=True)
    (path / "analyze_x.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    (path / "scan.jsonl").write_text("".join(json.dumps(r) + "\n" for r in scan))
    (path / "library.txt").write_text(text)
    return path


REPORT = {"alpha": 0.1, "stage_evals": {"refine": 12}, "witness": [[1.0, -0.0], [0.0, 0.25]]}
SCAN = [{"index": 0, "margin": 0.3}, {"index": 1, "margin": 1e-300}]
TEXT = ("pq_norm: 1.0000000000000002\n"
        "estimate_alpha: {'alpha': 0.5, 'n_evals': 851, 'ent': np.float64(0.25), 'w': [-0.0]}\n"
        "exit 2\n")


def _run(tmp_path, report=REPORT, scan=SCAN, text=TEXT):
    base = _tree(tmp_path / "base", REPORT, SCAN, TEXT)
    return fingerprint_diff.main([str(base), str(_tree(tmp_path / "new", report, scan, text))])


def test_identical_trees_pass(tmp_path, capsys):
    assert _run(tmp_path) == 0
    assert "0 changed or removed, 0 added" in capsys.readouterr().out


def test_a_moved_last_bit_fails(tmp_path, capsys):
    moved = dict(REPORT, alpha=float(np.nextafter(0.1, 1.0)))
    assert _run(tmp_path, report=moved) == 1
    assert "analyze_x.json/alpha: 0.1 -> 0.10000000000000002" in capsys.readouterr().out


def test_an_added_report_key_passes_and_is_listed(tmp_path, capsys):
    grown = dict(REPORT, winner="refine", stage_evals={"refine": 12, "nelder_mead": 3})
    assert _run(tmp_path, report=grown) == 0
    out = capsys.readouterr().out
    assert "analyze_x.json/winner: added" in out
    assert "analyze_x.json/stage_evals/nelder_mead: added" in out


def test_removed_and_retyped_values_and_signed_zeros_fail(tmp_path):
    cases = [{k: v for k, v in REPORT.items() if k != "alpha"},
             dict(REPORT, stage_evals={"refine": 12.0}),
             dict(REPORT, witness=[[1.0, 0.0], [0.0, 0.25]]),
             dict(REPORT, witness=[[1.0, -0.0]])]
    for i, report in enumerate(cases):
        assert _run(tmp_path / str(i), report=report) == 1, report


def test_jsonl_lines_and_text_lines_are_compared_exactly(tmp_path):
    moved = {"index": 1, "margin": float(np.nextafter(1e-300, 1.0))}
    assert _run(tmp_path / "a", scan=[SCAN[0], moved]) == 1
    assert _run(tmp_path / "b", scan=SCAN[:1]) == 1
    assert _run(tmp_path / "c", text=TEXT.replace("1.0000000000000002", "1.0")) == 1


def test_a_repr_line_may_gain_a_key_and_nothing_else(tmp_path, capsys):
    head, rep, tail = TEXT.splitlines(keepends=True)
    assert _run(tmp_path / "a", text=head + rep.replace("}", ", 'winner': 'refine'}") + tail) == 0
    assert "library.txt:2 estimate_alpha/'winner': added" in capsys.readouterr().out
    for i, moved in enumerate([rep.replace("0.5", "0.5000000000000001"),
                               rep.replace("np.float64(0.25)", "np.float64(0.25000000000000006)"),
                               rep.replace("851", "851.0"), rep.replace("-0.0", "0.0"),
                               rep.replace("'n_evals': 851, ", "")]):
        assert _run(tmp_path / str(i), text=head + moved + tail) == 1, moved
    assert _run(tmp_path / "b", text=head + rep + "exit 1\n") == 1


def test_a_missing_file_fails(tmp_path):
    base = _tree(tmp_path / "base", REPORT, SCAN, TEXT)
    new = _tree(tmp_path / "new", REPORT, SCAN, TEXT)
    (new / "library.txt").unlink()
    assert fingerprint_diff.main([str(base), str(new)]) == 1
