"""tools/compare_parent.py: the run reports of two checkouts, side by side."""

import importlib.util
import shutil
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("compare_parent", REPO / "tools" / "compare_parent.py")
compare_parent = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare_parent)

SMALL = ["--workloads", "cli_small", "--seeds", "7", "--iterations", "auto,1"]


def test_checkout_against_itself_reads_all_identical(capsys):
    assert compare_parent.main(["--parent-root", str(REPO), *SMALL]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = dict(line.split(": ", 1) for line in lines)
    assert counts["configs"] == "16"  # eight CLI slots, two iteration counts
    reports = counts["readouts equal"].split()[-2]
    assert counts["readouts equal"] == f"{reports} of {reports} reports"
    assert counts["bit-identical reports"] == f"{reports} of {reports}"
    finals = counts["final states byte-identical"].split()[-1]
    assert counts["final states byte-identical"] == f"{finals} of {finals}" and int(finals) > 0
    assert counts["named errors equal"].endswith("(differing: 0)")
    assert counts["largest relative norm move"] == counts["largest relative overlap move"] == "0"
    assert counts["run peaks"].endswith(f"; 0 of {reports} rose by more than 1 KB")


def test_one_sign_flip_in_the_factored_run_is_caught(tmp_path, capsys):
    # Negated per-mode totals of a constant target make its mass negative,
    # so its runs end in DegenerateWeights.
    shutil.copytree(REPO / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    search = tmp_path / "src" / "mvgrover" / "search.py"
    text = search.read_text(encoding="utf-8")
    good = "power_sums = [([m], e)"
    assert text.count(good) == 1
    search.write_text(text.replace(good, "power_sums = [([-m], e)"), encoding="utf-8")
    assert compare_parent.main(["--parent-root", str(REPO), "--root", str(tmp_path), *SMALL]) == 1
    out = capsys.readouterr().out
    assert "named error differs" in out and "change DegenerateWeights" in out
