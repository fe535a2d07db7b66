"""tools/count_diff.py on synthetic count records.

The traced passes take about half a minute, so the tool itself runs as a CI
step after a failed traced-count step; this checks how it names the keys.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import count_diff  # noqa: E402


def test_diff_names_moved_added_and_dropped_keys_in_key_order():
    old = {"exactnum.euler_phi.calls": 17525, "exactnum.CycloNum.embed.calls": 4404, "weyl.close_group.calls": 3}
    new = {"exactnum.euler_phi.calls": 17524, "exactnum.CycloNum.embed.calls": 4404, "exactnum._new.calls": 9}
    assert count_diff.diff(old, new) == [
        "added exactnum._new.calls = 9",
        "exactnum.euler_phi.calls: 17525 -> 17524",
        "dropped weyl.close_group.calls (was 3)",
    ]
    assert count_diff.diff(old, dict(old)) == []
