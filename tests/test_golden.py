"""Every file the CLI writes equals its pinned digest in tests/data/golden_outputs.json."""

import json

from golden_outputs import GOLDEN_PATH, pinned_outputs


def test_cli_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    outputs = pinned_outputs(tmp_path)
    installed = outputs["versions"]
    differ = [f"{name} {pinned} pinned, {installed[name]} installed"
              for name, pinned in golden["versions"].items() if installed[name] != pinned]
    assert not differ, ("the golden digests were pinned on other library versions or OpenBLAS "
                        f"kernels: {', '.join(differ)}")
    found = outputs["sha256"]
    pinned = golden["sha256"]
    changed = sorted(name for name in pinned.keys() & found.keys() if pinned[name] != found[name])
    assert not changed, f"outputs differ from their golden digests: {', '.join(changed)}"
    assert found.keys() == pinned.keys(), (
        f"files written but not pinned: {sorted(found.keys() - pinned.keys())}; "
        f"pinned but not written: {sorted(pinned.keys() - found.keys())}")
