"""Regenerate tests/goldens/walker_values.json from the current walker.

Run only in a change that *means* to alter analytic values (a new cost
term in the replay resource model, a changed compile reduction, ...) and
say so in CHANGES.md — never to paper over an unexplained diff in
``tests/whatif/test_walker_golden.py``, whose job is to catch exactly
those.

    PYTHONPATH=src python tests/goldens/regen_walker_values.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))


def main() -> None:
    # Import here so the test module stays the single definition.
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                           / "whatif"))
    from test_walker_golden import APPS, GOLDEN_PATH, VARIANTS, walker_values

    out = {}
    for app in APPS:
        for variant in VARIANTS:
            key = f"{app}/{variant}"
            out[key] = walker_values(app, variant)
            print(key, out[key]["compile_sha256"][:12])
    GOLDEN_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
