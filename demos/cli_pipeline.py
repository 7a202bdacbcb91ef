"""The whole command line surface, run in-process in a temp directory.

Mirrors a shell session: generate a benchmark, fit, score, evaluate, then
the three experiment commands. Each call is the exact argv the installed
`explor` entry point would receive. The temp directory and its artifacts
are removed at the end.
"""

import json
import tempfile
from pathlib import Path

from explor.cli import main

with tempfile.TemporaryDirectory(prefix="explor_demo_") as tmp:
    root = Path(tmp)
    cfg = root / "config.json"
    cfg.write_text(json.dumps({
        "latent": {"components": 4},
        "pseudo": {"k": 8, "max_depth": 4},
        "net": {"hidden": [16, 16], "iterations": 150, "batch_size": 64},
        "synth": {"n_id": 300, "n_ood": 150, "d": 5},
    }, indent=2))
    base = ["--config", str(cfg), "--output-dir", str(root)]

    steps = [
        ["synth", *base],
        ["fit", "--train", f"{root}/train.csv", *base],
        ["predict", "--bundle", f"{root}/bundle.json", "--data", f"{root}/ood_test.csv", *base],
        ["eval", "--predictions", f"{root}/predictions.csv", "--data", f"{root}/ood_test.csv", *base],
        ["stability", "--train", f"{root}/train.csv", "--test", f"{root}/ood_test.csv",
         "--trials", "3", "--stability-methods", "explor,pl_ens", *base],
        ["loo", "--data", f"{root}/train.csv", "--clusters", "3", "--method", "pl_ens", *base],
        ["ablate", "--train", f"{root}/train.csv", "--test", f"{root}/ood_test.csv",
         "--axis", "bottleneck", *base],
    ]

    for argv in steps:
        print(f"\n$ explor {' '.join(argv)}")
        code = main(argv)
        assert code == 0, f"exit code {code}"

    print("\nartifacts:")
    for p in sorted(root.iterdir()):
        print(f"  {p.name:>28}  {p.stat().st_size:>7} bytes")
