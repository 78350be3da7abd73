#!/usr/bin/env python3
"""Run one or more preset ablation grids and write their CSV tables.

Presets: rdd, pns, schedule, prompt, enhance, neglabel, modules.
Each grid shares one world; rows vary one axis of the training config.
Runs go one at a time, row by row and seed by seed.

Usage: python scripts/run_ablations.py --presets rdd,pns --seeds 0,1,2 --out results/
"""

import argparse
import dataclasses
from pathlib import Path

from upre.config import CliConfig, Stage1Config, Stage2Config
from upre.pipeline import PRESET_ROWS, AblationSpec, ablation_table, run_ablation


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--presets", default="rdd", help="comma-separated preset names")
    parser.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    parser.add_argument("--out", default="ablation_results")
    parser.add_argument("--fast", action="store_true", help="quarter-length schedule")
    args = parser.parse_args()

    seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base = CliConfig()
    if args.fast:
        train = dataclasses.replace(
            base.train,
            stage1=Stage1Config(iters=125, lr=base.train.stage1.lr, lr_drop_iter=100),
            stage2=Stage2Config(iters=500, lr=base.train.stage2.lr, lr_drop_iter=400),
        )
        base = dataclasses.replace(base, train=train)
    for preset in (p.strip() for p in args.presets.split(",")):
        if preset not in PRESET_ROWS:
            raise SystemExit(f"unknown preset {preset!r}; choose from {sorted(PRESET_ROWS)}")
        spec = AblationSpec(base, seeds, PRESET_ROWS[preset])
        results = run_ablation(spec)
        table = ablation_table(results, (base.train.target_domain,))
        path = out / f"{preset}.csv"
        path.write_text("\n".join(",".join(r) for r in table) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
