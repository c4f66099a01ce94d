"""Golden outputs: sha256 of every file `monoscheme run` writes.

The hashes pin the bundled fig2_n10 flow cell, a seeded `metrics` run, the
fig1 solve written as csv and as json-lines, the bundled order1d,
timestep1d and scan configs, and `compare` of fig1's base and monotonized
reports. A refactor must keep them; a change that moves them on purpose
updates them and says why. They were checked to be identical under 1 and 2
BLAS threads.
"""

import hashlib
from pathlib import Path

import pytest

from monoscheme.cli import main

METRICS_CFG = "[experiment]\nkind = metrics\n[metrics]\ntrials = 60\nmax_n = 6\n"

GOLDEN = {
    "fig2_n10": {
        "centerline.csv": "810a13bae9a926cc504f97c861abb93f117b2a0a5aa24416233db09a895e4d2c",
        "field_auxiliary.csv": "893d50fb859bd600b3d2fe2cda497e28484934de3d7e4020fcf03a41e60f0305",
        "field_base.csv": "ec41316463e7d1cbb8984cdefb1180f8bfcbe6c160f62d47a030dcb38452f00c",
        "field_monotonized.csv": "f94052d2fb516d1b973a44eaad42e8c3873920d9dc2a6414cdbfdbae543dcfca",
        "report_auxiliary.json": "fa03a1cbe705b31f4ee8fd994a97f9aa0739b7c6283d2593d719b192f47e0987",
        "report_base.json": "26b0574a08fc08764d05eafb5e51c87df68620d4dc6e5471c40d4b88cf66a898",
        "report_monotonized.json": "0573d134d0a81b9335d2bea2678d3ca12768911801cddf5a2b5e8ff4eef02186",
        "summary.json": "abf32b77b92b09946164a8fd9c27c52f1a1a367ffe0b6a6061860f9067e9db7f",
    },
    "metrics_seed7": {
        "metrics_trials.csv": "c17010c82e24b26596574855246d6f9ec583b2160864dd162568b7dab832c06b",
        "summary.json": "581598737409f972638a7bcefe121067c807914e292d8809b3d3fdaf81495922",
    },
    "fig1_jsonl": {
        "report_auxiliary.json": "1e47de176835266099929a402f8c102b4a4f727318463966f1cbffb6ec9f5032",
        "report_base.json": "519656efc57c6ea6db3af77b8070da1bf3bd7bee3ab2d41a733b5b46e86a5e41",
        "report_monotonized.json": "e035746b6bf66719d41cf852b5946a394408ad05cad4f416b72c5fada5715d0b",
        "solution1d.jsonl": "7a2411ddecf133a08416d185b374b6b833c31851932a7df441294bedd061a313",
        "summary.json": "298142a487f7b57fd887aea692336473e39ddd79c5333a58ae3d32748d6573a5",
    },
    "fig1": {
        "report_auxiliary.json": "1e47de176835266099929a402f8c102b4a4f727318463966f1cbffb6ec9f5032",
        "report_base.json": "519656efc57c6ea6db3af77b8070da1bf3bd7bee3ab2d41a733b5b46e86a5e41",
        "report_monotonized.json": "e035746b6bf66719d41cf852b5946a394408ad05cad4f416b72c5fada5715d0b",
        "solution1d.csv": "c6fa395e90fd456bb8c4c492fdaa45e163fb92003781577892f4d6cca9300fb5",
        "summary.json": "298142a487f7b57fd887aea692336473e39ddd79c5333a58ae3d32748d6573a5",
    },
    "order1d": {
        "order.csv": "c989af02ea4493608aa451ae233d238c427178f51291920a7e3ad88eb7f77349",
        "summary.json": "4699cd83d87102b562dbb7f6f7b1f3874d4b65bcef8d1003e1826752745692cc",
    },
    "scan": {
        "determinant_scan.csv": "a15fc1ad186ef9948256b240a1a0f387d08f7e31d55485109d2ce832211ac24d",
        "summary.json": "2273f3c213253bd90d183da1d87c0a96c8cdcb29946d7086dabc0c42882fb864",
    },
    # Re-pinned when the time step's F became bvp1d's scheme matrix over h^2:
    # the snapshots moved by at most 6.4e-16, the step count did not.
    "timestep1d": {
        "snapshots.csv": "484a2f56951811a347c80df056c29c405b541f9c22bfddf9f6e5be1906d9520a",
        "summary.json": "1e725b6bad7f1099d960fea8065c744686fae0f2f111e4ef103ad8253e9f478f",
        "trajectory.csv": "6725a697de57e5bf9c91a0cdc28f85cbc75270a986c77b027bf0e0e82672d5c0",
    },
}


def _hashes(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_outputs_match_golden_hashes(name, tmp_path):
    if name == "metrics_seed7":
        cfg = tmp_path / "metrics.cfg"
        cfg.write_text(METRICS_CFG)
        argv = ["run", str(cfg), "--seed", "7"]
    elif name == "fig1_jsonl":
        argv = ["run", "fig1.cfg", "--format", "jsonl"]
    else:
        argv = ["run", f"{name}.cfg"]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert _hashes(out) == GOLDEN[name]


COMPARE_FIG1 = "e9b14cf9bff6748296359a4f78093370730ccbfb8b6d571f622e44344934b1ce"


def test_compare_output_matches_golden_hash(tmp_path):
    run = tmp_path / "fig1"
    assert main(["run", "fig1.cfg", "--out", str(run)]) == 0
    out = tmp_path / "cmp"
    assert main(["compare", str(run / "report_base.json"),
                 str(run / "report_monotonized.json"), "--out", str(out)]) == 0
    assert _hashes(out) == {"comparison.json": COMPARE_FIG1}
