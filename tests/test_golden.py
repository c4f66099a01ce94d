"""Golden outputs: sha256 of every file `monoscheme run` writes.

The hashes pin the bundled fig2_n10 and fig2 (N=20) flow cells, a seeded
`metrics` run, the fig1 solve written as csv and as json-lines, the bundled
order1d, timestep1d and scan configs, a `timestep` run at n = 400, and
`compare` of fig1's base and monotonized reports. A refactor must keep them;
a change that moves them on purpose updates them and says why. They were
checked to be identical under 1 and 2 BLAS threads.
"""

import hashlib
from pathlib import Path

import pytest

from monoscheme.cli import main

METRICS_CFG = "[experiment]\nkind = metrics\n[metrics]\ntrials = 60\nmax_n = 6\n"

# The line1d benchmark's timestep input set 3: fig1's coefficients at n = 400.
TIMESTEP400_CFG = (
    "[experiment]\nkind = timestep\n"
    "[problem]\nk0 = 10\nk1 = -5\nk2 = 30\nk3 = -1\na = 0\nb = 1\nn = 400\n"
    "u_left = -0.8287016657127513\nu_right = -0.5263789868078006\n"
    "[stepping]\ntau = 0.01\nsigma = 1\nsteady_tol = 1e-10\nmax_steps = 1000\n"
    "snapshot_every = 10\n"
)

GOLDEN = {
    # Re-pinned when the flow sweep folded its constants into its
    # coefficients: against the old sweep the fields moved by at most
    # 9.2e-16 of each field's largest value, and the sweep counts stayed at
    # 1024/964. The strict extremum counts and the sharpness taken at them
    # moved, because they hinge on rounding-level ties (README, "Known
    # deviations").
    "fig2_n10": {
        "centerline.csv": "7c5370acd53d75b3a2c19023532fab0df27f1e39e6a0d9970b2128526e9bccfe",
        "field_auxiliary.csv": "c74e7c0b98774be9d0d303ab0a891091b94aaf82a1d9a2e9d3803d02c387e5de",
        "field_base.csv": "07e2ece74850bc474fad9a078dbdf38d591a04b2d713090a7d8f974235178f7c",
        "field_monotonized.csv": "024a97b403d84895ab394f8e48a8e64785dcbe14b5e6eca1503eaeeeca3682e7",
        "report_auxiliary.json": "75f3f2574acd7a5af7637f70fe3fb0f20ac0906e066f16820cd8010d2db3423d",
        "report_base.json": "e522bd86f6a90a6a9296f9b26aac64a76dd474a02a2b07ae3eb149d0c858ebfa",
        "report_monotonized.json": "a67dff80ebc33ad32d8077b9c04014bba62f38574bfa91c04b8df51a1398968d",
        "summary.json": "b33416e46a19bb9e9b85e46c6174432dba69d94cf46f2144c1d77cb660ba9b0f",
    },
    # The bundled fig2 at N=20: 1910 and 1906 sweeps.
    "fig2": {
        "centerline.csv": "d99cf471b2f2e9763a4318025932e137c443e4792d3de32056d21956af698d58",
        "field_auxiliary.csv": "3fb9e5e710e952e1f13c66175b60201c737f7aeb9bb2eb0274e7c45a47ed97f5",
        "field_base.csv": "a7548187df11bb2269a44c5f148724efb91cb5bef98759d3b050712394ce1957",
        "field_monotonized.csv": "edce17367e16f74ba4f50eafa3a4755c58cb46e867665e74c4d7741fb897c95d",
        "report_auxiliary.json": "4461d4ba67d3735a62a557a9c99c235af58b4169b027de8c4d373ac2f52cb5a9",
        "report_base.json": "9a1f51720d1e9806678bcb3121bcfab0ef751247ffeeb321912fa4c1a8ddeb91",
        "report_monotonized.json": "0656dab14243342cea37bb21844cb580713dc87816470a6b5544cdd810a3a7ee",
        "summary.json": "6f80c7e0688c74d1cd3bc2e60eba4660d4c87d00e404d7a435cd741e203d6485",
    },
    "metrics_seed7": {
        "metrics_trials.csv": "c17010c82e24b26596574855246d6f9ec583b2160864dd162568b7dab832c06b",
        "summary.json": "581598737409f972638a7bcefe121067c807914e292d8809b3d3fdaf81495922",
    },
    # fig1 and fig1_jsonl were re-pinned when the analytic oracle became one
    # characteristic-root form with anchored exponentials: reference_analytic
    # and the two *_analytic_distance_c values moved by at most 2.2e-16; the
    # u, v, y and reference_dense columns and the reports kept their bits.
    # They and order1d were re-pinned again when the oracle's particular
    # solution took the small root's exponential in, (k0/q) expm1(r t)/r for
    # -k0/k1: reference_analytic moved by at most 3.9e-16, the two
    # *_analytic_distance_c values by 5.6e-15 and 1.3e-14 relative, order1d's
    # errors by at most 1.1e-16 and its orders by 7.0e-11 relative.
    "fig1_jsonl": {
        "report_auxiliary.json": "1e47de176835266099929a402f8c102b4a4f727318463966f1cbffb6ec9f5032",
        "report_base.json": "519656efc57c6ea6db3af77b8070da1bf3bd7bee3ab2d41a733b5b46e86a5e41",
        "report_monotonized.json": "e035746b6bf66719d41cf852b5946a394408ad05cad4f416b72c5fada5715d0b",
        "solution1d.jsonl": "46ec3359af5cc093129ad30062ae610076648256645a241fe4a50145d4947700",
        "summary.json": "60a110d816813c85edfeb5869a92553b46832c77e2bd57d6a6d2f61f83492bc6",
    },
    "fig1": {
        "report_auxiliary.json": "1e47de176835266099929a402f8c102b4a4f727318463966f1cbffb6ec9f5032",
        "report_base.json": "519656efc57c6ea6db3af77b8070da1bf3bd7bee3ab2d41a733b5b46e86a5e41",
        "report_monotonized.json": "e035746b6bf66719d41cf852b5946a394408ad05cad4f416b72c5fada5715d0b",
        "solution1d.csv": "a73c9c83d8e4128df35407fbe31b04b4ba1bda3759869bf59a587cffef7945a3",
        "summary.json": "60a110d816813c85edfeb5869a92553b46832c77e2bd57d6a6d2f61f83492bc6",
    },
    "order1d": {
        "order.csv": "27c7164d48e57242aa8f608f7decf66aa5fea7f8a2943e49721fa14fbf7a3790",
        "summary.json": "cbb1b16e16c56036b4dc1e5aa4eb82f8ea2d84c0da278255ab6f7dc20f824412",
    },
    # Re-pinned when the indicator's singular values came from the n x n
    # persymmetric band J A in place of the 2n x 2n Golub-Kahan band: against
    # the old path the indicators moved by at most 1.1e-15 (absolute) and
    # 9.8e-11 (relative, at 1.1e-5), and flagged_steps did not change.
    "scan": {
        "determinant_scan.csv": "7bbafc975f3b2de8a58d4c3cd518a805c3bc4921e606066ecc6a538fafaae9c2",
        "summary.json": "de19bafaafc6cb2a33947e0cde29c14af2895afe0d09f05ed03f2179c661b1cf",
    },
    # Re-pinned when every time step became one banded Tridiagonal solve in
    # place of a dense LU: the snapshots moved by at most 1.7e-16,
    # final_update went 2.4633e-13 -> 2.4639e-13, form_agreement.sigma_1
    # 5.33e-15 -> 5.83e-15, and the step count stayed at 7.
    "timestep1d": {
        "snapshots.csv": "85647c8892943c2bb1cb2b0a76245f50dd8ece32fdd3843b212b6109118f4887",
        "summary.json": "d448faa8dc939c844ca1ed1b8f859000cfcf939da40c293059d59d75821e229e",
        "trajectory.csv": "3e30da4ab601c6fc3bddb2f7a1b932ccf6b86ee4c3da47886d9b4c9da8030d53",
    },
    # 119 steps. The dense LU it replaced gave 119 steps under 1 BLAS
    # thread and 120 under 2, so this entry pins thread independence.
    "timestep400": {
        "snapshots.csv": "848dd8e8b1049fdb5cf4d3dbdfa2abeff9b3f0e7e8b851cdf8f96d0b7b6efdef",
        "summary.json": "c23cb5eb0f6a1e24a342861a3bff49487da8932d9d1f0d88de751980bc4cba01",
        "trajectory.csv": "bb263e1c23c7b1fa1667b682c7800dedd193cc77b18744da8bbf6e1f17bbac6c",
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
    elif name == "timestep400":
        cfg = tmp_path / "timestep400.cfg"
        cfg.write_text(TIMESTEP400_CFG)
        argv = ["run", str(cfg)]
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
