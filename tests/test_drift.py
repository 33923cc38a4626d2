"""Drift check: the outputs of a few tiny seeded runs, against checked-in values.

``drift.json`` holds, for a 10-epoch run on the toy talent table, the loss
history and the fusion weights, and for two tiny latent-class tables from
``bench/cad_gen.py``, the loss history and the silhouette (S) and
Calinski-Harabasz (CH) indices of NECA's embedding and of one-hot.  The
test recomputes them and compares at the relative tolerance ``RTOL``.  A
change that moves them on purpose regenerates the file and says why:

    PYTHONPATH=src python tests/test_drift.py
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from neca.cavnet import build_hetnet
from neca.dataset import DatasetManifest, impute_modes, load_csv
from neca.encoders import encode_onehot
from neca.evaluation import LabeledEmbedding, evaluate_all
from neca.model import RunConfig
from neca.training import train

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import cad_gen  # noqa: E402

EXPECTED = Path(__file__).with_name("drift.json")

# Every output here is deterministic and keeps its bytes under any BLAS
# thread count, so on one build any tolerance passes.  Another numpy or BLAS
# build may round sums differently.  As a proxy, starting the runs from
# parameters one ulp apart moved the loss histories, the betas and CH by at
# most 4e-16 relative, and NECA's silhouette by 3e-10: its squared distances
# come from a product that cancels.  Raising lr by 0.1% moved every loss
# history by 3e-4 or more, and NECA's S and CH by 2.5e-7 or more.  1e-8 sits
# between the two.
RTOL = 1e-8

CONFIG = RunConfig(epochs=10, tol=0.0)

# (n, domain sizes, class prior, population seed, missing-cell share): a
# small DE-like table with one many-valued attribute, and a small MU-like
# one whose missing cells are imputed
SHAPES = {
    "de-tiny": (120, (4,) * 6 + (20,), (112, 61, 72, 49, 52, 20), 2, 0.0),
    "mu-tiny": (200, (6, 4, 10, 2, 9, 2, 2, 2), (4208, 3916), 3, 0.01),
}


def toy_run() -> dict:
    cad = load_csv(ROOT / "data" / "toy_talent.csv",
                   DatasetManifest(name="toy", drop_columns=("Name",)))
    _, table, report = train(build_hetnet(cad, beta=CONFIG.beta_connect, seed=CONFIG.seed),
                             CONFIG)
    return {"loss_history": report.loss_history,
            "betas": [table.beta_inter, table.beta_intra]}


def shape_run(name: str, workdir: Path) -> dict:
    n, domains, prior, population, missing = SHAPES[name]
    gen = cad_gen.generate(workdir / f"{name}.csv", n, domains, prior, seed=0,
                           profile_seed=population, alpha=0.3, missing_rate=missing)
    manifest = DatasetManifest(name=name, label_column="class")
    cad = impute_modes(load_csv(gen.path, manifest), manifest.missing_token)
    _, table, report = train(build_hetnet(cad, beta=CONFIG.beta_connect, seed=CONFIG.seed),
                             CONFIG)
    runs = {"neca": [LabeledEmbedding(table.objects, cad.labels)],
            "onehot": [LabeledEmbedding(encode_onehot(cad).vectors, cad.labels)]}
    out = {"loss_history": report.loss_history}
    for row in evaluate_all(runs):
        out[f"{row.index}_{row.method}"] = row.best
    return out


def measure() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {"toy": toy_run(), **{name: shape_run(name, Path(tmp)) for name in SHAPES}}


def test_outputs_match_the_checked_in_values():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    actual = measure()
    assert actual.keys() == expected.keys()
    for run, values in expected.items():
        assert actual[run].keys() == values.keys(), run
        for key, value in values.items():
            np.testing.assert_allclose(actual[run][key], value, rtol=RTOL, atol=0,
                                       err_msg=f"{run}.{key}")


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps(measure(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED}")
