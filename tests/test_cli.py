import hashlib
import json
import re
import shutil
import urllib.error
import urllib.request
import weakref
from dataclasses import asdict, fields

import numpy as np
import pytest

from neca import cli, evaluation
from neca.cavnet import CavNodeSet, build_hetnet
from neca.dataset import DatasetManifest
from neca.evaluation import silhouette


def run(argv):
    return cli.main(argv)


@pytest.fixture(autouse=True)
def no_network(monkeypatch):
    """A command that would download fails at once instead of reaching a host."""
    def refuse(request, timeout):
        raise urllib.error.URLError("no network in the CLI tests")

    monkeypatch.setattr(urllib.request, "urlopen", refuse)


@pytest.fixture
def labeled_csv(tmp_path):
    # two groups with visibly different value profiles
    path = tmp_path / "labeled.csv"
    rows = ["color,shape,size,group"]
    rows += ["red,square,big,A"] * 4 + ["red,round,big,A"] * 2
    rows += ["blue,round,small,B"] * 4 + ["blue,square,small,B"] * 2
    path.write_text("\n".join(rows) + "\n")
    return path


class TestEmbed:
    def test_toy_defaults_width(self, toy_csv, tmp_path):
        out = tmp_path / "emb.csv"
        code = run(["embed", str(toy_csv), "--drop", "Name", "--out", str(out),
                    "--epochs", "3"])
        assert code == 0
        matrix = cli.read_embedding(out)
        assert matrix.shape == (6, 3 * 8 * 8)

    def test_same_seed_byte_identical(self, toy_csv, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run(["embed", str(toy_csv), "--drop", "Name", "--out", str(out),
                        "--epochs", "4", "--seed", "7"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_different_seed_differs(self, toy_csv, tmp_path):
        blobs = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.csv"
            run(["embed", str(toy_csv), "--drop", "Name", "--out", str(out),
                 "--epochs", "4", "--seed", seed])
            blobs.append(out.read_bytes())
        assert blobs[0] != blobs[1]

    def test_unwritable_out_is_stage_attributed(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "emb.csv"
        code = run(["embed", str(toy_csv), "--drop", "Name", "--out", str(out),
                    "--epochs", "1"])
        assert code == 1
        assert "[output]" in capsys.readouterr().err

    def test_metadata_reproduces_run(self, toy_csv, tmp_path):
        out1 = tmp_path / "run1.csv"
        run(["embed", str(toy_csv), "--drop", "Name", "--out", str(out1),
             "--epochs", "3", "--seed", "11", "--heads", "2", "--head-dim", "3"])
        meta = json.loads((tmp_path / "run1.meta.json").read_text())
        cfg = meta["config"]
        out2 = tmp_path / "run2.csv"
        run(["embed", str(toy_csv), "--drop", "Name", "--out", str(out2),
             "--epochs", str(cfg["epochs"]), "--seed", str(cfg["seed"]),
             "--heads", str(cfg["heads"]), "--head-dim", str(cfg["head_dim"]),
             "--fusion-dim", str(cfg["fusion_dim"]), "--lr", str(cfg["lr"]),
             "--tol", str(cfg["tol"]), "--sigma", str(cfg["sigma"]),
             "--beta-connect", str(cfg["beta_connect"])])
        assert out1.read_bytes() == out2.read_bytes()

    def test_metadata_contents(self, toy_csv, tmp_path):
        out = tmp_path / "emb.csv"
        run(["embed", str(toy_csv), "--drop", "Name", "--out", str(out), "--epochs", "2"])
        meta = json.loads((tmp_path / "emb.meta.json").read_text())
        assert meta["dataset"]["n"] == 6 and meta["dataset"]["m"] == 3
        assert meta["dataset"]["num_cav_nodes"] == 10
        assert len(meta["loss_history"]) == meta["epochs_run"] == 2
        assert meta["beta_inter"] + meta["beta_intra"] == pytest.approx(1.0)
        assert "seeds" in meta and "wall_time_s" in meta

    def test_verbose_epoch_lines(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "emb.csv"
        run(["embed", str(toy_csv), "--drop", "Name", "--out", str(out),
             "--epochs", "2", "--verbose"])
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("epoch=")]
        assert len(lines) == 2
        assert "loss=" in lines[0] and "beta_inter=" in lines[0]

    def test_config_file_and_flag_precedence(self, toy_csv, tmp_path):
        cfgfile = tmp_path / "run.conf"
        cfgfile.write_text("epochs = 5\nheads = 2\nhead_dim = 3\n")
        out = tmp_path / "emb.csv"
        run(["embed", str(toy_csv), "--drop", "Name", "--out", str(out),
             "--config", str(cfgfile), "--epochs", "3"])
        meta = json.loads((tmp_path / "emb.meta.json").read_text())
        assert meta["config"]["epochs"] == 3      # flag beats file
        assert meta["config"]["heads"] == 2       # file beats default
        assert meta["epochs_run"] == 3

    def test_embedding_round_trip_exact(self, toy_csv, tmp_path):
        out = tmp_path / "emb.csv"
        run(["embed", str(toy_csv), "--drop", "Name", "--out", str(out),
             "--epochs", "3", "--seed", "5", "--heads", "2", "--head-dim", "2"])
        first = cli.read_embedding(out)
        again = tmp_path / "again.csv"
        cli.write_embedding(again, first)
        assert cli.read_embedding(again).tobytes() == first.tobytes()


HYPERPARAMETERS = (
    "heads", "head_dim", "fusion_dim", "seed", "lr", "epochs", "tol", "sigma", "beta_connect",
)


class TestConfig:
    def test_one_name_per_hyperparameter(self, toy_csv, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run(["embed", "--help"])
        # in order of first appearance: the usage line lists flags as added
        flags = dict.fromkeys(re.findall(r"--([a-z0-9-]+)", capsys.readouterr().out))
        others = {"help", "manifest", "label", "drop", "columns", "missing", "config", "out",
                  "meta", "verbose"}
        assert tuple(f.replace("-", "_") for f in flags if f not in others) == HYPERPARAMETERS
        assert tuple(asdict(cli.RunConfig())) == HYPERPARAMETERS
        assert not any(isinstance(f.default, bool) for f in fields(cli.RunConfig))
        # every key is accepted in a config file, under the same name
        cfgfile = tmp_path / "all.conf"
        cfgfile.write_text("".join(f"{f.name} = {f.default}\n"
                                   for f in fields(cli.RunConfig)))
        config = cli.load_run_config(cli.build_parser().parse_args(
            ["embed", str(toy_csv), "--out", "x.csv", "--config", str(cfgfile)]))
        assert config == cli.RunConfig()
        cfgfile.write_text("learning_rate = 0.01\n")
        out = tmp_path / "emb.csv"
        assert run(["embed", str(toy_csv), "--drop", "Name", "--out", str(out),
                    "--config", str(cfgfile)]) == 1
        assert "unknown key 'learning_rate'" in capsys.readouterr().err

    def test_config_file_sets_every_hyperparameter(self, toy_csv, tmp_path):
        values = dict(heads=2, head_dim=3, fusion_dim=4, seed=5, lr=0.01, epochs=2, tol=0.0,
                      sigma=1.5, beta_connect=0.02)
        assert tuple(values) == HYPERPARAMETERS
        assert all(value != getattr(cli.RunConfig(), key) for key, value in values.items())
        cfgfile = tmp_path / "run.conf"
        cfgfile.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        out = tmp_path / "emb.csv"
        assert run(["embed", str(toy_csv), "--drop", "Name", "--config", str(cfgfile),
                    "--out", str(out)]) == 0
        assert json.loads((tmp_path / "emb.meta.json").read_text())["config"] == values

    def test_removed_fork_is_not_a_flag(self, toy_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["embed", str(toy_csv), "--drop", "Name", "--out", str(tmp_path / "e.csv"),
                 "--self-loop"])
        assert exc.value.code == 2

    def test_removed_fork_is_an_unknown_config_key(self, toy_csv, tmp_path, capsys):
        cfgfile = tmp_path / "run.conf"
        cfgfile.write_text("self_loop = true\nepochs = 1\n")
        out = tmp_path / "e.csv"
        assert run(["embed", str(toy_csv), "--drop", "Name", "--out", str(out),
                    "--config", str(cfgfile)]) == 1
        assert f"[config] {cfgfile}: unknown key 'self_loop'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, where", [
        (None, "No such file"),
        ("epochs = 1\nheads 2\n", ":2: expected 'key = value'"),
        ("heads = 2\nepochs = 1\nheads = 4\n", ":3: key 'heads' repeats line 1"),
    ], ids=["missing", "no-equals", "repeated-key"])
    def test_unreadable_config_file_is_a_config_error(self, toy_csv, tmp_path, capsys,
                                                      text, where):
        cfgfile = tmp_path / "run.conf"
        if text is not None:
            cfgfile.write_text(text)
        out = tmp_path / "e.csv"
        assert run(["embed", str(toy_csv), "--drop", "Name", "--out", str(out),
                    "--config", str(cfgfile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [config]") and str(cfgfile) in err and where in err
        assert not out.exists()

    def test_config_value_that_does_not_parse_names_file_and_key(self, toy_csv, tmp_path,
                                                                 capsys):
        cfgfile = tmp_path / "run.conf"
        cfgfile.write_text("heads = two\n")
        assert run(["embed", str(toy_csv), "--drop", "Name", "--out", str(tmp_path / "e.csv"),
                    "--config", str(cfgfile)]) == 1
        err = capsys.readouterr().err
        assert "[config]" in err and str(cfgfile) in err and "heads" in err and "'two'" in err

    def test_invalid_value_is_a_config_error(self, toy_csv, tmp_path, capsys):
        assert run(["embed", str(toy_csv), "--drop", "Name", "--out", str(tmp_path / "e.csv"),
                    "--sigma", "0", "--epochs", "50"]) == 1
        assert "[config] sigma must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--epochs", "0", "epochs must be >= 1"),
        ("--epochs", "-3", "epochs must be >= 1"),
        ("--lr", "-0.5", "lr must be positive"),
        ("--lr", "0", "lr must be positive"),
    ])
    def test_untrainable_schedule_is_a_config_error(self, toy_csv, tmp_path, capsys,
                                                    flag, value, message):
        # zero epochs would write an untrained embedding, a negative lr ascends
        out = tmp_path / "e.csv"
        assert run(["embed", str(toy_csv), "--drop", "Name", "--out", str(out),
                    flag, value]) == 1
        assert f"[config] {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("route", ["flag", "file"])
    @pytest.mark.parametrize("key, value", [
        ("lr", "nan"), ("lr", "inf"), ("tol", "nan"), ("tol", "-inf"),
        ("sigma", "nan"), ("sigma", "inf"), ("beta_connect", "nan"), ("beta_connect", "inf"),
        ("beta_connect", "0"), ("beta_connect", "-50"), ("seed", "-1"),
    ])
    def test_non_finite_or_non_positive_value_is_a_config_error(self, toy_csv, tmp_path, capsys,
                                                                key, value, route):
        # NaN passes every ordered comparison, so each bound must reject it too
        out = tmp_path / "e.csv"
        argv = ["embed", str(toy_csv), "--drop", "Name", "--out", str(out)]
        if route == "flag":
            argv.append(f"--{key.replace('_', '-')}={value}")
        else:
            cfgfile = tmp_path / "run.conf"
            cfgfile.write_text(f"{key} = {value}\n")
            argv += ["--config", str(cfgfile)]
        assert run(argv) == 1
        assert f"[config] {key} must be" in capsys.readouterr().err
        assert not out.exists()


class TestEncode:
    def test_onehot_width(self, toy_csv, tmp_path):
        out = tmp_path / "oh.csv"
        assert run(["encode", str(toy_csv), "--drop", "Name",
                    "--method", "onehot", "--out", str(out)]) == 0
        assert cli.read_embedding(out).shape == (6, 10)

    def test_frequency_width(self, toy_csv, tmp_path):
        out = tmp_path / "fq.csv"
        run(["encode", str(toy_csv), "--drop", "Name", "--method", "frequency",
             "--out", str(out)])
        assert cli.read_embedding(out).shape == (6, 3)

    def test_unknown_method_usage_error(self, toy_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["encode", str(toy_csv), "--method", "bogus", "--out", "x.csv"])
        assert exc.value.code == 2


class TestEval:
    def test_identical_vectors_degenerate(self, labeled_csv, tmp_path, capsys):
        emb = tmp_path / "flat.csv"
        cli.write_embedding(emb, np.zeros((12, 4)))
        # every point coincides: the silhouette is 0, and CH is 0/0, an error
        # rather than an +inf that would rank the embedding first
        code = run(["eval", str(labeled_csv), "--label", "group",
                    "--embedding", str(emb), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "[eval] CH undefined: every point coincides" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()
        code = run(["eval", str(labeled_csv), "--label", "group", "--indices", "s",
                    "--embedding", str(emb), "--out", str(tmp_path / "r.json")])
        assert code == 0
        assert json.loads((tmp_path / "r.json").read_text()) == {"s": 0.0}

    def test_onehot_scores_finite(self, labeled_csv, tmp_path):
        emb = tmp_path / "oh.csv"
        run(["encode", str(labeled_csv), "--label", "group", "--method", "onehot",
             "--out", str(emb)])
        res = tmp_path / "r.json"
        assert run(["eval", str(labeled_csv), "--label", "group",
                    "--embedding", str(emb), "--out", str(res)]) == 0
        results = json.loads(res.read_text())
        assert np.isfinite(results["ch"]) and -1 <= results["s"] <= 1

    def test_index_selection(self, labeled_csv, tmp_path, capsys):
        emb = tmp_path / "oh.csv"
        run(["encode", str(labeled_csv), "--label", "group", "--method", "onehot",
             "--out", str(emb)])
        capsys.readouterr()
        run(["eval", str(labeled_csv), "--label", "group", "--embedding", str(emb),
             "--indices", "s"])
        out = capsys.readouterr().out
        assert "s =" in out and "ch =" not in out

    def test_unknown_index_rejected(self, labeled_csv, tmp_path, capsys):
        emb = tmp_path / "e.csv"
        cli.write_embedding(emb, np.zeros((12, 2)))
        out = tmp_path / "r.json"
        assert run(["eval", str(labeled_csv), "--label", "group", "--embedding", str(emb),
                    "--indices", "s,bogus", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "unknown index 'bogus'" in captured.err and "s =" not in captured.out
        assert not out.exists()

    def test_repeated_index_rejected_before_the_embedding_is_read(self, labeled_csv, tmp_path,
                                                                  capsys):
        # a repeated name would run the O(n^2) silhouette twice and print it once
        missing = tmp_path / "missing.csv"
        assert run(["eval", str(labeled_csv), "--label", "group", "--embedding", str(missing),
                    "--indices", "s, s"]) == 1
        assert capsys.readouterr().err.strip() == "error: [eval] index 's' is named twice"

    def test_unknown_index_rejected_before_the_embedding_is_read(self, labeled_csv, tmp_path,
                                                                 capsys):
        missing = tmp_path / "missing.csv"
        assert run(["eval", str(labeled_csv), "--label", "group", "--embedding", str(missing),
                    "--indices", "s,bogus"]) == 1
        assert capsys.readouterr().err.strip() == (
            "error: [eval] unknown index 'bogus' (choose from ch, s)")

    def test_row_mismatch_rejected(self, labeled_csv, tmp_path, capsys):
        emb = tmp_path / "bad.csv"
        cli.write_embedding(emb, np.zeros((3, 2)))
        assert run(["eval", str(labeled_csv), "--label", "group",
                    "--embedding", str(emb)]) == 1
        assert "rows" in capsys.readouterr().err

    def test_unwritable_out_is_an_output_error(self, labeled_csv, tmp_path, capsys):
        emb = tmp_path / "e.csv"
        cli.write_embedding(emb, np.arange(24.0).reshape(12, 2))
        out = tmp_path / "nodir" / "r.json"
        assert run(["eval", str(labeled_csv), "--label", "group", "--embedding", str(emb),
                    "--out", str(out)]) == 1
        assert "[output]" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_non_finite_embedding_rejected(self, labeled_csv, tmp_path, capsys):
        emb = tmp_path / "nan.csv"
        vectors = np.zeros((12, 2))
        vectors[7, 1] = np.nan
        vectors[9, 0] = np.inf
        cli.write_embedding(emb, vectors)
        out = tmp_path / "r.json"
        assert run(["eval", str(labeled_csv), "--label", "group", "--embedding", str(emb),
                    "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "[eval] row 7 has a non-finite value" in captured.err
        assert "ch =" not in captured.out and not out.exists()

    def test_missing_labels_rejected(self, toy_csv, tmp_path, capsys):
        emb = tmp_path / "e.csv"
        cli.write_embedding(emb, np.zeros((6, 2)))
        assert run(["eval", str(toy_csv), "--drop", "Name", "--embedding", str(emb)]) == 1
        assert "label" in capsys.readouterr().err


class TestScoringHoldsOnlyThePoints:
    """The matrix that eval reads or compare trains is dropped before scoring."""

    ARGS = ["--epochs", "2", "--heads", "2", "--head-dim", "2"]

    def track(self, monkeypatch, name):
        """Weakrefs to each matrix that ``cli.<name>`` returns, checked in every silhouette."""
        refs, checked = [], []
        real = getattr(cli, name)

        def tracked(*args, **kwargs):
            result = real(*args, **kwargs)
            matrix = result if name == "read_embedding" else result[2].objects
            refs.append((weakref.ref(matrix), matrix.shape[1]))
            return result

        def silhouette_of_the_points(emb):
            assert emb.points.shape[1] < refs[-1][1]   # the embedding compacts
            checked.append([ref() is None for ref, _ in refs])
            return silhouette(emb)

        monkeypatch.setattr(cli, name, tracked)
        monkeypatch.setitem(evaluation.INDICES, "s", silhouette_of_the_points)
        return checked

    def test_eval(self, labeled_csv, tmp_path, monkeypatch):
        emb = str(tmp_path / "e.csv")
        assert run(["embed", str(labeled_csv), "--label", "group", *self.ARGS, "--out", emb]) == 0
        checked = self.track(monkeypatch, "read_embedding")
        assert run(["eval", str(labeled_csv), "--label", "group", "--embedding", emb]) == 0
        assert checked == [[True]]

    def test_compare(self, labeled_csv, monkeypatch):
        checked = self.track(monkeypatch, "run_pipeline")
        assert run(["compare", str(labeled_csv), "--label", "group", "--methods", "neca",
                    "--runs", "2", *self.ARGS]) == 0
        assert checked == [[True], [True, True]]


class TestCompare:
    def test_single_deterministic_method(self, labeled_csv, tmp_path, capsys):
        code = run(["compare", str(labeled_csv), "--label", "group",
                    "--methods", "onehot", "--runs", "1",
                    "--json", str(tmp_path / "c.json")])
        assert code == 0
        payload = json.loads((tmp_path / "c.json").read_text())
        assert {r["index"] for r in payload["summary"]} == {"ch", "s"}
        assert all(r["runs"] == 1 and r["rank"] == 1 for r in payload["summary"])

    def test_deterministic_methods_stable_across_invocations(self, labeled_csv, tmp_path):
        # every value of labeled_csv is in half the rows, so its frequency
        # encoding would put every row at one point, where CH is undefined
        skewed = tmp_path / "skewed.csv"
        skewed.write_text(labeled_csv.read_text() + "red,square,big,A\n")
        blobs = []
        for name in ("c1.json", "c2.json"):
            run(["compare", str(skewed), "--label", "group",
                 "--methods", "onehot,frequency", "--runs", "1",
                 "--json", str(tmp_path / name)])
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]

    def test_method_with_an_undefined_index_ranks_last(self, tmp_path, capsys):
        # every value is in half the rows, so the frequency encoding is one
        # point, where CH is undefined; the other methods are still ranked
        six = tmp_path / "six.csv"
        six.write_text("color,shape,group\nred,square,A\nred,round,A\nred,square,A\n"
                       "blue,round,B\nblue,square,B\nblue,round,B\n")
        out = tmp_path / "c.json"
        assert run(["compare", str(six), "--label", "group", "--runs", "2", "--epochs", "2",
                    "--heads", "2", "--head-dim", "2", "--json", str(out)]) == 0
        reason = "CH undefined: every point coincides"
        assert re.search(rf"^ch +frequency +undefined +undefined +1  3  \({reason}\)$",
                         capsys.readouterr().out, re.M)
        payload = json.loads(out.read_text())
        ch = {r["method"]: r for r in payload["summary"] if r["index"] == "ch"}
        assert [ch[m]["rank"] for m in ("neca", "onehot", "frequency")] == [1, 2, 3]
        assert ch["frequency"]["best"] is None and ch["frequency"]["median"] is None
        assert [r["reason"] for r in payload["summary"]] == [None] * 4 + [reason, None]
        assert [r["ch"] for r in payload["runs"]][2:] == [ch["onehot"]["best"], None]

    def test_stochastic_method_runs_recorded(self, labeled_csv, tmp_path):
        run(["compare", str(labeled_csv), "--label", "group", "--methods", "neca",
             "--runs", "2", "--seed", "3", "--epochs", "3", "--heads", "2",
             "--head-dim", "2", "--json", str(tmp_path / "c.json")])
        payload = json.loads((tmp_path / "c.json").read_text())
        seeds = [r["seed"] for r in payload["runs"]]
        assert seeds == [3, 4]
        for row in payload["summary"]:
            values = [r[row["index"]] for r in payload["runs"]]
            assert row["best"] == max(values)
            assert row["runs"] == 2

    def test_config_file_seed_is_the_first_seed(self, labeled_csv, tmp_path):
        cfgfile = tmp_path / "run.conf"
        cfgfile.write_text("seed = 3\nepochs = 3\nheads = 2\nhead_dim = 2\n")
        assert run(["compare", str(labeled_csv), "--label", "group", "--methods", "neca",
                    "--runs", "2", "--config", str(cfgfile),
                    "--json", str(tmp_path / "c.json")]) == 0
        payload = json.loads((tmp_path / "c.json").read_text())
        assert [r["seed"] for r in payload["runs"]] == [3, 4]

    def test_negative_first_seed_is_a_config_error(self, labeled_csv, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run(["compare", str(labeled_csv), "--label", "group", "--methods", "neca",
                    "--runs", "2", "--seed", "-1", "--json", str(out)]) == 1
        assert "[config] seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_runs_below_one_is_a_config_error(self, labeled_csv, tmp_path, monkeypatch,
                                              capsys, runs):
        loaded = []
        monkeypatch.setattr(cli, "resolve_dataset", lambda args: loaded.append(args))
        out = tmp_path / "c.json"
        assert run(["compare", str(labeled_csv), "--label", "group", "--runs", runs,
                    "--methods", "neca,onehot", "--json", str(out)]) == 1
        assert f"[config] runs must be >= 1, got {runs}" in capsys.readouterr().err
        assert loaded == [] and not out.exists()

    def test_unknown_method_rejected_before_any_training(self, labeled_csv, tmp_path,
                                                          monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "run_pipeline", lambda *a, **k: calls.append(a))
        out = tmp_path / "c.json"
        assert run(["compare", str(labeled_csv), "--label", "group",
                    "--methods", "neca,bogus", "--json", str(out)]) == 1
        assert calls == []
        assert "unknown method 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_method_rejected_before_loading(self, labeled_csv, monkeypatch, capsys):
        loaded = []
        monkeypatch.setattr(cli, "resolve_dataset", lambda args: loaded.append(args))
        assert run(["compare", str(labeled_csv), "--label", "group",
                    "--methods", "onehot,onehot"]) == 1
        assert "[compare] method 'onehot' is named twice" in capsys.readouterr().err
        assert loaded == []

    def test_labels_that_leave_an_index_undefined_stop_after_one_training(
            self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "one.csv"
        data.write_text("a,b,cls\nx,u,A\ny,v,A\nx,v,A\ny,u,A\n")
        calls = []
        real = cli.run_pipeline
        monkeypatch.setattr(cli, "run_pipeline",
                            lambda *a, **k: calls.append(k["seed"]) or real(*a, **k))
        assert run(["compare", str(data), "--label", "cls", "--runs", "3", "--epochs", "2",
                    "--heads", "2", "--head-dim", "2"]) == 1
        assert "error: [eval] CH undefined: requires 2 <= T < n" in capsys.readouterr().err
        assert calls == [0]

    def test_interrupted_json_write_keeps_the_old_file(self, labeled_csv, tmp_path,
                                                        monkeypatch):
        out = tmp_path / "c.json"
        out.write_text("old\n")
        # a lone surrogate cannot be encoded, so writing the payload fails
        monkeypatch.setattr(cli.json, "dumps", lambda *args, **kwargs: "{\ud800")
        assert run(["compare", str(labeled_csv), "--label", "group",
                    "--methods", "onehot", "--json", str(out)]) == 1
        assert out.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "labeled.csv"]


def make_mirror(tmp_path, labeled_csv, monkeypatch):
    """A ``NECA_MIRROR`` directory holding ``blob.data`` and a manifest pinning it."""
    mirror = tmp_path / "mirror"
    mirror.mkdir()
    shutil.copyfile(labeled_csv, mirror / "blob.data")
    digest = hashlib.sha256((mirror / "blob.data").read_bytes()).hexdigest()
    manifest = tmp_path / "blob.manifest"
    manifest.write_text(
        f"name = blob\nchecksum = {digest}\nlabel = group\n")
    monkeypatch.setenv("NECA_MIRROR", str(mirror))
    return mirror, manifest


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("NECA_CACHE", str(tmp_path / "cache"))
    monkeypatch.delenv("NECA_MIRROR", raising=False)
    return tmp_path / "cache"


class TestFetchAndGraph:
    def test_fetch_from_mirror_then_cache(self, tmp_path, labeled_csv, cache, monkeypatch,
                                          capsys):
        mirror, manifest = make_mirror(tmp_path, labeled_csv, monkeypatch)
        assert run(["fetch", "blob", "--manifest", str(manifest)]) == 0
        assert (cache / "blob.data").read_bytes() == labeled_csv.read_bytes()
        (mirror / "blob.data").unlink()  # second call must not need the mirror
        assert run(["fetch", "blob", "--manifest", str(manifest)]) == 0

    def test_corrupted_cache_detected(self, tmp_path, labeled_csv, cache, monkeypatch, capsys):
        _, manifest = make_mirror(tmp_path, labeled_csv, monkeypatch)
        run(["fetch", "blob", "--manifest", str(manifest)])
        (cache / "blob.data").write_text("corrupted")
        code = run(["fetch", "blob", "--manifest", str(manifest)])
        assert code == 1
        err = capsys.readouterr().err
        assert "checksum mismatch" in err and "expected" in err

    def test_checksum_mismatch_caches_nothing(self, tmp_path, labeled_csv, cache, monkeypatch,
                                              capsys):
        mirror, manifest = make_mirror(tmp_path, labeled_csv, monkeypatch)
        bad = tmp_path / "bad-mirror"
        bad.mkdir()
        (bad / "blob.data").write_text("truncated")
        monkeypatch.setenv("NECA_MIRROR", str(bad))
        code = run(["fetch", "blob", "--manifest", str(manifest)])
        assert code == 1
        assert "checksum mismatch" in capsys.readouterr().err
        assert list(cache.iterdir()) == []
        monkeypatch.setenv("NECA_MIRROR", str(mirror))
        assert run(["fetch", "blob", "--manifest", str(manifest)]) == 0
        assert (cache / "blob.data").read_bytes() == labeled_csv.read_bytes()
        assert [p.name for p in cache.iterdir()] == ["blob.data"]

    def test_unknown_bundled_name(self, capsys):
        assert run(["fetch", "nosuch"]) == 1
        assert "bundled names" in capsys.readouterr().err

    def test_download_failure_reported(self, tmp_path, cache, capsys):
        # the autouse no_network fixture makes urlopen raise URLError
        url = "https://example.invalid/x.data"
        manifest = tmp_path / "x.manifest"
        manifest.write_text(f"name = xably\nsource_url = {url}\n")
        code = run(["fetch", "xably", "--manifest", str(manifest)])
        assert code == 1
        assert f"[fetch] download failed for {url}: " in capsys.readouterr().err
        assert list(cache.iterdir()) == []

    def test_bundled_manifests_parse(self):
        for name in cli.BUNDLED:
            m = cli.bundled_manifest(name)
            assert isinstance(m, DatasetManifest)
            assert m.label_column is not None
            assert m.source_url.startswith("https://")

    def test_export_graph_row_count(self, toy_csv, tmp_path):
        out = tmp_path / "edges.tsv"
        assert run(["export-graph", str(toy_csv), "--drop", "Name",
                    "--which", "inter", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 13

    def test_failed_export_keeps_the_old_file(self, toy_csv, tmp_path, monkeypatch, capsys):
        out = tmp_path / "edges.tsv"
        out.write_bytes(b"old\tedges\n")
        # a lone surrogate cannot be encoded, so writing the edge list fails
        monkeypatch.setattr(CavNodeSet, "qualified", lambda self, node_id: "\ud800")
        assert run(["export-graph", str(toy_csv), "--drop", "Name",
                    "--which", "inter", "--out", str(out)]) == 1
        assert "[output]" in capsys.readouterr().err
        assert out.read_bytes() == b"old\tedges\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["edges.tsv", "toy_talent.csv"]

    def test_export_graph_seeded(self, toy_csv, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        run(["export-graph", str(toy_csv), "--drop", "Name", "--which", "intra",
             "--out", str(a), "--seed", "5"])
        run(["export-graph", str(toy_csv), "--drop", "Name", "--which", "intra",
             "--out", str(b), "--seed", "5"])
        assert a.read_bytes() == b.read_bytes()

    def test_export_graph_reads_the_graph_keys_of_a_full_config(self, toy_csv, tmp_path):
        # the config file may hold all nine keys; only seed and beta_connect shape the graph
        cfgfile = tmp_path / "run.conf"
        cfgfile.write_text("heads = 2\nhead_dim = 3\nfusion_dim = 4\nseed = 5\nlr = 0.01\n"
                           "epochs = 2\ntol = 0.0\nsigma = 1.5\nbeta_connect = 0.02\n")
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run(["export-graph", str(toy_csv), "--drop", "Name", "--which", "intra",
                    "--out", str(a), "--config", str(cfgfile)]) == 0
        assert run(["export-graph", str(toy_csv), "--drop", "Name", "--which", "intra",
                    "--out", str(b), "--seed", "5", "--beta-connect", "0.02"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestDatasetErrors:
    def test_column_named_twice(self, tmp_path, capsys):
        data = tmp_path / "twice.csv"
        data.write_text("a,a,class,class\nx,y,p,q\nx,z,p,q\n")
        assert run(["export-graph", str(data), "--label", "class", "--which", "inter",
                    "--out", str(tmp_path / "g.tsv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [dataset]") and "column 'a' is named twice" in err
        assert not (tmp_path / "g.tsv").exists()


class TestDatasetSource:
    """A dataset is a file plus one manifest: a manifest file, a bundled one, or the flags."""

    @pytest.fixture
    def fetches(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "fetch_dataset", lambda manifest: calls.append(manifest))
        return calls

    @pytest.mark.parametrize("flag", ["--label", "--drop", "--columns", "--missing"])
    @pytest.mark.parametrize("source", ["manifest", "bundled"])
    def test_flag_beside_a_manifest_is_an_error_before_any_fetch(self, tmp_path, labeled_csv,
                                                                  monkeypatch, fetches,
                                                                  capsys, flag, source):
        _, manifest = make_mirror(tmp_path, labeled_csv, monkeypatch)
        dataset = ["blob", "--manifest", str(manifest)] if source == "manifest" else ["ZO"]
        out = tmp_path / "g.tsv"
        assert run(["export-graph", *dataset, flag, "x", "--which", "inter",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [dataset]") and flag in err
        assert fetches == [] and not out.exists()

    def test_every_flag_given_is_named(self, tmp_path, labeled_csv, monkeypatch, fetches,
                                       capsys):
        # the repro of the silently ignored flags: a dropped column and a missing label
        _, manifest = make_mirror(tmp_path, labeled_csv, monkeypatch)
        out = tmp_path / "g.tsv"
        assert run(["export-graph", "blob", "--manifest", str(manifest), "--drop", "color",
                    "--label", "nosuch", "--which", "inter", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "[dataset] --label, --drop" in err
        assert fetches == [] and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["embed", "--out", "e.csv"],
        ["encode", "--method", "onehot", "--out", "e.csv"],
        ["eval", "--embedding", "e.csv"],
        ["compare", "--methods", "onehot"],
        ["export-graph", "--which", "inter", "--out", "g.tsv"],
    ], ids=lambda argv: argv[0])
    def test_every_loading_command_resolves_the_same_way(self, fetches, capsys, argv):
        assert run([argv[0], "ZO", "--missing", "NA", *argv[1:]]) == 1
        assert "error: [dataset] --missing cannot be given" in capsys.readouterr().err
        assert fetches == []

    @pytest.mark.parametrize("argv", [
        ["fetch"],
        ["encode", "--method", "onehot", "--out", "e.csv"],
    ], ids=lambda argv: argv[0])
    def test_dataset_beside_a_manifest_is_its_name_or_a_file(self, tmp_path, labeled_csv,
                                                             monkeypatch, fetches, capsys,
                                                             argv):
        _, manifest = make_mirror(tmp_path, labeled_csv, monkeypatch)
        assert run([argv[0], "anything", "--manifest", str(manifest), *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [dataset] 'anything' is neither a file") and "'blob'" in err
        assert fetches == []
        # the name is compared case-insensitively
        assert run(["fetch", "BLOB", "--manifest", str(manifest)]) == 0
        assert [m.name for m in fetches] == ["blob"]

    def test_manifest_describes_a_local_file(self, tmp_path, fetches):
        data = tmp_path / "raw.data"
        data.write_text("red,square,A\nred,round,A\nblue,round,B\nblue,square,B\n")
        manifest = tmp_path / "raw.manifest"
        manifest.write_text("name = raw\ncolumns = color,shape,group\nlabel = group\n")
        out = tmp_path / "oh.csv"
        assert run(["encode", str(data), "--manifest", str(manifest), "--method", "onehot",
                    "--out", str(out)]) == 0
        assert cli.read_embedding(out).shape == (4, 4) and fetches == []

    def test_columns_load_a_headerless_file(self, tmp_path):
        data = tmp_path / "raw.data"
        data.write_text("red,square,A\nred,round,A\nblue,round,B\n")
        out = tmp_path / "oh.csv"
        assert run(["encode", str(data), "--columns", "color,shape,group", "--label", "group",
                    "--method", "onehot", "--out", str(out)]) == 0
        assert cli.read_embedding(out).shape == (3, 4)

    def test_missing_flag_sets_the_token(self, tmp_path):
        data = tmp_path / "na.csv"
        data.write_text("a,b\nx,u\nNA,u\nx,v\n")
        out = tmp_path / "oh.csv"
        # NA is imputed with the mode x, leaving one value of a and two of b
        assert run(["encode", str(data), "--missing", "NA", "--method", "onehot",
                    "--out", str(out)]) == 0
        assert cli.read_embedding(out).shape == (3, 3)

    def test_fetch_of_a_local_file_is_a_fetch_error(self, toy_csv, fetches, capsys):
        assert run(["fetch", str(toy_csv)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [fetch]") and str(toy_csv) in err
        assert fetches == []

    def test_unknown_name_lists_the_bundled_names(self, fetches, capsys):
        assert run(["embed", "nosuch", "--out", "e.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [dataset]") and "bundled names: BC, CE" in err
        assert fetches == []


class TestExitCodes:
    def test_missing_dataset_is_runtime_error(self, capsys):
        assert run(["embed", "/no/such/file.csv", "--out", "x.csv"]) == 1

    def test_bad_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    # the first seed of compare is --seed, the cache is $NECA_CACHE, and
    # export-graph takes only the hyperparameters that shape the graph
    @pytest.mark.parametrize("argv", [
        ["compare", "DATA", "--seed0", "3"],
        ["fetch", "ZO", "--cache", "x"],
        ["export-graph", "DATA", "--which", "intra", "--out", "g.tsv", "--heads", "2"],
    ], ids=lambda argv: argv[0])
    def test_removed_flag_is_a_usage_error(self, toy_csv, argv):
        with pytest.raises(SystemExit) as exc:
            run([str(toy_csv) if a == "DATA" else a for a in argv])
        assert exc.value.code == 2

    # a file is headerless exactly when --columns names its columns, and the
    # mirror is $NECA_MIRROR
    @pytest.mark.parametrize("argv", [
        ["embed", "DATA", "--drop", "Name", "--out", "e.csv", "--no-header"],
        ["embed", "DATA", "--drop", "Name", "--out", "e.csv", "--mirror", "m"],
        ["fetch", "ZO", "--mirror", "m"],
    ], ids=["no-header", "mirror", "fetch-mirror"])
    def test_removed_dataset_flag_is_a_usage_error(self, toy_csv, argv):
        with pytest.raises(SystemExit) as exc:
            run([str(toy_csv) if a == "DATA" else a for a in argv])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["embed", "--epochs", "1", "--heads", "1", "--head-dim", "1", "--out"],
        ["encode", "--method", "onehot", "--out"],
        ["eval", "--out"],
        ["compare", "--methods", "onehot", "--json"],
        ["export-graph", "--which", "inter", "--out"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_output_names_stage_and_target(self, labeled_csv, tmp_path, capsys,
                                                      argv):
        emb = tmp_path / "e.csv"
        cli.write_embedding(emb, np.arange(24.0).reshape(12, 2))
        target = tmp_path / "nodir" / "result"
        extra = ["--embedding", str(emb)] if argv[0] == "eval" else []
        assert run([argv[0], str(labeled_csv), "--label", "group", *extra, *argv[1:],
                    str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [output]") and str(target) in err and ".tmp" not in err
        assert not target.parent.exists()

    def test_success_returns_zero(self, toy_csv, tmp_path):
        assert run(["encode", str(toy_csv), "--drop", "Name", "--method", "onehot",
                    "--out", str(tmp_path / "x.csv")]) == 0

    def test_fully_defaulted_embed_succeeds(self, tmp_path):
        # every RunConfig field has a default; no flags beyond the paths needed
        data = tmp_path / "mini.csv"
        data.write_text("a,b\nx,u\ny,v\nx,u\n")
        out = tmp_path / "emb.csv"
        assert run(["embed", str(data), "--out", str(out)]) == 0
        assert cli.read_embedding(out).shape == (3, 2 * 64)


class TestNecaBeatsNothingBaseline:
    def test_trained_embedding_scores_reasonably_on_separable_data(self, labeled_csv):
        # sanity: on clearly separable data the learned embedding keeps the
        # groups apart at least as well as random chance
        manifest = DatasetManifest(name="blob", label_column="group")
        from neca.dataset import load_csv
        from neca.model import RunConfig
        from neca.training import train
        cad = load_csv(labeled_csv, manifest)
        net = build_hetnet(cad, seed=0)
        _, table, _ = train(net, RunConfig(heads=2, head_dim=4, fusion_dim=4, seed=0,
                                           epochs=40, tol=0.0))
        from neca.evaluation import LabeledEmbedding
        s = silhouette(LabeledEmbedding(table.objects, cad.labels))
        assert s > 0.0
