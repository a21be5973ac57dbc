"""The command line end to end, and the config keys it reads."""

from dataclasses import fields, replace

import pytest

from mdlmlab import cli
from mdlmlab.cli import load_experiment_config, load_train_config, main, parse_policy
from mdlmlab.decoding import PolicyConfig
from mdlmlab.harness import CSV_SCHEMA_TAG, ExperimentConfig
from mdlmlab.nn import TransformerConfig, load_checkpoint

TRAIN_STEPS = 3
ARCH = TransformerConfig(n_layers=1, n_heads=2, d_model=8, max_len=5, vocab_size=2)


def write(path, text: str) -> str:
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Paths of a checkpoint and loss curve from a few `train` steps on reference 42."""
    d = tmp_path_factory.mktemp("train")
    ckpt, curve = str(d / "model.ckpt"), str(d / "loss.csv")
    config = write(
        d / "train.cfg",
        f"joint = reference 42\nprompt_len = 1\nn_layers = 1\nd_model = 8\n"
        f"max_len = 5\nbatch_size = 8\ntrain_steps = {TRAIN_STEPS}\n"
        f"checkpoint_out = {ckpt}\nloss_curve_out = {curve}\n",
    )
    assert main(["train", "--config", config]) == 0
    return ckpt, curve


def test_train_writes_a_loadable_checkpoint_and_one_loss_line_per_step(trained):
    ckpt, curve = trained
    fields = ("n_layers", "n_heads", "d_model", "max_len", "vocab_size")
    loaded = load_checkpoint(ckpt).config
    assert [getattr(loaded, f) for f in fields] == [getattr(ARCH, f) for f in fields]
    lines = open(curve).read().splitlines()
    assert lines[0] == "step,loss"
    assert [line.split(",")[0] for line in lines[1:]] == [str(i) for i in range(TRAIN_STEPS)]


def test_decode_writes_the_trace_of_the_printed_sequence(trained, tmp_path, capsys):
    trace = str(tmp_path / "trace.jsonl")
    assert main(["decode", "--joint", "reference 42", "--denoiser", f"checkpoint {trained[0]}",
                 "--prompt", "2", "--trace", trace]) == 0
    out = capsys.readouterr().out.splitlines()
    tokens = out[0].split()[1:]
    assert len(tokens) == 5 and tokens[0] == "2"
    records = open(trace).read().splitlines()
    assert out[1] == f"nfe: {len(records)}"  # greedy top-k: one forward per step
    assert out[2] == f"trace written to {trace}"


def test_decode_rejects_a_bad_prompt_before_decoding(monkeypatch):
    def no_decode(*args):
        raise AssertionError("decoded")

    monkeypatch.setattr(cli, "decode_blockwise", no_decode)
    for prompt in ("1,2,1,2,1", "1,2,1,2,1,2", "1,x", "1.5"):
        with pytest.raises(ValueError, match="--prompt"):
            main(["decode", "--joint", "reference 42", "--prompt", prompt])


def test_decode_refuses_an_empty_prompt_field(monkeypatch, capsys):
    def no_decode(*args):
        raise AssertionError("decoded")

    for prompt in ("1,,", ",1", "1,,2", ","):
        with monkeypatch.context() as m:
            m.setattr(cli, "decode_blockwise", no_decode)
            with pytest.raises(ValueError, match="^--prompt has an empty comma-separated field"):
                main(["decode", "--joint", "reference 42", "--prompt", prompt])
    assert main(["decode", "--joint", "reference 42", "--prompt", ""]) == 0  # unconditional
    assert len(capsys.readouterr().out.splitlines()[0].split()) == 1 + 5


EXPERIMENT = (
    "joint = reference 42\nprompt_len = 1\nseed = 3\n"
    "policy = scorer=confidence selector=topk steps=2\n"
    "policy = scorer=margin selector=topk steps=2\n"
)


def test_evaluate_out_writes_the_csv(tmp_path, capsys):
    config = write(tmp_path / "exp.cfg", EXPERIMENT)
    out = str(tmp_path / "metrics.csv")
    assert main(["evaluate", "--config", config, "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == f"# schema={CSV_SCHEMA_TAG}" and len(lines) == 4
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed[:2]] == [r.split(",")[0] for r in lines[2:]]
    assert printed[2] == f"metrics written to {out}"


def test_sweep_out_replaces_the_config_out(tmp_path, capsys):
    config_out, cli_out = tmp_path / "config.csv", tmp_path / "cli.csv"
    config = write(tmp_path / "exp.cfg", EXPERIMENT + f"out = {config_out}\n")
    assert main(["sweep", "block", "--config", config, "--values", "1,2",
                 "--out", str(cli_out)]) == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["cli.csv"]
    assert len(cli_out.read_text().splitlines()) == 2 + 4
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 5 and all(" kl=" in line for line in printed[:4])
    assert printed[4] == f"metrics written to {cli_out}"
    with pytest.raises(ValueError, match="^--values must list at least one value"):
        main(["sweep", "block", "--config", config, "--values", ""])
    with pytest.raises(ValueError, match="^--values has an empty comma-separated field"):
        main(["sweep", "block", "--config", config, "--values", ","])


def test_sweep_layers_on_a_trained_checkpoint(trained, tmp_path, capsys):
    config = write(
        tmp_path / "exp.cfg",
        f"joint = reference 42\ndenoiser = checkpoint {trained[0]}\nprompt_len = 1\n"
        "policy = scorer=dos selector=topk steps=2\n",
    )
    assert main(["sweep", "layer", "--config", config, "--values", "0"]) == 0
    [row] = capsys.readouterr().out.splitlines()
    assert row.split()[0] == PolicyConfig(scorer="dos", selector="topk", steps=2).policy_id()
    # the checkpoint has one layer; layer 1 fails in the dos scorer and exits 1
    assert main(["sweep", "layer", "--config", config, "--values", "0,1"]) == 1
    printed = capsys.readouterr()
    assert len(printed.out.splitlines()) == 1
    assert "layer 1 out of range for 1 layers" in printed.err


SWEEP_BASE = ("joint = reference 42\nprompt_len = 1\nseed = 3\nsamples = 200\n"
              "policy = scorer=confidence selector=topk steps=2 temp=sample\n")
TOPK = SWEEP_BASE + "policy = scorer=margin selector=topk temp=sample\n"
MIXED = SWEEP_BASE + "policy = scorer=margin selector=threshold eps=0.7 temp=sample\n"
EB = SWEEP_BASE.replace("selector=topk steps=2", "selector=eb") + (
    "policy = scorer=oracle_dep selector=eb gamma=0.1 temp=sample\n")


def _rows(config, argv, tmp_path):
    """The metric rows ``argv`` writes for ``config``."""
    out = str(tmp_path / "out.csv")
    assert main([*argv, "--config", config, "--out", out]) == 0
    return open(out).read().splitlines()[2:]


@pytest.mark.parametrize("key,values,base", [
    ("block", "1,2", MIXED),  # int
    ("gamma", "0.0,0.05,0.5", EB),  # float
    ("remask", "false,true", TOPK),  # bool
    ("temp", "greedy,sample", MIXED),  # str
    ("dep_prefilter", "0.0,0.2", EB),  # optional float, read by EB only
], ids=["int", "float", "bool", "str", "optional"])
def test_sweep_runs_each_value_of_one_key(key, values, base, tmp_path):
    config = write(tmp_path / "exp.cfg", base)
    policies = load_experiment_config(config).policies
    name = cli._POLICY_ALIASES.get(key, key)
    typed = [cli._typed(PolicyConfig, name, v) for v in values.split(",")]
    want = [replace(p, **{name: v}).policy_id() for v in typed for p in policies]
    rows = _rows(config, ["sweep", key, "--values", values], tmp_path)
    assert [row.split(",")[0] for row in rows] == want  # value-major
    assert len(set(want)) == len(want)


def test_sweep_refuses_an_empty_value_field(tmp_path, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("swept")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    config = write(tmp_path / "exp.cfg", MIXED)
    for values in ("1,,2", "1,", ",1"):
        with pytest.raises(ValueError, match="^--values has an empty comma-separated field"):
            main(["sweep", "block", "--config", config, "--values", values])


def test_sweep_names_a_malformed_value_or_an_unknown_key(tmp_path):
    config = write(tmp_path / "exp.cfg", MIXED)
    for key, values, message in (("block", "1,x", "^block must be int, got 'x'"),
                                 ("gamma", "0.1,abc", "^gamma must be float"),
                                 ("remask", "yes", "^remask must be true or false"),
                                 ("steps", "2.5", "^steps must be int")):
        with pytest.raises(ValueError, match=message):
            main(["sweep", key, "--config", config, "--values", values])
    with pytest.raises(ValueError, match="^unknown policy key 'blocks'"):
        main(["sweep", "blocks", "--config", config, "--values", "1,2"])


# One value per field, with a config whose every policy accepts it.
ONE_VALUE = {
    "scorer": ("entropy", MIXED), "selector": ("klass", MIXED), "steps": ("3", MIXED),
    "block_size": ("2", MIXED), "temperature": ("greedy", MIXED), "layer": ("1", MIXED),
    "eps": ("0.8", MIXED), "tau": ("0.8", MIXED), "eps_kl": ("0.02", MIXED),
    "n_history": ("3", MIXED), "gamma": ("0.2", EB), "stochastic_remask": ("true", TOPK),
    "dep_eb_prefilter": ("0.1", EB),
}


@pytest.mark.parametrize("key", [f.name for f in fields(PolicyConfig)] + list(cli._POLICY_ALIASES))
def test_a_one_value_sweep_equals_the_key_on_every_policy_line(key, tmp_path):
    name = cli._POLICY_ALIASES.get(key, key)
    value, base = ONE_VALUE[name]

    def set_key(line: str) -> str:  # the policy line with ``key`` replacing the field
        head, pairs = line.split("=", 1)
        kept = [t for t in pairs.split() if cli._policy_field(t.split("=")[0]) != name]
        return f"{head}= {' '.join(kept)} {key}={value}\n"

    edited = "".join(set_key(line) if line.startswith("policy") else line + "\n"
                     for line in base.splitlines())
    swept = _rows(write(tmp_path / "base.cfg", base), ["sweep", key, "--values", value], tmp_path)
    evaluated = _rows(write(tmp_path / "edited.cfg", edited), ["evaluate"], tmp_path)
    assert swept == evaluated and len(swept) == 2


def test_fig2_passes(capsys):
    assert main(["fig2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "overall: PASS"


def test_every_key_spelling_parses_to_its_field(tmp_path):
    short = "scorer=dos selector=topk steps=4 block=2 temp=sample layer=1 n=3 remask=true"
    long = ("scorer=dos selector=topk steps=4 block_size=2 temperature=sample layer=1 "
            "n_history=3 stochastic_remask=true")
    want = PolicyConfig(scorer="dos", selector="topk", steps=4, block_size=2,
                        temperature="sample", layer=1, n_history=3, stochastic_remask=True)
    assert parse_policy(short) == parse_policy(long) == want
    floats = "selector=eb eps=0.9 tau=0.8 eps_kl=0.02 gamma=0.05"
    want = PolicyConfig(selector="eb", eps=0.9, tau=0.8, eps_kl=0.02, gamma=0.05,
                        dep_eb_prefilter=0.25)
    assert parse_policy(floats + " dep_prefilter=0.25") == want
    assert parse_policy(floats + " dep_eb_prefilter=0.25") == want

    path = write(
        tmp_path / "exp.cfg",
        "joint = layered 3\ndenoiser = checkpoint m.ckpt\nprompt_len = 0\nsamples = 7\n"
        "seed = 5\nout = m.csv\nmode = mc\nunconditional = TRUE\npolicy = scorer=margin\n",
    )
    assert load_experiment_config(path) == ExperimentConfig(
        joint="layered 3", denoiser="checkpoint m.ckpt", prompt_len=0, samples=7, seed=5,
        out="m.csv", mode="mc", unconditional=True,
        policies=(PolicyConfig(scorer="margin"),),
    )

    path = write(
        tmp_path / "train.cfg",
        "joint = reference 42\nprompt_len = 1\nn_layers = 3\nn_heads = 4\nd_model = 16\n"
        "max_len = 6\nvocab_size = 2\nseed = 9\nlearning_rate = 0.05\nbatch_size = 4\n"
        "train_steps = 10\nt_min = 0.02\ncheckpoint_out = m.ckpt\nloss_curve_out = l.csv\n",
    )
    assert load_train_config(path) == {
        "joint": "reference 42", "prompt_len": 1, "checkpoint_out": "m.ckpt",
        "loss_curve_out": "l.csv",
        "config": TransformerConfig(n_layers=3, n_heads=4, d_model=16, max_len=6,
                                    vocab_size=2, seed=9, learning_rate=0.05,
                                    batch_size=4, train_steps=10, t_min=0.02),
    }


def test_a_malformed_value_names_its_key(tmp_path):
    for text, key in (("steps=x", "steps"), ("gamma=abc", "gamma"), ("n=2.0", "n")):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            parse_policy(text)
    exp = write(tmp_path / "exp.cfg",
                "joint = reference 42\nprompt_len = 1\nsamples = ten\npolicy = scorer=margin\n")
    with pytest.raises(ValueError, match="^samples must be int"):
        load_experiment_config(exp)
    train = write(tmp_path / "train.cfg",
                  "joint = reference 42\ncheckpoint_out = m.ckpt\nd_model = 3e1\n")
    with pytest.raises(ValueError, match="^d_model must be int"):
        load_train_config(train)
    train = write(tmp_path / "train.cfg",
                  "joint = reference 42\ncheckpoint_out = m.ckpt\nprompt_len = one\n")
    with pytest.raises(ValueError, match="^prompt_len must be int"):
        load_train_config(train)


def test_an_experiment_key_given_twice_is_refused(tmp_path):
    exp = write(tmp_path / "exp.cfg", "joint = reference 42\nprompt_len = 1\nseed = 1\n"
                "policy = scorer=margin\npolicy = scorer=entropy\nseed = 2\n")
    with pytest.raises(ValueError, match=r"exp.cfg:6: key 'seed' repeats line 3$"):
        load_experiment_config(exp)
    two_policies = write(tmp_path / "ok.cfg", "joint = reference 42\nprompt_len = 1\n"
                         "policy = scorer=margin\npolicy = scorer=entropy\n")
    assert len(load_experiment_config(two_policies).policies) == 2  # policy lines may repeat


def test_a_train_key_given_twice_is_refused(tmp_path):
    train = write(tmp_path / "train.cfg", "joint = reference 42\ncheckpoint_out = a.ckpt\n"
                  "checkpoint_out = b.ckpt\n")
    with pytest.raises(ValueError, match=r"train.cfg:3: key 'checkpoint_out' repeats line 2$"):
        load_train_config(train)


def test_a_policy_field_given_twice_is_refused():
    for text, key, name in (("steps=2 steps=4", "steps", "steps"),
                            ("block=2 block_size=4", "block_size", "block_size"),
                            ("block_size=2 block=4", "block", "block_size"),
                            ("n=2 n=3", "n", "n_history")):
        with pytest.raises(ValueError, match=f"^policy key '{key}' sets {name} a second time$"):
            parse_policy(text)
