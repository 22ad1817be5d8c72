import hashlib
import json
import shlex
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cycfred import chern, cyclic, fredholm, models
from cycfred.cli import main
from cycfred.pairing import c_constant
from cycfred.serialize import (
    array_from_json,
    array_to_json,
    dump_json,
    load_json,
    module_from_json,
    module_to_json,
)
from cycfred.models import discrete_hardy, random_reflection_module
from cycfred.algebra import upper_triangular_algebra


def test_module_json_roundtrip(tmp_path):
    _, mod = discrete_hardy(8)
    path = tmp_path / "m.json"
    dump_json(module_to_json(mod), str(path))
    back = module_from_json(load_json(str(path)))
    assert back.m == mod.m and back.n == mod.n
    assert np.abs(back.F - mod.F).max() < 1e-15
    assert np.abs(back.rep - mod.rep).max() < 1e-15


def test_array_json_is_re_im_pairs(tmp_path):
    a = np.array([[1 + 2j, 0], [0, -1j]])
    data = array_to_json(a)
    assert data[0][0] == [1.0, 2.0]
    assert np.array_equal(array_from_json(data), a)


def test_make_model_verify_roundtrip(tmp_path):
    mod_path = str(tmp_path / "hardy.json")
    pert_path = str(tmp_path / "T.json")
    report_path = str(tmp_path / "report.json")
    assert main(["make-model", "hardy", "--N", "8", "-o", mod_path]) == 0
    assert main(["make-perturbation", "--module", mod_path, "--eps", "0.2",
                 "--seed", "3", "-o", pert_path]) == 0
    code = main(["verify-invariance", "--module", mod_path,
                 "--perturbation", pert_path, "--tol", "1e-8",
                 "--report", report_path])
    assert code == 0
    report = load_json(report_path)
    assert report["pass"] is True
    assert report["witness"]["pass"] is True
    # each fact once: these live in involution_identity, module and perturbed_module
    assert not {"involution_defect", "schatten_base", "schatten_perturbed"} & set(report["witness"])


def test_verify_exit_one_on_corrupted_symmetry(tmp_path):
    mod = random_reflection_module(6, upper_triangular_algebra(), seed=1, m=2)
    data = module_to_json(mod)
    data["F"][0][0] = [0.5, 0.0]   # breaks F^2 = 1
    mod_path = str(tmp_path / "bad.json")
    report_path = str(tmp_path / "report.json")
    dump_json(data, mod_path)
    code = main(["verify-invariance", "--module", mod_path, "--report", report_path])
    assert code == 1
    report = load_json(report_path)
    assert report["pass"] is False
    assert report["module"]["pass"] is False


def test_missing_file_gives_exit_two(tmp_path):
    assert main(["verify-invariance", "--module", str(tmp_path / "nope.json")]) == 2
    assert main(["verify-invariance", "--module", str(tmp_path)]) == 2


def test_budget_exit_two(tmp_path, capsys):
    """MAX_N is the one Hilbert-dimension cap of every command that reads a module."""
    mod_path = _reflection_file(tmp_path, size=65)
    for command in ("verify-invariance", "witness", "pair"):
        assert main(_command_line(tmp_path, command, mod_path)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["input error: Hilbert dimension 65 exceeds the budget 64"], err


@pytest.mark.parametrize("command", ["witness", "verify-invariance", "pair"])
def test_m_is_checked_only_when_given(command, tmp_path, capsys):
    """No --m: no check.  Any --m other than the file's m (2), 0 and -1
    included, exits 2 with one line."""
    argv = _command_line(tmp_path, command, _hardy_file(tmp_path))
    assert main(argv) == 0
    assert main([*argv, "--m", "2"]) == 0
    capsys.readouterr()
    for m in ("0", "-1", "3"):
        assert main([*argv, "--m", m]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"input error: --m {m} disagrees with the module file (m=2)"], err


def test_pair_command(tmp_path, capsys):
    mod_path = str(tmp_path / "hardy.json")
    logs_path = str(tmp_path / "logs.json")
    report_path = str(tmp_path / "pair.json")
    main(["make-model", "hardy", "--N", "8", "-o", mod_path])
    x = 2 * np.pi * np.arange(8) / 8
    dump_json({"logs": [array_to_json(1j * x), array_to_json(1j * np.cos(x))]}, logs_path)
    code = main(["pair", "--module", mod_path, "--logs", logs_path,
                 "--m", "2", "--report", report_path])
    assert code == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["modulus_exponent"] == 1
    assert "raw_pairing" in out
    saved = load_json(report_path)
    assert saved["representative"] == out["representative"]


def test_pair_m_mismatch(tmp_path):
    mod_path = str(tmp_path / "hardy.json")
    logs_path = str(tmp_path / "logs.json")
    main(["make-model", "hardy", "--N", "8", "-o", mod_path])
    dump_json({"logs": [array_to_json(np.zeros(8))] * 2}, logs_path)
    assert main(["pair", "--module", mod_path, "--logs", logs_path, "--m", "3"]) == 2
    assert main(["witness", "--module", mod_path, "--m", "3"]) == 2


def test_witness_command(tmp_path):
    mod_path = str(tmp_path / "refl.json")
    pert_path = str(tmp_path / "T.json")
    report_path = str(tmp_path / "witness.json")
    mod = random_reflection_module(6, upper_triangular_algebra(), seed=2, m=2)
    dump_json(module_to_json(mod), mod_path)
    main(["make-perturbation", "--module", mod_path, "--eps", "0.15",
          "--seed", "5", "-o", pert_path])
    code = main(["witness", "--module", mod_path, "--perturbation", pert_path,
                 "--report", report_path])
    assert code == 0
    report = load_json(report_path)
    assert set(report) == {"pass", "max_residual", "worst_tuple", "reduced",
                           "witness_degrees", "components"}
    assert report["pass"] and report["reduced"]
    assert report["witness_degrees"] == [0]
    assert len(report["components"]) == 1


def test_witness_command_empty_at_m1(tmp_path):
    mod_path = str(tmp_path / "hg.json")
    report_path = str(tmp_path / "w.json")
    main(["make-model", "hardy-graded", "--N", "4", "-o", mod_path])
    pert_path = str(tmp_path / "T.json")
    main(["make-perturbation", "--module", mod_path, "--eps", "0.3",
          "--seed", "1", "-o", pert_path])
    code = main(["witness", "--module", mod_path, "--perturbation", pert_path,
                 "--report", report_path])
    assert code == 0
    report = load_json(report_path)
    assert report["witness_degrees"] == [] and report["components"] == []
    assert report["max_residual"] < 1e-9


def test_make_model_variants(tmp_path):
    for args in (["make-model", "even", "--n", "3", "--seed", "2", "--m", "3",
                  "-o", str(tmp_path / "e.json")],
                 ["make-model", "reflection", "--n", "6", "--seed", "2",
                  "--algebra", "ut2", "-o", str(tmp_path / "r.json")],
                 ["make-model", "hardy-graded", "--N", "6",
                  "-o", str(tmp_path / "hg.json")]):
        assert main(args) == 0
        mod = module_from_json(load_json(args[-1]))
        from cycfred.fredholm import validate_module
        assert validate_module(mod)["pass"]


# Every option of make-model besides -o, by the kinds that read it: a value
# other than the default that is valid, and one that is not.
MODEL_OPTION_VALUES = {
    "hardy": {"--N": ("8", "65")},
    "hardy-graded": {"--N": ("6", "0"), "--seed": ("3", "-1")},
    "even": {"--n": ("3", "1"), "--m": ("5", "4"), "--seed": ("3", "-1"),
             "--algebra": ("ut2", "pointwise:0")},
    "reflection": {"--n": ("6", "65"), "--m": ("4", "3"), "--seed": ("3", "-1"),
                   "--algebra": ("matrix:2", "matrix:x")},
}
EVERY_MODEL_OPTION = sorted({o for options in MODEL_OPTION_VALUES.values() for o in options})


def _one_input_error(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("input error:"), err
    return err[0]


@pytest.mark.parametrize("kind,option",
                         [(k, o) for k in MODEL_OPTION_VALUES for o in EVERY_MODEL_OPTION])
def test_make_model_reads_every_option_it_accepts(kind, option, tmp_path, capsys):
    """A kind's own option changes the module or exits 2; any other exits 2."""
    path = str(tmp_path / "model.json")
    if option not in MODEL_OPTION_VALUES[kind]:
        valid = next(v[option][0] for v in MODEL_OPTION_VALUES.values() if option in v)
        assert main(["make-model", kind, option, valid, "-o", path]) == 2
        assert "unrecognized arguments" in _one_input_error(capsys)
        return
    valid, invalid = MODEL_OPTION_VALUES[kind][option]
    assert main(["make-model", kind, "-o", path]) == 0
    default = (tmp_path / "model.json").read_bytes()
    assert main(["make-model", kind, option, valid, "-o", path]) == 0
    assert (tmp_path / "model.json").read_bytes() != default
    assert main(["make-model", kind, option, invalid, "-o", str(tmp_path / "bad.json")]) == 2
    _one_input_error(capsys)
    assert not (tmp_path / "bad.json").exists()


def test_make_model_even_is_built_over_its_algebra(tmp_path):
    assert main(["make-model", "even", "--algebra", "ut2", "-o", str(tmp_path / "cli.json")]) == 0
    _, module = models.toy_even_module(4, algebra=upper_triangular_algebra())
    dump_json(module_to_json(module), str(tmp_path / "lib.json"))
    assert (tmp_path / "cli.json").read_bytes() == (tmp_path / "lib.json").read_bytes()


# SHA-256 of the module file of each make-model line in tests/ and README.md,
# as make-model wrote it before each kind had a parser of its own (there,
# "even --algebra pointwise:3" was spelled "even --base-dim 3").
MODEL_DIGESTS = {
    "hardy": "524eadcb404d44d8afac0f1c32451d6a577be1368efed529a0d5a64a82fc0c70",
    "hardy --N 8": "392a1042b77c1bb7d50e62a40b25a3998a2643d90a4b0fc7c92954a7251bf752",
    "hardy --N 16": "524eadcb404d44d8afac0f1c32451d6a577be1368efed529a0d5a64a82fc0c70",
    "hardy-graded": "8f395f7eb57e41e72d1e04b919e7bf121a292f51b9884734f038639f6d316999",
    "hardy-graded --N 4": "2a661b729308a9fde80e1d5c947c798c3fed8ba67b79e4f764b237f233f01d9f",
    "hardy-graded --N 6": "45f9b5da749d3245321c0319bc0e9c9be08d50be5fea42c8cdde29108bd5c780",
    "even": "ee6c0ee6c327428da412a187969ae34b3f1bcc2f1aba1b20b3736b37ea4cbac8",
    "even --n 3 --seed 2 --m 3": "8715bc8a32dc6a7238eec9e396f2961d216a303fd8db0165507c03ad5d6cc437",
    "even --algebra pointwise:3": "b5a730ef826f5026555b36718b963ee59f8f1efdd40f1246a05e5e18462968d3",
    "reflection": "2ce36aebb6781c9f0d60894ad92f327c7a63e17790beced0f06f5cea3a5b41a5",
    "reflection --n 4": "2ce36aebb6781c9f0d60894ad92f327c7a63e17790beced0f06f5cea3a5b41a5",
    "reflection --n 6 --seed 2 --algebra ut2":
        "3592a52fce8ddf48a7f5a52deff3ab203e9afe8d6ccaebd50f7ef56955ddd66d",
    "reflection --algebra pointwise:2 --m 6 --n 4":
        "3abaedd72511db8644107a63bd9d4fe11d816296005e101038cc189c877ef9f4",
    "reflection --n 6 --m 4": "b3426fabc9001a88c245d60b425323c9aa1127f76c878adfc60e2b2ee9b7ce6c",
    "reflection --algebra matrix:2 --m 4 --n 8":
        "e24704e4a95ac3e489d7ff5ee07601753553191c844cea41c55a85627a9141c2",
}


@pytest.mark.parametrize("line", sorted(MODEL_DIGESTS))
def test_make_model_writes_the_same_bytes(line, tmp_path):
    path = tmp_path / "model.json"
    assert main(["make-model", *line.split(), "-o", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MODEL_DIGESTS[line]


def test_help_still_prints_the_options_of_a_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["make-model", "even", "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--algebra" in out and "--N" not in out


def _readme_commands() -> list:
    """The command lines of the fenced block under README's "## Command line"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Command line\n", 1)[1].split("```", 2)[1]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert commands and all(argv[0] == "cycfred" for argv in commands)
    for argv in commands:
        if argv[1] == "pair":           # zero logs, one per degree, over the module's algebra
            module = module_from_json(load_json(argv[argv.index("--module") + 1]))
            dump_json({"logs": [array_to_json(np.zeros(module.algebra.dim))] * module.m},
                      argv[argv.index("--logs") + 1])
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)


def _set(key, value):
    return lambda data: data.__setitem__(key, value)


MALFORMED = {
    "nan-in-F": lambda data: data["F"][0].__setitem__(0, [float("nan"), 0.0]),
    "m-not-a-number": _set("m", "two"),
    "m-fractional": _set("m", 2.7),
    "rep-slot-1x1": lambda data: data["rep"].__setitem__(0, [[[1.0, 0.0]]]),
    "rep-list-short": lambda data: data.__setitem__("rep", data["rep"][:-1]),
    "n-disagrees": _set("n", 7),
    "F-ragged": lambda data: data["F"].__setitem__(0, data["F"][0][:-1]),
    "F-overflow": lambda data: data["F"][0].__setitem__(0, [10 ** 400, 0.0]),
    "labels-not-strings": lambda data: data["algebra"].__setitem__("labels", [[1], [2], [3]]),
}


@pytest.mark.parametrize("defect", sorted(MALFORMED))
def test_malformed_module_file_exits_two_with_one_line(defect, tmp_path, capsys):
    data = module_to_json(random_reflection_module(6, upper_triangular_algebra(), seed=1, m=2))
    MALFORMED[defect](data)
    path = str(tmp_path / "malformed.json")
    dump_json(data, path)
    assert main(["verify-invariance", "--module", path]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("input error:"), err


def _witness_without(field):
    """witness on the valid n = 6 module file with field removed from the
    file or, for a field of the algebra, from its algebra."""
    def argv(tmp_path):
        data = _reflection_data()
        del (data["algebra"] if field in data["algebra"] else data)[field]
        return ["witness", "--module", _bad_file(tmp_path, data)]
    return argv


# command line from tmp_path, and the error line, per missing field
MISSING_FIELDS = {
    "n": (_witness_without("n"), "the module file has no 'n' field"),
    "F": (_witness_without("F"), "the module file has no 'F' field"),
    "rep": (_witness_without("rep"), "the module file has no 'rep' field"),
    "labels": (_witness_without("labels"), "the module file's algebra has no 'labels' field"),
    "T": (lambda tmp: ["witness", "--module", _reflection_file(tmp),
                       "--perturbation", _bad_file(tmp, {})],
          "the perturbation file has no 'T' field"),
    "logs": (lambda tmp: ["pair", "--module", _reflection_file(tmp),
                          "--logs", _bad_file(tmp, {"exponents": []})],
             "the logs file has no 'logs' field"),
}


@pytest.mark.parametrize("field", sorted(MISSING_FIELDS))
def test_a_missing_field_is_named_with_its_file(field, tmp_path, capsys):
    argv, line = MISSING_FIELDS[field]
    assert main(argv(tmp_path)) == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"input error: {line}"]


def _reflection_data(size=6):
    return module_to_json(random_reflection_module(size, upper_triangular_algebra(), seed=1, m=2))


def _reflection_file(tmp_path, size=6, **changes):
    """A valid n = size module file, with the given top-level fields replaced."""
    data = _reflection_data(size)
    data.update(changes)
    path = str(tmp_path / "module.json")
    dump_json(data, path)
    return path


def _scaled(field, c):
    """Module-file changes that scale F, rep or the structure tensor by c."""
    data = _reflection_data()
    if field == "structure":
        algebra = data["algebra"]
        return {"algebra": {**algebra, "structure": (c * np.asarray(algebra["structure"])).tolist()}}
    return {field: (c * np.asarray(data[field])).tolist()}


def _hardy_file(tmp_path):
    path = str(tmp_path / "hardy.json")
    dump_json(module_to_json(discrete_hardy(8)[1]), path)
    return path


def _command_line(tmp_path, command, mod_path):
    """A command line of witness, verify-invariance or pair on a module file;
    pair reads zero logs, one per degree, over the module's algebra."""
    if command != "pair":
        return [command, "--module", mod_path]
    data, logs = load_json(mod_path), str(tmp_path / "logs.json")
    dump_json({"logs": [array_to_json(np.zeros(data["algebra"]["dim"]))] * data["m"]}, logs)
    return ["pair", "--module", mod_path, "--logs", logs]


def _bad_file(tmp_path, content):
    path = tmp_path / "bad.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        dump_json(content, str(path))
    return str(path)


BAD_PERTURBATIONS = {
    "not-a-dict": [1, 2],
    "T-not-an-array": {"T": "x"},
    "T-not-square": {"T": array_to_json(np.zeros((6, 7)))},
    "T-nan": {"T": array_to_json(np.full((6, 6), np.nan))},
    "T-digits-over-the-limit": b'{"T": ' + b"9" * 5000 + b"}",
    "nested-too-deep": b"[" * 100000 + b"]" * 100000,
}
BAD_LOGS = {
    "logs-not-a-list": {"logs": 5},
    "logs-entry-not-an-array": {"logs": ["x"]},
    "exponents-not-a-list": {"logs": [array_to_json(np.zeros(3))] * 2, "exponents": 7},
    "no-logs": {},
    "not-utf8": b"\xff\xfe",
}

# make-model arguments, and a phrase the error line must contain
BAD_MODELS = {
    "pointwise-not-an-integer": (["reflection", "--algebra", "pointwise:x"],
                                 "must be an integer"),
    "pointwise-over-budget": (["reflection", "--algebra", "pointwise:100000"],
                              "dense tensor with dim 100000 and degree 2 exceeds"),
    "pointwise-zero": (["reflection", "--algebra", "pointwise:0"], "must be positive"),
    "matrix-not-an-integer": (["reflection", "--algebra", "matrix:2.5"], "must be an integer"),
    "matrix-over-budget": (["reflection", "--algebra", "matrix:100"],
                           "dense tensor with dim 10000 and degree 2 exceeds"),
    "hardy-N-over-budget": (["hardy", "--N", "100000"], "--N 100000 exceeds the budget 64"),
    "reflection-n-over-budget": (["reflection", "--n", "100000"],
                                 "--n 100000 exceeds the budget 64"),
    "reflection-n-negative": (["reflection", "--n", "-3"], "must be positive"),
    "even-negative-seed": (["even", "--seed", "-1"], "--seed must be non-negative"),
    # an --m past MAX_M would write a module every other command rejects
    "reflection-m-over-budget": (["reflection", "--n", "4", "--m", "8"], "--m 8 is outside 1..6"),
    "even-m-over-budget": (["even", "--n", "4", "--m", "9"], "--m 9 is outside 1..6"),
    "reflection-m-negative": (["reflection", "--m", "-1"], "--m -1 is outside 1..6"),
    "even-m-zero": (["even", "--m", "0"], "--m 0 is outside 1..6"),
    # a kind accepts only the options it reads
    "hardy-N-not-an-integer": (["hardy", "--N", "two"], "argument --N: invalid int value: 'two'"),
    "hardy-m": (["hardy", "--N", "8", "--m", "4"], "unrecognized arguments: --m 4"),
    "hardy-seed": (["hardy", "--N", "8", "--seed", "3"], "unrecognized arguments: --seed 3"),
    "hardy-n": (["hardy", "--n", "8"], "unrecognized arguments: --n 8"),
    "hardy-graded-m": (["hardy-graded", "--N", "6", "--m", "1"], "unrecognized arguments: --m 1"),
    "reflection-N": (["reflection", "--N", "8"], "unrecognized arguments: --N 8"),
    "even-base-dim": (["even", "--base-dim", "3"], "unrecognized arguments: --base-dim 3"),
}


def _bad_input_cases():
    """(argv from tmp_path, a phrase the error line must contain) per malformed input."""
    for name, content in BAD_PERTURBATIONS.items():
        for command in ("witness", "verify-invariance"):
            yield pytest.param(
                lambda tmp, c=command, t=content: [c, "--module", _reflection_file(tmp),
                                                   "--perturbation", _bad_file(tmp, t)],
                "", id=f"{command}-{name}")
    for name, content in BAD_LOGS.items():
        yield pytest.param(
            lambda tmp, t=content: ["pair", "--module", _reflection_file(tmp),
                                    "--logs", _bad_file(tmp, t)],
            "", id=f"pair-{name}")
    yield pytest.param(
        lambda tmp: ["verify-invariance", "--module", _reflection_file(tmp, n=1000000)],
        "Hilbert dimension 1000000 exceeds the budget", id="module-n-over-budget")
    yield pytest.param(
        lambda tmp: ["make-perturbation", "--module", _reflection_file(tmp, size=66),
                     "-o", str(tmp / "T.json")],
        "Hilbert dimension 66 exceeds the budget", id="make-perturbation-n-over-budget")
    yield pytest.param(
        lambda tmp: ["verify-invariance", "--module",
                     _reflection_file(tmp, algebra={**_reflection_data()["algebra"], "dim": 1000})],
        "dense tensor with dim 1000 and degree 2 exceeds", id="module-dim-over-budget")
    for name, (args, phrase) in BAD_MODELS.items():
        yield pytest.param(
            lambda tmp, a=args: ["make-model", *a, "-o", str(tmp / "model.json")],
            phrase, id=f"make-model-{name}")
    yield pytest.param(
        lambda tmp: ["verify-invariance", "--module", _reflection_file(tmp), "--seed", "-1"],
        "--seed must be non-negative", id="verify-invariance-negative-seed")
    yield pytest.param(
        lambda tmp: ["witness", "--module", _reflection_file(tmp), "--seed", "1"],
        "unrecognized arguments: --seed 1", id="witness-seed")
    yield pytest.param(lambda tmp: [], "the following arguments are required: command",
                       id="empty-command-line")
    # MAX_N is the one Hilbert-dimension cap, and `witness --report` alone writes psi
    for command, flag in (("witness", "--budget-n 4"), ("verify-invariance", "--budget-n 4"),
                          ("pair", "--budget-n 4"), ("witness", "--dump-witness"),
                          ("verify-invariance", "--dump-witness")):
        yield pytest.param(
            lambda tmp, c=command, f=flag: [*_command_line(tmp, c, _hardy_file(tmp)), *f.split()],
            f"unrecognized arguments: {flag}", id=f"{command}{flag.split()[0]}")
    for eps in ("nan", "inf"):
        yield pytest.param(
            lambda tmp, e=eps: ["make-perturbation", "--module", _reflection_file(tmp),
                                "--eps", e, "-o", str(tmp / "T.json")],
            f"--eps must be a finite number, got {eps}", id=f"make-perturbation-eps-{eps}")
    # overflowing input: every product in the checks reads inf, never a PASS
    # and never a LinAlgError from LAPACK
    for command in ("witness", "verify-invariance"):
        yield pytest.param(
            lambda tmp, c=command: [c, "--module", _reflection_file(tmp), "--perturbation",
                                    _bad_file(tmp, {"T": array_to_json(np.full((6, 6), 1e155))})],
            "G = F + T is not an involutive symmetry", id=f"{command}-T-overflows")
    for field in ("F", "rep", "structure"):
        yield pytest.param(
            lambda tmp, f=field: ["witness", "--module", _reflection_file(tmp, **_scaled(f, 1e200))],
            "invalid Fredholm module", id=f"witness-{field}-overflows")
    yield pytest.param(
        lambda tmp: ["pair", "--module", _hardy_file(tmp),
                     "--logs", _bad_file(tmp, {"logs": [array_to_json(np.full(8, 1e200))] * 2})],
        "exp(rep(a)) at index 0 overflows", id="pair-exp-overflows")
    # a --tol that would turn a verdict wrong: inf passes every residual,
    # nan and a negative bound fail every one
    for command in ("witness", "verify-invariance", "pair"):
        for tol in ("inf", "nan", "-1"):
            yield pytest.param(
                lambda tmp, c=command, t=tol: [
                    *_command_line(tmp, c, _hardy_file(tmp)), "--tol", t],
                f"--tol must be a finite non-negative number, got {float(tol)}",
                id=f"{command}-tol-{tol}")


@pytest.mark.parametrize("argv,phrase", _bad_input_cases())
def test_malformed_input_file_exits_two_with_one_line(argv, phrase, tmp_path, capsys):
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("input error:") and phrase in err[0], err


def test_make_perturbation_at_a_huge_eps_is_a_valid_perturbation(tmp_path):
    """u = exp(i eps K) is formed from expm1 of the eigenvalues, so even
    eps = 1e155 gives a finite T with G = F + T involutive."""
    mod_path, pert_path = _reflection_file(tmp_path), str(tmp_path / "T.json")
    assert main(["make-perturbation", "--module", mod_path, "--eps", "1e155",
                 "-o", pert_path]) == 0
    module = module_from_json(load_json(mod_path))
    T = array_from_json(load_json(pert_path)["T"])
    assert np.isfinite(T).all()
    fredholm.perturb(module, T)
    assert main(["witness", "--module", mod_path, "--perturbation", pert_path]) == 0


def test_make_perturbation_rejects_a_non_finite_T(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(models, "conjugation_perturbation",
                        lambda module, seed, strength: np.full((module.n,) * 2, np.nan))
    assert main(["make-perturbation", "--module", _reflection_file(tmp_path),
                 "-o", str(tmp_path / "T.json")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("input error:") and "non-finite" in err[0], err


@pytest.mark.parametrize("field,check", [("F", "F_involutive"), ("rep", "rep_homomorphism")])
def test_verify_reports_module_fail_on_overflowing_input(field, check, tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    code = main(["verify-invariance", "--module", _reflection_file(tmp_path, **_scaled(field, 1e200)),
                 "--report", report_path])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == "", captured.err
    assert "module: FAIL" in captured.out.splitlines()
    with open(report_path, encoding="utf-8") as fh:      # strict JSON: no Infinity constant
        report = json.load(fh, parse_constant=_reject_constant)
    assert report["module"]["checks"][check] == "Infinity"


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_verify_report_of_a_failing_module_has_no_witness(tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    code = main(["verify-invariance", "--module", _reflection_file(tmp_path, **_scaled("F", 1e200)),
                 "--report", report_path])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == "", captured.err
    assert "module: FAIL" in captured.out.splitlines()
    report = load_json(report_path)
    assert "witness" not in report


@pytest.mark.parametrize("command", ["verify-invariance", "witness"])
def test_each_command_builds_the_witness_once(command, tmp_path, monkeypatch):
    mod_path = str(tmp_path / "refl.json")
    pert_path = str(tmp_path / "T.json")
    report_path = str(tmp_path / "report.json")
    dump_json(module_to_json(random_reflection_module(6, upper_triangular_algebra(),
                                                      seed=2, m=2)), mod_path)
    main(["make-perturbation", "--module", mod_path, "--eps", "0.15", "--seed", "5",
          "-o", pert_path])
    counts = _count_calls(monkeypatch, "witness_cochain", source=chern)
    assert main([command, "--module", mod_path, "--perturbation", pert_path,
                 "--report", report_path]) == 0
    assert counts == {"witness_cochain": 1}
    report = load_json(report_path)
    if command == "witness":                           # psi is written here, as components
        assert np.asarray(report["components"]).shape == (1, 4, 2)   # psi_0 over unitalized ut2
    else:                                              # and nowhere else
        assert "witness" not in report["witness"]


# Valid modules on which a full-tensor self-check, one degree above the largest
# tensor the input holds, exceeds the tensor budget: (make-model arguments,
# tensor budget, identity budget)
SELF_CHECKS_OVER_BUDGET = {
    # ut2 at m = 2: the b o b identity runs at degree 4; b phi has 4^6 entries
    # and b(b phi) 4^7 (Hardy N = 66 at the default budget, in miniature)
    "identity-b-of-b": (["reflection", "--n", "4"], 4 ** 6, None),
    # pointwise:2 at m = 6, identity held to degree 2: tau has 3^6 entries, and
    # b tau and the top component 3^7 (pointwise:11 at m = 6, in miniature)
    "cocycle-and-top": (["reflection", "--algebra", "pointwise:2", "--m", "6", "--n", "4"],
                        3 ** 6, 3 ** 4),
}


@pytest.mark.parametrize("name", sorted(SELF_CHECKS_OVER_BUDGET))
def test_self_checks_never_exit_two_on_admitted_input(name, tmp_path, capsys, monkeypatch):
    args, budget, identity_budget = SELF_CHECKS_OVER_BUDGET[name]
    mod_path = str(tmp_path / "m.json")
    pert_path = str(tmp_path / "T.json")
    assert main(["make-model", *args, "-o", mod_path]) == 0
    assert main(["make-perturbation", "--module", mod_path, "--eps", "0.2", "-o", pert_path]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cyclic, "MAX_TENSOR_ENTRIES", budget)
    if identity_budget is not None:
        monkeypatch.setattr(chern, "MAX_IDENTITY_ENTRIES", identity_budget)
    assert main(["verify-invariance", "--module", mod_path, "--perturbation", pert_path]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.strip().endswith("overall: PASS")


def _count_calls(monkeypatch, *names, source=fredholm):
    """Wrap each named function of source at every cycfred binding; return the counts."""
    counts = Counter()
    modules = [m for key, m in sys.modules.items()
               if key == "cycfred" or key.startswith("cycfred.")]
    for name in names:
        orig = getattr(source, name)

        def wrapper(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for module in modules:
            for key in [k for k, v in vars(module).items() if v is orig]:
                monkeypatch.setattr(module, key, wrapper)
    return counts


@pytest.mark.parametrize("perturbed", [False, True])
def test_pair_pairs_once_per_module(perturbed, tmp_path, capsys, monkeypatch):
    # graded Hardy at m = 1: the pairing c(1) Tr(gamma rep(b)) is nonzero
    mod_path = str(tmp_path / "hg.json")
    logs_path = str(tmp_path / "logs.json")
    pert_path = str(tmp_path / "T.json")
    main(["make-model", "hardy-graded", "--N", "6", "-o", mod_path])
    main(["make-perturbation", "--module", mod_path, "--eps", "0.3", "--seed", "1",
          "-o", pert_path])
    x = 2 * np.pi * np.arange(6) / 6
    dump_json({"logs": [array_to_json(np.cos(x) + 0.5j * np.sin(2 * x))]}, logs_path)
    capsys.readouterr()
    counts = _count_calls(monkeypatch, "validate_module", "index_cocycle")
    argv = ["pair", "--module", mod_path, "--logs", logs_path]
    assert main(argv + (["--perturbation", pert_path] if perturbed else [])) == 0
    modules = 2 if perturbed else 1
    assert counts == {"validate_module": modules, "index_cocycle": modules}
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    representative = complex(*out["representative"])
    raw = complex(*out["raw_pairing"])
    assert abs(representative) > 0.1
    assert abs(raw * complex(c_constant(1)) - representative) <= 1e-12 * abs(representative)


@pytest.mark.parametrize("command", ["verify-invariance", "witness"])
def test_schatten_report_once_per_module(command, tmp_path, monkeypatch):
    mod_path = str(tmp_path / "refl.json")
    pert_path = str(tmp_path / "T.json")
    dump_json(module_to_json(random_reflection_module(6, upper_triangular_algebra(),
                                                      seed=2, m=2)), mod_path)
    main(["make-perturbation", "--module", mod_path, "--eps", "0.15", "--seed", "5",
          "-o", pert_path])
    counts = _count_calls(monkeypatch, "schatten_report", "validate_module", "perturb")
    assert main([command, "--module", mod_path, "--perturbation", pert_path]) == 0
    assert counts == {"schatten_report": 2, "validate_module": 2, "perturb": 2}
