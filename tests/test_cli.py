"""CLI behavior: JSON reports, exit codes, determinism."""

import json
from fractions import Fraction
from time import perf_counter

import pytest

import helpers
from padicqm import (
    BlockOperator,
    ExtensionContext,
    GeneratorOperator,
    PadicContext,
    QuadExtElement,
    affine_certificate,
    basis_vector,
    build_norm_inflating_ip_preserver,
    diagonal,
    identity,
    make_sovm,
    make_statistical,
    rank_one,
)
from padicqm import cli, hilbert, quadext
from padicqm.cli import main
from padicqm.jsonio import operator_to_dict, padic_from_dict, sovm_to_dict

E35 = helpers.ext_ctx(3, 5, 8)
B3 = E35.base


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_report(capsys):
    code, out, _ = run(capsys, "field", "--p", "3", "--mu", "5")
    assert code == 0
    data = json.loads(out)
    assert data["square_class_name"] == "eta"
    assert data["ramified"] is False
    assert data["isotropy_index"] == 2
    assert data["extension_count"] == 3
    assert data["isotropic_witness"] is not None


def test_field_searches_for_its_isotropic_witness_once(capsys, monkeypatch):
    # the isotropy index is the support of the witness, which is minimal
    calls, find = [], hilbert.find_isotropic
    monkeypatch.setattr(hilbert, "find_isotropic", lambda *a: calls.append(a) or find(*a))
    for p, mu, index in ((3, 5, 2), (3, 3, 3), (2, 7, 3)):
        code, out, _ = run(capsys, "field", "--p", str(p), "--mu", str(mu))
        data = json.loads(out)
        assert code == 0 and data["isotropy_index"] == index
        assert len(data["isotropic_witness"]["entries"]) == index
    assert len(calls) == 3


def test_field_unramified_two_adic(capsys):
    code, out, _ = run(capsys, "field", "--p", "2", "--mu", "5")
    data = json.loads(out)
    assert code == 0 and data["ramified"] is False


def test_field_refuses_a_precision_past_the_limit(capsys):
    code, out, err = run(capsys, "field", "--p", "3", "--mu", "2", "--precision", "10000000")
    assert code == 2 and out == ""
    assert "precision must be between" in err


def test_field_rejects_square_mu(capsys):
    code, _, err = run(capsys, "field", "--p", "2", "--mu", "4")
    assert code == 2
    assert "mu_is_square" in err


def test_field_rejects_bad_prime(capsys):
    code, _, err = run(capsys, "field", "--p", "9", "--mu", "5")
    assert code == 2
    assert "invalid_prime" in err


def test_sqrt_golden(capsys):
    code, out, _ = run(capsys, "sqrt", "--p", "3", "7")
    data = json.loads(out)
    assert code == 0
    assert data["root"]["digits"] == [1, 1, 1, 0, 2]
    assert data["companion"]["digits"] == [2, 1, 1, 2, 0]


def test_sqrt_of_a_negative_fraction_follows_the_double_dash(capsys):
    # argparse reads "-3/4" as an option, so a negative value follows "--"
    code, out, _ = run(capsys, "sqrt", "--p", "7", "--", "-3/4")
    root = padic_from_dict(json.loads(out)["root"])
    assert code == 0 and root * root == PadicContext(7, 5).from_fraction(Fraction(-3, 4))


def test_sqrt_non_square_fails(capsys):
    code, _, err = run(capsys, "sqrt", "--p", "3", "5")
    assert code == 2 and "not_a_square" in err


def test_classify_identity(tmp_path, capsys):
    path = tmp_path / "id.json"
    path.write_text(json.dumps(operator_to_dict(identity(E35, 3))))
    code, out, _ = run(capsys, "classify", str(path))
    data = json.loads(out)
    assert code == 0
    assert all(
        data["classification"][flag]["holds"]
        for flag in ("bounded", "adjointable", "self_adjoint", "compact", "trace_class")
    )


def test_classify_generator_certificate(tmp_path, capsys):
    gen = {
        "kind": "generator",
        "context": {"p": 3, "precision": 8, "mu": {"p": 3, "precision": 8, "valuation": 0, "digits": [2, 1, 0, 0, 0, 0, 0, 0]}},
        "window": 2,
        "entries": [
            [
                {"mu": None, "sc": {"p": 3, "precision": 8, "valuation": m + n, "digits": [1]}, "ac": {"p": 3, "precision": 8, "valuation": None}}
                for n in (1, 2)
            ]
            for m in (1, 2)
        ],
        "decay": {"base": 0, "row_coeff": 1, "col_coeff": 1},
    }
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(gen))
    code, out, _ = run(capsys, "classify", str(path))
    data = json.loads(out)
    assert code == 0
    assert data["classification"]["trace_class"] == {
        "holds": True,
        "verdict": "certified_by_decay",
        "witness": "total decay",
    }


def test_classify_multiple_files(tmp_path, capsys):
    paths = []
    for k in (2, 3):
        p = tmp_path / f"op{k}.json"
        p.write_text(json.dumps(operator_to_dict(identity(E35, k))))
        paths.append(str(p))
    code, out, _ = run(capsys, "classify", *paths)
    data = json.loads(out)
    assert code == 0 and len(data) == 2


def test_trace_rank_one_unit(tmp_path, capsys):
    op = rank_one(basis_vector(E35, 2), basis_vector(E35, 2), 3)
    path = tmp_path / "proj.json"
    path.write_text(json.dumps(operator_to_dict(op)))
    code, out, _ = run(capsys, "trace", str(path))
    data = json.loads(out)
    assert code == 0
    assert data["trace"]["sc"]["digits"][0] == 1
    assert data["trace"]["sc"]["valuation"] == 0
    assert data["trace"]["ac"]["valuation"] is None


def test_decompose_zero_is_empty(tmp_path, capsys):
    from padicqm import zero_operator

    path = tmp_path / "zero.json"
    path.write_text(json.dumps(operator_to_dict(zero_operator(E35, 3))))
    code, out, _ = run(capsys, "decompose", str(path))
    data = json.loads(out)
    assert code == 0 and data["canonical"] == []


def test_decompose_symmetric(tmp_path, capsys):
    op = rank_one(basis_vector(E35, 1), basis_vector(E35, 1), 2)
    path = tmp_path / "sa.json"
    path.write_text(json.dumps(operator_to_dict(op)))
    code, out, _ = run(capsys, "decompose", str(path), "--symmetric")
    data = json.loads(out)
    assert code == 0 and len(data["symmetric"]) == 1


def test_unitary_check_counterexample(tmp_path, capsys):
    op = build_norm_inflating_ip_preserver(E35, 1)
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(operator_to_dict(op)))
    code, out, _ = run(capsys, "unitary-check", str(path))
    data = json.loads(out)
    assert code == 0
    assert data["unitary"] is False
    assert data["ip_preserving"] is True
    assert data["norm"]["display"] == "3^1"


def test_unitary_check_rejects_generator(tmp_path, capsys):
    op = GeneratorOperator(identity(E35, 2), affine_certificate(0, 0, 0))
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(operator_to_dict(op)))
    code, out, err = run(capsys, "unitary-check", str(path))
    assert code == 2 and out == ""
    assert "not_block_finite" in err


def _pair_files(tmp_path):
    state = make_statistical(diagonal(E35, [E35.from_base(w) for w in helpers.simplex_weights(B3, 3)]))
    pvm = make_sovm([rank_one(basis_vector(E35, i), basis_vector(E35, i), 3) for i in (1, 2, 3)])
    (tmp_path / "sovm.json").write_text(json.dumps(sovm_to_dict(pvm)))
    (tmp_path / "state.json").write_text(json.dumps(operator_to_dict(state.op)))
    return [str(tmp_path / "sovm.json"), str(tmp_path / "state.json")]


def test_pair_command(tmp_path, capsys):
    code, out, _ = run(capsys, "pair", *_pair_files(tmp_path))
    data = json.loads(out)
    assert code == 0
    assert data["distribution"]["in_simplex"] is True
    assert data["density"] is True and data["contractive"] is True
    got = [w["digits"][0] if w["valuation"] is not None else 0 for w in data["distribution"]["weights"]]
    assert len(got) == 3


def test_counterexample_command(capsys):
    code, out, _ = run(capsys, "counterexample", "--p", "3", "--mu", "5", "--K", "1")
    data = json.loads(out)
    assert code == 0
    assert data["ip_preserving"] is True and data["unitary"] is False
    assert sum(x * x for x in data["solution"]) == 9


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "field", "--p", "3", "--mu", "5")
    _, second, _ = run(capsys, "field", "--p", "3", "--mu", "5")
    assert first == second


def test_parse_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 3 and "parse error" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "sqrt", "--p", "7", "--out", str(target), "2")
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert data["root"]["digits"] == [3, 1, 2, 6, 1]


def _symmetric_file(tmp_path):
    op = rank_one(basis_vector(E35, 1), basis_vector(E35, 2), 2) + rank_one(
        basis_vector(E35, 2), basis_vector(E35, 1), 2
    )
    (tmp_path / "sa.json").write_text(json.dumps(operator_to_dict(op)))
    return ["--symmetric", str(tmp_path / "sa.json")]


@pytest.mark.parametrize(
    "command, files",
    [
        ("decompose", _symmetric_file),
        ("counterexample", lambda _: ["--p", "3", "--mu", "5", "--K", "2"]),
        ("field", lambda _: ["--p", "3", "--mu", "5"]),
        ("pair", _pair_files),
        ("sqrt", lambda _: ["--p", "7", "2/9"]),
    ],
    ids=["decompose", "counterexample", "field", "pair", "sqrt"],
)
def test_stdout_and_out_file_are_the_bytes_of_the_indented_sorted_encoder(
    tmp_path, capsys, command, files
):
    argv = [command, *files(tmp_path)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    target = tmp_path / "report.json"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()


def test_cli_round_trips_its_own_output(tmp_path, capsys):
    from padicqm.jsonio import operator_from_dict

    code, out, _ = run(capsys, "counterexample", "--p", "3", "--mu", "5", "--K", "1")
    data = json.loads(out)
    op = operator_from_dict(data["operator"])
    assert op.dim == 4


@pytest.mark.parametrize("p, mu", [(3, 5), (2, 3)], ids=["p3", "p2"])
def test_unitary_check_of_identity_sums_half_gram_matrices(tmp_path, capsys, monkeypatch, p, mu):
    # U* U and U U* of the 4x4 identity on packed row sums, with no block
    # product, no element product and no term-by-term sum: for every p the
    # entries m <= n of each (two 10-entry triangles)
    path = tmp_path / "id.json"
    path.write_text(json.dumps(operator_to_dict(identity(helpers.ext_ctx(p, mu, 8), 4))))
    calls = {"block": 0, "element": 0, "dot": 0, "entry": 0}

    def counting(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(BlockOperator, "__mul__", counting("block", BlockOperator.__mul__))
    monkeypatch.setattr(QuadExtElement, "__mul__", counting("element", QuadExtElement.__mul__))
    monkeypatch.setattr(quadext, "_dot", counting("dot", quadext._dot))
    monkeypatch.setattr(quadext, "_matches_id", counting("entry", quadext._matches_id))
    code, out, _ = run(capsys, "unitary-check", str(path))
    data = json.loads(out)
    assert code == 0 and data["unitary"] is True and data["ip_preserving"] is True
    assert calls == {"block": 0, "element": 0, "dot": 0, "entry": 10 + 10}


# -- one parser per process ------------------------------------------------------


def test_reused_parser_does_not_carry_flags_between_calls(tmp_path, capsys):
    op = rank_one(basis_vector(E35, 1), basis_vector(E35, 1), 2)
    path = tmp_path / "sa.json"
    path.write_text(json.dumps(operator_to_dict(op)))
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "decompose", "--symmetric", "--out", str(target), str(path))
    assert code == 0 and out == "" and "symmetric" in json.loads(target.read_text())
    target.unlink()
    code, out, _ = run(capsys, "decompose", str(path))
    assert code == 0 and "symmetric" not in json.loads(out)
    assert not target.exists()


def test_usage_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err
    code, out, _ = run(capsys, "sqrt", "--p", "7", "2")
    assert code == 0 and json.loads(out)["root"]["digits"] == [3, 1, 2, 6, 1]


def test_parser_is_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    for argv in (["sqrt", "--p", "7", "2"], ["field", "--p", "3", "--mu", "5"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser.cache_info().misses == 1


def test_handler_rebound_after_the_parser_was_built_is_the_one_run(capsys, monkeypatch):
    assert run(capsys, "sqrt", "--p", "7", "2")[0] == 0
    monkeypatch.setattr(cli, "cmd_sqrt", lambda args: {"rebound": args.value})
    code, out, _ = run(capsys, "sqrt", "--p", "7", "2")
    assert code == 0 and json.loads(out) == {"rebound": "2"}


# -- typed exits on outside input --------------------------------------------------


@pytest.mark.parametrize("value", ["abc", "1/0", "1e10000000", "1.5"])
def test_sqrt_of_a_value_that_is_not_a_rational_is_a_parse_error(capsys, value):
    t0 = perf_counter()
    code, out, err = run(capsys, "sqrt", "--p", "3", value)
    assert perf_counter() - t0 < 1  # refused before 10**10**7 is built
    assert code == 3 and out == ""
    assert f"value {value!r} is not a rational" in err


def test_classify_of_a_decay_base_that_is_not_a_rational_is_a_parse_error(tmp_path, capsys):
    data = operator_to_dict(GeneratorOperator(identity(E35, 2), affine_certificate(0, 0, 0)))
    data["decay"]["base"] = "-1e1000000"
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(data))
    t0 = perf_counter()
    code, out, err = run(capsys, "classify", str(path))
    assert perf_counter() - t0 < 1  # refused before 10**10**6 is built
    assert code == 3 and out == ""
    assert "decay.base '-1e1000000' is not a rational" in err


@pytest.mark.parametrize("sovm", [{"effects": 5}, [1]], ids=["effects-int", "list"])
def test_pair_on_a_malformed_sovm_file_is_a_parse_error(tmp_path, capsys, sovm):
    state = make_statistical(diagonal(E35, [E35.one()]))
    sovm_path, state_path = tmp_path / "sovm.json", tmp_path / "state.json"
    sovm_path.write_text(json.dumps(sovm))
    state_path.write_text(json.dumps(operator_to_dict(state.op)))
    code, out, err = run(capsys, "pair", str(sovm_path), str(state_path))
    assert code == 3 and out == ""
    assert "parse error: bad SOVM" in err


@pytest.mark.parametrize("command", ["classify", "decompose", "unitary-check"])
def test_a_block_whose_norm_form_cancels_to_zero_exits_typed(tmp_path, capsys, command):
    base = PadicContext(2, 5)
    ctx = ExtensionContext(base, base.from_int(5))
    z = QuadExtElement(ctx, base.from_digits(-1, [1, 0]), base.from_digits(-1, [1, 1]))
    path = tmp_path / "z.json"
    path.write_text(json.dumps(operator_to_dict(BlockOperator(ctx, [[z]]))))
    code, out, _ = run(capsys, command, str(path))
    assert code in (0, 2)
    assert (code == 0) == (out != "")
