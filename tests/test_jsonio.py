"""Round trips for every JSON wire format."""

import json
import math
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from padicqm import PVector, affine_certificate, basis_vector, classify, identity, make_sovm, rank_one
from padicqm.errors import ParseError, SumNotIdentity
from padicqm.jsonio import (
    classification_to_dict,
    dumps,
    operator_from_dict,
    operator_to_dict,
    padic_from_dict,
    padic_to_dict,
    quadext_from_dict,
    quadext_to_dict,
    sovm_from_dict,
    sovm_to_dict,
    vector_from_dict,
    vector_to_dict,
)
from padicqm.operators import GeneratorOperator

E35 = helpers.ext_ctx(3, 5, 8)
B3 = E35.base


def test_padic_round_trip():
    rng = random.Random(61)
    for _ in range(50):
        x = helpers.rand_padic(rng, B3, -3, 3)
        assert padic_from_dict(padic_to_dict(x)) == x
    z = B3.zero()
    data = padic_to_dict(z)
    assert data["valuation"] is None
    assert "digits" not in data
    assert padic_from_dict(data).is_zero


def test_an_inexact_zero_carries_its_absolute_precision_on_the_wire():
    # O(3^2): a null valuation, no digits, and "absolute" as a JSON integer;
    # an exact zero writes no "absolute"
    o = B3.from_digits(0, [1, 2]) - B3.from_digits(0, [1, 2])
    data = padic_to_dict(o)
    assert data == {"p": 3, "precision": 8, "valuation": None, "absolute": 2}
    back = padic_from_dict(json.loads(dumps(data)))
    assert (back.valuation, back.prec, back.absolute) == (None, 0, 2)
    assert "absolute" not in padic_to_dict(B3.zero())
    z = helpers.rand_quad(random.Random(63), E35)
    assert quadext_to_dict(quadext_from_dict(quadext_to_dict(z.scale_base(o)), E35))["sc"]["absolute"] == 2 + z.sc.valuation


@pytest.mark.parametrize("value", [True, 2.0, "2", [2]])
def test_an_absolute_precision_that_is_not_a_json_integer_is_a_parse_error_naming_it(value):
    with pytest.raises(ParseError, match="absolute"):
        padic_from_dict({"p": 3, "precision": 8, "valuation": None, "absolute": value})


def test_padic_partial_precision_round_trip():
    x = B3.from_digits(2, [1, 2, 0])
    back = padic_from_dict(padic_to_dict(x))
    assert back.prec == 3 and back == x


def test_quadext_round_trip():
    rng = random.Random(62)
    for _ in range(30):
        z = helpers.rand_quad(rng, E35)
        assert quadext_from_dict(quadext_to_dict(z), E35) == z


def test_vector_round_trip():
    rng = random.Random(63)
    v = helpers.rand_vector(rng, E35, 5)
    assert vector_from_dict(vector_to_dict(v), E35) == v


def test_block_operator_round_trip():
    rng = random.Random(64)
    a = helpers.rand_block(rng, E35, 4)
    back = operator_from_dict(operator_to_dict(a))
    assert back == a
    assert back.context.is_isomorphic_to(a.context)


def test_generator_operator_round_trip():
    def entry(m, n):
        return E35.from_base(B3.from_int(3 ** (m + n)))

    g = GeneratorOperator(helpers.window(E35, 3, entry), affine_certificate(0, 1, 1))
    back = operator_from_dict(operator_to_dict(g))
    assert isinstance(back, GeneratorOperator)
    assert back.window == 3
    assert back.entry(2, 3) == g.entry(2, 3)
    assert classify(back).trace_class.holds


@pytest.mark.parametrize(
    "cert",
    [
        affine_certificate(0, 1, 1),
        affine_certificate(Fraction(-1, 2), Fraction(1, 2), 2),
        affine_certificate(1, 0, 1, diagonal_only=True),
    ],
    ids=["integral", "rational", "diagonal"],
)
def test_generator_round_trip_keeps_the_certificate(cert):
    def entry(m, n):
        if cert.bound(m, n) is None:
            return E35.zero()
        return E35.from_base(B3.from_fraction(Fraction(3) ** math.ceil(cert.bound(m, n))))

    g = GeneratorOperator(helpers.window(E35, 3, entry), cert)
    data = json.loads(json.dumps(operator_to_dict(g)))
    back = operator_from_dict(data)
    assert back.certificate == cert
    assert back.block == g.block
    assert classify(back) == classify(g)


def test_generator_window_must_match_the_entry_grid():
    data = operator_to_dict(GeneratorOperator(identity(E35, 2), affine_certificate(0, 0, 0)))
    data["window"] = 3
    with pytest.raises(ParseError, match="window does not match"):
        operator_from_dict(data)


@pytest.mark.parametrize(
    "field, value", [("base", "-7"), ("row_coeff", 7), ("col_coeff", "+3/4"), ("row_coeff", "0/5")]
)
def test_decay_fields_read_ints_and_fractions(field, value):
    data = operator_to_dict(GeneratorOperator(identity(E35, 2), affine_certificate(-100, 0, 0)))
    data["decay"][field] = value
    assert getattr(operator_from_dict(data).certificate, field) == Fraction(value)


@pytest.mark.parametrize(
    "value", [True, 0.5, "1.5", "1e3", "-1e1000000", " 1", "1/0", "1/-2", "", None, [1], "\uff11"]
)
def test_a_decay_field_that_is_not_a_rational_is_a_parse_error_naming_it(value):
    data = operator_to_dict(GeneratorOperator(identity(E35, 2), affine_certificate(0, 0, 0)))
    data["decay"]["col_coeff"] = value
    with pytest.raises(ParseError, match=r"decay\.col_coeff .* is not a rational"):
        operator_from_dict(data)


def test_classification_report_shape():
    report = classification_to_dict(classify(rank_one(basis_vector(E35, 1), basis_vector(E35, 2), 2)))
    assert report["self_adjoint"] == {
        "holds": False,
        "verdict": "refuted",
        "witness": "entry (1,2)",
    }
    assert report["trace_class"]["holds"]


def test_sovm_round_trip():
    pvm = make_sovm([rank_one(basis_vector(E35, i), basis_vector(E35, i), 3) for i in (1, 2, 3)])
    back = sovm_from_dict(sovm_to_dict(pvm))
    assert back.dim == 3
    assert all(a == b for a, b in zip(back.effects, pvm.effects))


def test_parse_errors():
    with pytest.raises(ParseError):
        padic_from_dict({"p": 3})
    with pytest.raises(ParseError):
        operator_from_dict({"kind": "mystery", "context": {"p": 3, "precision": 5, "mu": padic_to_dict(B3.from_int(5))}})
    with pytest.raises(ParseError):
        vector_from_dict({"entries": {"0": 1}}, E35)


def test_a_scalar_declaring_a_precision_past_the_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="precision must be between"):
        padic_from_dict({"p": 3, "precision": 10**8, "valuation": 0, "digits": [1]})


# -- declared fields must match the context -----------------------------------


def _q35_block_dict():
    return operator_to_dict(helpers.rand_block(random.Random(65), E35, 2))


def test_a_scalar_of_another_prime_is_refused_with_its_entry():
    data = _q35_block_dict()
    data["entries"][0][1]["sc"].update(p=5, precision=9)
    with pytest.raises(ParseError, match=r"entry \(1,2\): scalar declares \(p, precision\) = \(5, 9\)"):
        operator_from_dict(data)


def test_an_element_of_another_mu_is_refused_with_its_entry():
    data = _q35_block_dict()
    data["entries"][1][0]["mu"] = padic_to_dict(helpers.base_ctx(5, 8).from_int(2))
    with pytest.raises(ParseError, match=r"entry \(2,1\)"):
        operator_from_dict(data)
    data["entries"][1][0]["mu"] = padic_to_dict(B3.from_int(7))
    with pytest.raises(ParseError, match=r"entry \(2,1\): element declares a mu"):
        operator_from_dict(data)


def test_omitted_fields_and_a_null_mu_are_read_in_the_context():
    a = helpers.rand_block(random.Random(66), E35, 2)
    data = operator_to_dict(a)
    data["entries"][0][0]["mu"] = None
    del data["entries"][0][1]["mu"]
    for key in ("p", "precision"):
        del data["entries"][1][0]["sc"][key]
        del data["entries"][1][1]["ac"][key]
    assert operator_from_dict(data) == a


# -- integer fields are JSON integers -------------------------------------------


@pytest.mark.parametrize("value", ["3", 3.0, True, None, [3]])
@pytest.mark.parametrize("field", ["p", "precision"])
def test_a_scalar_field_that_is_not_a_json_integer_is_a_parse_error_naming_it(field, value):
    data = _q35_block_dict()
    data["entries"][0][1]["sc"][field] = value
    with pytest.raises(ParseError, match=rf"entry \(1,2\): .*{field} .* is not an integer"):
        operator_from_dict(data)
    standalone = padic_to_dict(B3.from_int(7))
    standalone[field] = value
    with pytest.raises(ParseError, match=rf"{field} .* is not an integer"):
        padic_from_dict(standalone)


@pytest.mark.parametrize("value", ["0", 0.0, False, 1.5])
def test_a_valuation_that_is_not_a_json_integer_is_a_parse_error_naming_it(value):
    data = padic_to_dict(B3.from_int(7))
    data["valuation"] = value
    with pytest.raises(ParseError, match="valuation .* is not an integer"):
        padic_from_dict(data, B3)


@pytest.mark.parametrize("digit", [1.7, 1.0, "1", True, None])
def test_a_digit_that_is_not_a_json_integer_is_a_parse_error_naming_it(digit):
    data = padic_to_dict(B3.from_int(7))
    data["digits"][1] = digit
    with pytest.raises(ParseError, match=r"digit .* is not an integer in \[0, 3\)"):
        padic_from_dict(data, B3)
    data["digits"] = "121"
    with pytest.raises(ParseError, match="digits '121' is not a list"):
        padic_from_dict(data, B3)


@pytest.mark.parametrize("field", ["p", "precision"])
def test_a_context_field_that_is_not_a_json_integer_is_a_parse_error_naming_it(field):
    data = _q35_block_dict()
    data["context"][field] = str(data["context"][field])
    with pytest.raises(ParseError, match=rf"^{field} '[0-9]+' is not an integer"):
        operator_from_dict(data)


@pytest.mark.parametrize("value", ["2", 2.0, True])
def test_a_dim_or_window_that_is_not_a_json_integer_is_a_parse_error_naming_it(value):
    data = _q35_block_dict()
    data["dim"] = value
    with pytest.raises(ParseError, match="dim .* is not an integer"):
        operator_from_dict(data)
    data = operator_to_dict(GeneratorOperator(identity(E35, 2), affine_certificate(0, 0, 0)))
    data["window"] = value
    with pytest.raises(ParseError, match="window .* is not an integer"):
        operator_from_dict(data)


def test_a_vector_entry_of_another_prime_is_refused_with_its_index():
    data = vector_to_dict(helpers.rand_vector(random.Random(67), E35, 3))
    data["entries"]["3"]["ac"]["p"] = 7
    with pytest.raises(ParseError, match=r"entry \(3\)"):
        vector_from_dict(data, E35)


@pytest.mark.parametrize("key", [" 1", "1 ", "1_0", "+2", "-1", "\u0661", "01", "0", "", "1.0"])
def test_a_vector_index_key_not_as_written_is_a_parse_error_naming_it(key):
    # only ASCII digits with no sign and no leading zero, the form
    # vector_to_dict writes; int() would read " 1", "+2" and "\u0661" as 1 or 2
    z = quadext_to_dict(E35.one())
    with pytest.raises(ParseError, match=re.escape(f"index {key!r} is not")):
        vector_from_dict({"entries": {key: z}}, E35)


def test_two_keys_of_one_index_are_refused_not_merged():
    one, two = quadext_to_dict(E35.one()), quadext_to_dict(E35.from_ints(2, 0))
    with pytest.raises(ParseError, match="index '01'"):
        vector_from_dict({"entries": {"1": one, "01": two}}, E35)


def test_written_index_keys_read_back_as_their_indices():
    v = PVector(E35, {1: E35.one(), 10: E35.sqrt_mu(), 123: E35.from_ints(2, 1)})
    data = vector_to_dict(v)
    assert list(data["entries"]) == ["1", "10", "123"]
    assert vector_from_dict(json.loads(json.dumps(data)), E35) == v


@st.composite
def _one_field_changed(draw):
    """An operator dict with one entry's p, precision or mu changed away from
    the context's, and that entry's (m, n)."""
    dim = draw(st.integers(1, 3))
    data = operator_to_dict(helpers.rand_block(random.Random(draw(st.integers(0, 2**16))), E35, dim))
    m, n = draw(st.integers(1, dim)), draw(st.integers(1, dim))
    entry = data["entries"][m - 1][n - 1]
    field = draw(st.sampled_from(["p", "precision", "mu"]))
    if field == "mu":
        other = draw(st.sampled_from([(3, 2), (3, 7), (3, 45), (5, 2), (7, 3)]))
        entry["mu"] = padic_to_dict(helpers.base_ctx(other[0], 8).from_int(other[1]))
    else:
        scalar = entry[draw(st.sampled_from(["sc", "ac"]))]
        scalar[field] = draw(st.integers(2, 40).filter(lambda k: k != scalar[field]))
    return data, m, n


@given(_one_field_changed())
def test_changing_one_entry_field_raises_parse_error(case):
    data, m, n = case
    with pytest.raises(ParseError, match=rf"entry \({m},{n}\)"):
        operator_from_dict(data)


# -- one parse boundary --------------------------------------------------------


@pytest.mark.parametrize("data", [{"effects": 5}, [1], {"effects": [None]}])
def test_a_malformed_sovm_is_a_parse_error(data):
    with pytest.raises(ParseError, match="^bad (SOVM|operator): "):
        sovm_from_dict(data)


def test_an_sovm_that_parses_keeps_its_validation_error():
    data = sovm_to_dict(make_sovm([identity(E35, 2)]))
    data["effects"].append(data["effects"][0])
    with pytest.raises(SumNotIdentity):
        sovm_from_dict(data)


# -- the emitter -----------------------------------------------------------------

# Strings that need escaping: quotes, backslashes, control characters,
# non-ASCII and lone surrogates, alone and inside drawn text.
_ESCAPES = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u2028", "\ud800", "\udfff", "\U0001f600"]
_strings = st.sampled_from(_ESCAPES) | st.text(
    st.characters(exclude_categories=()) | st.sampled_from(_ESCAPES), max_size=8
)
_ints = st.integers() | st.integers(-(2**200), 2**200)  # small, negative and multi-word
_scalars = st.none() | st.booleans() | _ints | _strings
_payloads = st.recursive(
    _scalars | st.lists(_ints | st.booleans(), max_size=6),  # int lists, with bools mixed in
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_strings, inner, max_size=4)
    ),
    max_leaves=20,
)


@given(_payloads)
def test_dumps_writes_the_bytes_of_the_indented_sorted_encoder(payload):
    assert dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "payload",
    [1.5, {1, 2}, {1: 2}, {"a": [0, 2.0]}, {"a": 1, None: 2}],
    ids=["float", "set", "int-key", "nested-float", "none-key"],
)
def test_dumps_refuses_what_it_does_not_encode(payload):
    with pytest.raises(TypeError):
        dumps(payload)


# -- a malformed entry is refused with the message it had ----------------------
#
# Each case changes one coordinate of entry (1, 2) of an operator, and of
# entry 2 of a vector, from 0 + [1, 2]; the text is the ParseError the
# element parse gave before the block parse read digits straight into
# triples.  None is a parse that succeeds: "absolute" beside digits is
# ignored, as it was.

_DROP = object()
_MALFORMED = {
    "bool digit": ({"digits": [1, True]}, "bad p-adic number: digit True is not an integer in [0, 3)"),
    "float digit": ({"digits": [1, 2.0]}, "bad p-adic number: digit 2.0 is not an integer in [0, 3)"),
    "digit p": ({"digits": [1, 3]}, "bad p-adic number: digit 3 is not an integer in [0, 3)"),
    "negative digit": ({"digits": [1, -1]}, "bad p-adic number: digit -1 is not an integer in [0, 3)"),
    "leading zero": ({"digits": [0, 1]}, "bad p-adic number: unit must have a nonzero first digit"),
    "no digit": ({"digits": []}, "bad p-adic number: need between 1 and `precision` digits"),
    "past the precision": ({"digits": [1] * 9}, "bad p-adic number: need between 1 and `precision` digits"),
    "digits not a list": ({"digits": "12"}, "digits '12' is not a list"),
    "float valuation": ({"valuation": 1.5}, "valuation 1.5 is not an integer"),
    "bool valuation": ({"valuation": True}, "valuation True is not an integer"),
    "absolute not an int": ({"valuation": None, "absolute": 2.0}, "absolute 2.0 is not an integer"),
    "no valuation": ({"valuation": _DROP}, "bad p-adic number: 'valuation'"),
    "no digits": ({"digits": _DROP}, "bad p-adic number: 'digits'"),
    "another p": ({"p": 5}, "scalar declares (p, precision) = (5, 8) in a context of (3, 8)"),
    "absolute beside digits": ({"absolute": 2}, None),
}


def _outcome(parse):
    try:
        return parse()
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("coord", ["sc", "ac"])
@pytest.mark.parametrize("case", list(_MALFORMED))
def test_a_malformed_entry_is_refused_with_the_message_it_had(case, coord):
    change, message = _MALFORMED[case]
    data = operator_to_dict(identity(E35, 2).scale(E35.from_ints(1, 1)))
    scalar = data["entries"][0][1][coord]
    scalar.update({"valuation": 0, "digits": [1, 2]})
    for key, value in change.items():
        if value is _DROP:
            del scalar[key]
        else:
            scalar[key] = value
    vector = {"entries": {"2": data["entries"][0][1]}}
    got = _outcome(lambda: operator_from_dict(data)), _outcome(lambda: vector_from_dict(vector, E35))
    if message is not None:
        assert got == (f"entry (1,2): {message}", f"entry (2): {message}")
        return
    z = replace(E35.zero(), **{coord: B3.from_digits(0, [1, 2])})
    assert got[0].entry(1, 2) == z and got[1] == PVector(E35, {2: z})


@pytest.mark.parametrize(
    "mu, message",
    [
        (padic_to_dict(helpers.base_ctx(3, 8).from_int(2)), "element declares a mu other than the context's"),
        ({"p": 3}, "bad p-adic number: 'valuation'"),
    ],
    ids=["another mu", "malformed mu"],
)
def test_an_entry_declaring_another_mu_is_refused_with_the_message_it_had(mu, message):
    data = operator_to_dict(identity(E35, 2))
    data["entries"][1][0]["mu"] = mu
    assert _outcome(lambda: operator_from_dict(data)) == f"entry (2,1): {message}"


def test_a_malformed_grid_is_refused_with_the_message_it_had():
    data = operator_to_dict(identity(E35, 2))
    data["entries"][1][0] = {"mu": None, "sc": data["entries"][1][0]["sc"]}
    assert _outcome(lambda: operator_from_dict(data)) == "entry (2,1): bad extension element: 'ac'"
    data["entries"][1][0] = 5
    assert _outcome(lambda: operator_from_dict(data)) == "entry (2,1): bad extension element: 'int' object is not subscriptable"
    data["entries"][1] = [data["entries"][0][0]]
    assert _outcome(lambda: operator_from_dict(data)) == "bad operator: block must be square"
