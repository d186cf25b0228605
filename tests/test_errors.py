"""errors.check: the one shape check of outside JSON input.

A refusal names the path of the first part that does not fit, echoes
that part through errors.brief only, and is raised as the caller's
exception class.
"""

import pytest

from pairshot.errors import DataFormatError, check


@pytest.mark.parametrize(
    "value, shape",
    [
        ("a", str), (3, int), (3, float), (2.5, float), (True, bool), (None, type(None)),
        ([1, "a"], list), ({"k": 1}, dict), ([1, "a"], object), (None, int | None),
        (4, int | None), ([], [str]), (["a", "b"], [str]), (("a", "b"), [str]),
        (["a", 1.5], (str, float)), ({"k": 1}, {"k": int}), ({}, {"k?": int}),
        ({"k": 1, "other": []}, {"k": int}), ({"a": 1, "b": 2.5}, {str: float}),
    ],
)
def test_a_value_that_fits_passes(value, shape):
    check(value, shape, ValueError, "value")


@pytest.mark.parametrize(
    "value, shape, message",
    [
        (True, int, "value must be an integer, got True"),
        (2.5, int, "value must be an integer, got 2.5"),
        (True, float, "value must be a number, got True"),
        ("3", float, "value must be a number, got '3'"),
        ("abc", [str], "value must be a list, got 'abc'"),
        ("x", int | None, "value must be an integer or null, got 'x'"),
        (["a", 5], [str], "value: [1] must be a string, got 5"),
        (["a"], (str, str), "value must be a list of 2, got ['a']"),
        ([1, 2], {"k": int}, "value must be an object, got [1, 2]"),
        ({}, {"k": int}, "value: k is missing"),
        ({"k": None}, {"k?": int}, "value: k must be an integer, got None"),
        ({"a": [{"b": [1, "x"]}]}, {"a": [{"b": [int]}]},
         "value: a[0].b[1] must be an integer, got 'x'"),
        ({"ok": 1, "bad": "1"}, {str: float}, "value: ['bad'] must be a number, got '1'"),
    ],
)
def test_a_misfit_is_named_by_its_path(value, shape, message):
    with pytest.raises(ValueError) as info:
        check(value, shape, ValueError, "value")
    assert str(info.value) == message


def test_the_refusal_has_the_callers_class_and_name():
    with pytest.raises(DataFormatError, match="^manifest: kind must be a string, got 7$"):
        check({"kind": 7}, {"kind": str}, DataFormatError, "manifest")


def test_a_closed_object_refuses_a_key_its_shape_does_not_name():
    check({"a": 1}, {"a?": int, "b?": int}, ValueError, "options", closed=True)
    with pytest.raises(ValueError, match="^options takes no key 'c'$"):
        check({"a": 1, "c": 2}, {"a?": int, "b?": int}, ValueError, "options", closed=True)


@pytest.mark.parametrize(
    "value, shape",
    [
        ("x" * 100_000, int),
        ({"k" * 100_000: 1}, {"a?": int}),
        ({"k" * 100_000: "x"}, {str: float}),
        ([["x" * 100_000]], [(str, str)]),
    ],
)
def test_a_huge_refused_value_or_key_is_echoed_in_part(value, shape):
    with pytest.raises(ValueError) as info:
        check(value, shape, ValueError, "value", closed=True)
    message = str(info.value)
    assert len(message) < 120 and "..." in message
