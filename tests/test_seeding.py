import pytest

from oracles import make_rng
from rfflms.seeding import derive_seed


def test_derivation_is_deterministic():
    assert derive_seed(7, 0, "stream") == derive_seed(7, 0, "stream")
    assert make_rng(7, "x").standard_normal() == make_rng(7, "x").standard_normal()


def test_paths_are_independent():
    seeds = {
        derive_seed(7),
        derive_seed(7, 0),
        derive_seed(7, 1),
        derive_seed(7, 0, "stream"),
        derive_seed(7, 0, "bank"),
        derive_seed(8, 0, "stream"),
    }
    assert len(seeds) == 6


def test_string_labels_hash_stably():
    # pinned so that seeds survive interpreter restarts and platforms
    assert derive_seed(0, "stream") == derive_seed(0, "stream")
    assert derive_seed(0, "stream") != derive_seed(0, "bank")
    assert derive_seed(0, 1) != derive_seed(1, 0)


@pytest.mark.parametrize("a, b", [
    ((7,), (7, 0)),                   # a trailing zero is a token
    ((7, 2**32), (7, 0, 1)),          # a wide integer is one token
    ((0, 1), (1, 0)),
    ((7, 0), (7, "0")),               # integers and strings are tagged apart
    ((7, 2**64 - 1), (7, 2**32 - 1)),
])
def test_encoding_is_unambiguous(a, b):
    assert derive_seed(*a) != derive_seed(*b)


@pytest.mark.parametrize("path", [(7, -1), (2**64,), (2**64 + 7,)])
def test_out_of_range_integers_are_rejected(path):
    with pytest.raises(ValueError):
        derive_seed(*path)


@pytest.mark.parametrize("token", [1.5, None, b"run"])
def test_tokens_other_than_int_or_str_are_rejected(token):
    with pytest.raises(TypeError, match="seed tokens must be int or str"):
        derive_seed(7, token)
