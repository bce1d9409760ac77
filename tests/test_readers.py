"""Text readers on malformed input: each returns or raises a ValueError
subclass, never a MemoryError, an OverflowError or a hang."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amegraph import gfp
from amegraph.codes import parse_code
from amegraph.composite import parse_manifest
from amegraph.graph import parse_graph

# small and huge integers (past int64, and primes past the exact int64
# bound), negatives, words of the formats, non-integers and comments
TOKENS = ["0", "1", "2", "3", "5", "7", "-1", "65537", "1000000000000000003",
          "99999999999999999999", "-99999999999999999999", "factor", "groupsize",
          "x.graph", "1.5", "p", "#"]
LINES = st.lists(st.sampled_from(TOKENS), max_size=7).map(" ".join)
SOUP = st.lists(LINES, max_size=6).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(SOUP)
def test_readers_take_token_soup(text):
    for reader in (parse_graph, parse_code):
        try:
            reader(text)
        except ValueError:
            pass


@settings(max_examples=100, deadline=None)
@given(SOUP)
def test_manifest_reader_takes_token_soup(tmp_path_factory, text):
    try:
        parse_manifest(text, tmp_path_factory.mktemp("empty"))
    except (ValueError, OSError):  # no listed file exists in an empty directory
        pass


@pytest.mark.parametrize("p", [1000000000000000003, 3037000507])
def test_ensure_prime_refuses_inexact_p_before_trial_division(p):
    # both are prime; trial division of the first takes about 10^9 steps
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large for exact int64"):
        gfp.ensure_prime(p)
    assert time.perf_counter() - start < 1.0
    assert gfp.ensure_prime(3037000493) == 3037000493  # (p - 1)^2 < 2^63 still holds


@pytest.mark.parametrize("reader, text", [
    (parse_code, "2 1 1\n99999999999999999999\n"),
])
def test_entries_past_int64_are_reduced_mod_p(reader, text):
    big = reader(text)
    assert big == reader(text.replace("99999999999999999999", str(99999999999999999999 % 2)))


@pytest.mark.parametrize("reader, text", [
    (parse_graph, "1000000000000000003 2\n1 2 99999999999999999999\n"),
])
def test_graph_readers_refuse_huge_p_and_weight(reader, text):
    with pytest.raises(ValueError, match="too large for exact int64"):
        reader(text)
