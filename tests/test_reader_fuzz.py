"""The readers refuse spoiled documents with ParseError and nothing else.

tests/reader_fuzz.py compares this checkout's readers with another
checkout's on thousands of spoiled fixture documents; this test runs 300
of them through this checkout alone."""

import collections

import kgdecomp
import kgdecomp.fileio
from kgdecomp import ParseError
from reader_fuzz import read, spoiled_documents

COUNT = 300


def test_spoiled_documents_raise_nothing_but_parse_errors():
    outcomes = collections.Counter()
    for case in spoiled_documents(seed=0, count=COUNT):
        try:
            read(kgdecomp, case)
        except ParseError:
            outcomes["refused"] += 1
        else:
            outcomes["read"] += 1
    # a fault may leave a valid document, such as a label replaced by
    # another string or an optional key deleted, so some still read
    assert outcomes["refused"] > COUNT // 2
    assert outcomes["read"] > 0
