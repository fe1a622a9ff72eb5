"""Tests for repro.index.postings."""

import pytest

from repro.index.postings import Posting, PostingList, intersect_all, union_all


def plist(*docs: int) -> PostingList:
    return PostingList(Posting(d, 1) for d in docs)


class TestPostingList:
    def test_append_in_order(self):
        pl = plist(1, 3, 5)
        assert pl.doc_ids() == [1, 3, 5]
        assert len(pl) == 3

    def test_out_of_order_append_rejected(self):
        with pytest.raises(ValueError, match="postings out of order"):
            plist(5, 3)

    def test_duplicate_doc_rejected(self):
        with pytest.raises(ValueError, match="postings out of order"):
            PostingList([Posting(5, 1), Posting(5, 2)])

    def test_bool(self):
        assert not PostingList()
        assert plist(1)

    def test_document_frequency(self):
        assert plist(1, 2, 3).document_frequency() == 3


class TestIntersect:
    def test_basic(self):
        assert plist(1, 2, 3).intersect(plist(2, 3, 4)).doc_ids() == [2, 3]

    def test_disjoint(self):
        assert plist(1, 2).intersect(plist(3, 4)).doc_ids() == []

    def test_with_empty(self):
        assert plist(1).intersect(PostingList()).doc_ids() == []

    def test_tf_taken_from_self(self):
        a = PostingList([Posting(1, 7)])
        b = PostingList([Posting(1, 2)])
        assert list(a.intersect(b))[0].tf == 7

    def test_intersect_all_orders_by_length(self):
        result = intersect_all([plist(1, 2, 3, 4), plist(2, 4), plist(2, 3, 4)])
        assert result.doc_ids() == [2, 4]

    def test_intersect_all_empty_input(self):
        assert intersect_all([]).doc_ids() == []

    def test_intersect_all_short_circuits(self):
        assert intersect_all([PostingList(), plist(1, 2)]).doc_ids() == []


class TestUnion:
    def test_basic(self):
        assert plist(1, 3).union(plist(2, 3)).doc_ids() == [1, 2, 3]

    def test_tf_summed_on_overlap(self):
        a = PostingList([Posting(1, 2)])
        b = PostingList([Posting(1, 5)])
        assert list(a.union(b))[0].tf == 7

    def test_with_empty(self):
        assert plist(1, 2).union(PostingList()).doc_ids() == [1, 2]

    def test_union_all(self):
        result = union_all([plist(1), plist(5), plist(3)])
        assert result.doc_ids() == [1, 3, 5]

    def test_union_all_empty_input(self):
        assert union_all([]).doc_ids() == []
