"""Tests for the query workload (paper Tables II and VI)."""
import pytest

from repro.queries.workload import (
    ALL_QUERIES,
    EXTENSION_QUERIES,
    Query,
    queries_for_dataset,
    query_by_id,
)
from repro.vocab.vocabulary import TagKind, tag_kind


def test_table2_has_sixteen_queries():
    assert len(ALL_QUERIES) == 16


def test_table6_has_four_queries():
    assert len(EXTENSION_QUERIES) == 4


@pytest.mark.parametrize("ds", ["cityscapes", "bellevue", "qvhighlights", "beach"])
def test_four_queries_per_dataset(ds):
    assert len(queries_for_dataset(ds)) == 4


@pytest.mark.parametrize("q", ALL_QUERIES + EXTENSION_QUERIES, ids=lambda q: q.qid)
class TestEveryQuery:
    def test_has_class_tag(self, q):
        assert len(q.class_tags) >= 1

    def test_tags_parse(self, q):
        for t in q.tags:
            assert tag_kind(t) in TagKind

    def test_complexity_valid(self, q):
        assert q.complexity in ("simple", "normal", "complex")

    def test_lookup_roundtrip(self, q):
        assert query_by_id(q.qid) is q

    def test_text_nonempty(self, q):
        assert len(q.text) > 5


def test_complex_queries_have_more_detail():
    """'complex' queries carry relations or ≥3 attribute tags (§II)."""
    for q in ALL_QUERIES:
        if q.complexity == "complex":
            assert q.rel_tags or len(q.attr_tags) >= 2, q.qid


def test_simple_queries_are_lean():
    for q in ALL_QUERIES:
        if q.complexity == "simple":
            assert not q.rel_tags and len(q.attr_tags) <= 1, q.qid


def test_q22_matches_paper_text():
    q = query_by_id("Q2.2")
    assert "side by side" in q.text
    assert "rel:side_by_side" in q.tags


def test_extension_queries_are_activitynet():
    assert all(q.dataset == "activitynet" for q in EXTENSION_QUERIES)


def test_query_without_tags_rejected():
    with pytest.raises(ValueError, match="query QX: no tags"):
        Query("QX", "bellevue", "anything", ())


def test_unprefixed_tag_rejected():
    with pytest.raises(ValueError, match="query QX: tag 'red'"):
        Query("QX", "bellevue", "a red car", ("class:car", "red"))
