"""Tests for the six baseline systems."""
import pytest

from repro.baselines import Figo, Miris, Umt, Visa, Vocal, Zelda
from repro.queries.workload import Query, query_by_id
from repro.video.groundtruth import evaluate_ranking, gt_objects_pdf
from tests.conftest import TEST_CFG

QA_BASELINES = [Vocal, Zelda, Umt, Visa]  # have a process() phase
QD_BASELINES = [Miris, Figo]  # pure query-time


@pytest.fixture(scope="module")
def processed(spark, bellevue_patches):
    """Every baseline, processed once over the tiny Bellevue dataset."""
    out = {}
    for cls in [Vocal, Miris, Figo, Zelda]:
        b = cls(spark, TEST_CFG)
        b.process(bellevue_patches)
        out[b.name] = b
    for cls in [Umt, Visa]:
        b = cls(spark, TEST_CFG, daily_life=False)
        b.process(bellevue_patches)
        out[b.name] = b
    return out


ALL_NAMES = ["vocal", "miris", "figo", "zelda", "umt", "visa"]


@pytest.mark.parametrize("name", ALL_NAMES)
class TestEveryBaseline:
    def test_query_runs_and_sorted(self, processed, name):
        r = processed[name].query(query_by_id("Q2.3"), k=20)
        assert r.qid == "Q2.3"
        scores = [x.score for x in r.results]
        assert scores == sorted(scores, reverse=True)

    def test_k_respected(self, processed, name):
        r = processed[name].query(query_by_id("Q2.3"), k=15)
        assert len(r.results) <= 15

    def test_search_time_positive(self, processed, name):
        r = processed[name].query(query_by_id("Q2.1"), k=10)
        assert r.search_time > 0 and r.search_time == r.fast_time

    def test_boxes_valid(self, processed, name):
        for x in processed[name].query(query_by_id("Q2.3"), k=15).results:
            assert 0 <= x.bbox[0] <= x.bbox[2] <= 1
            assert 0 <= x.bbox[1] <= x.bbox[3] <= 1

    def test_deterministic(self, processed, name):
        q = query_by_id("Q2.4")
        a = [(r.video_id, r.frame_idx) for r in processed[name].query(q, k=10).results]
        b = [(r.video_id, r.frame_idx) for r in processed[name].query(q, k=10).results]
        assert a == b


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("name", ["lovo", *ALL_NAMES])
def test_nonpositive_k_rejected(processed, lovo_built, name, k):
    system = lovo_built[0] if name == "lovo" else processed[name]
    with pytest.raises(ValueError, match="k must be positive"):
        system.query(query_by_id("Q2.3"), k=k)


class TestVocal:
    def test_finds_predefined_class(self, processed, bellevue_patches):
        q = query_by_id("Q2.3")  # "a bus" — bus is a predefined class
        gt = gt_objects_pdf(bellevue_patches, q)
        ev = evaluate_ranking(processed["vocal"].query(q, k=10 * gt.track_id.nunique()).results, gt)
        assert ev.avep > 0.3

    def test_unseen_class_returns_nothing(self, processed):
        q = Query("QX", "bellevue", "a black suv", ("class:suv", "attr:black"))
        assert processed["vocal"].query(q, k=20).results == []

    def test_blind_to_attributes(self, processed):
        """Attribute variants of one class produce identical rankings."""
        plain = processed["vocal"].query(query_by_id("Q2.3"), k=20).results
        detailed = processed["vocal"].query(query_by_id("Q2.4"), k=20).results
        assert [(r.video_id, r.frame_idx) for r in plain] == [
            (r.video_id, r.frame_idx) for r in detailed
        ]


class TestQDSearch:
    @pytest.mark.parametrize("name", ["miris", "figo"])
    def test_attribute_query_beats_vocal(self, processed, bellevue_patches, name):
        """QD-search grounds attributes the static index cannot (Table I)."""
        q = query_by_id("Q2.4")
        gt = gt_objects_pdf(bellevue_patches, q)
        k = 10 * gt.track_id.nunique()
        qd = evaluate_ranking(processed[name].query(q, k=k).results, gt).avep
        vc = evaluate_ranking(processed["vocal"].query(q, k=k).results, gt).avep
        assert qd > vc

    @pytest.mark.parametrize("name", ["miris", "figo"])
    def test_relations_out_of_vocabulary(self, processed, bellevue_patches, name):
        """QD-search does worse on the relation query than the attr query."""
        ga = gt_objects_pdf(bellevue_patches, query_by_id("Q2.4"))
        gr = gt_objects_pdf(bellevue_patches, query_by_id("Q2.2"))
        attr = evaluate_ranking(
            processed[name].query(query_by_id("Q2.4"), k=10 * ga.track_id.nunique()).results, ga
        ).avep
        rel = evaluate_ranking(
            processed[name].query(query_by_id("Q2.2"), k=10 * gr.track_id.nunique()).results, gr
        ).avep
        assert attr > rel


class TestDomainBias:
    def test_visa_better_in_domain(self, spark, bellevue_patches):
        """VISA's accuracy depends on training-domain match (§VII-B)."""
        q = query_by_id("Q2.4")
        gt = gt_objects_pdf(bellevue_patches, q)
        k = 10 * gt.track_id.nunique()
        out_dom = Visa(spark, TEST_CFG, daily_life=False)
        out_dom.process(bellevue_patches)
        in_dom = Visa(spark, TEST_CFG, daily_life=True)
        in_dom.process(bellevue_patches)
        a = evaluate_ranking(in_dom.query(q, k=k).results, gt).avep
        b = evaluate_ranking(out_dom.query(q, k=k).results, gt).avep
        assert a >= b


class TestProcessingPhases:
    @pytest.mark.parametrize("cls", QA_BASELINES)
    def test_processing_time_recorded(self, spark, bellevue_patches, cls):
        b = cls(spark, TEST_CFG)
        t = b.process(bellevue_patches)
        assert t > 0 and b.processing_time == t

    @pytest.mark.parametrize("cls", QD_BASELINES)
    def test_qd_has_no_offline_cost(self, spark, bellevue_patches, cls):
        b = cls(spark, TEST_CFG)
        assert b.process(bellevue_patches) == 0.0
