"""Object-query workload definitions.

Reproduces the paper's Table II (two query pairs per dataset, each with a
simpler and a more detailed variant) and Table VI (ActivityNet-QA yes/no
extension queries). Every natural-language query is paired with the
semantic tag set that defines its ground truth: an object matches a query
iff its tag set is a superset of the query's tags (class + attributes +
relations). The coarse text encoder sees only class/attr/bg tags; the
fine (rerank) encoder sees all of them — reproducing §VI-A's split.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.vocab.vocabulary import TagKind, tag_kind


@dataclass(frozen=True)
class Query:
    """One natural-language object query with its ground-truth tag semantics.

    ``complexity`` follows §II: 'simple' (predefined class), 'normal'
    (novel attributes), 'complex' (detailed descriptions / relations /
    unseen classes).
    """

    qid: str
    dataset: str
    text: str
    tags: tuple[str, ...]
    complexity: str = "normal"

    def __post_init__(self):
        if not self.tags:
            raise ValueError(f"query {self.qid}: no tags")
        prefixes = tuple(f"{k.value}:" for k in TagKind)
        for t in self.tags:
            if not t.startswith(prefixes):
                raise ValueError(
                    f"query {self.qid}: tag {t!r} has none of the prefixes "
                    + "/".join(prefixes)
                )

    def tags_of(self, *kinds: TagKind) -> tuple[str, ...]:
        return tuple(t for t in self.tags if tag_kind(t) in kinds)

    @property
    def class_tags(self) -> tuple[str, ...]:
        return self.tags_of(TagKind.CLASS)

    @property
    def attr_tags(self) -> tuple[str, ...]:
        return self.tags_of(TagKind.ATTR)

    @property
    def rel_tags(self) -> tuple[str, ...]:
        return self.tags_of(TagKind.REL)


ALL_QUERIES: tuple[Query, ...] = (
    # -- Cityscapes (moving dashcam, urban street) --------------------------
    Query("Q1.1", "cityscapes", "A person walking on the street.",
          ("class:person", "attr:walking"), "simple"),
    Query("Q1.2", "cityscapes",
          "A person in light-colored clothing walking while holding a dark bag.",
          ("class:person", "attr:walking", "attr:light_clothing", "attr:dark_bag"),
          "normal"),
    Query("Q1.3", "cityscapes", "A person riding a bicycle.",
          ("class:person", "attr:riding_bicycle"), "simple"),
    Query("Q1.4", "cityscapes",
          "A person riding a bicycle, wearing a black t-shirt and blue jeans.",
          ("class:person", "attr:riding_bicycle", "attr:black_tshirt",
           "attr:blue_jeans"), "complex"),
    # -- Bellevue (fixed traffic intersection camera) -----------------------
    Query("Q2.1", "bellevue", "A red car driving in the center of the road.",
          ("class:car", "attr:red", "rel:center_of_road"), "normal"),
    Query("Q2.2", "bellevue",
          "A red car side by side with another car, both positioned in the "
          "center of the road.",
          ("class:car", "attr:red", "rel:side_by_side", "rel:center_of_road"),
          "complex"),
    Query("Q2.3", "bellevue", "A bus driving on the road.",
          ("class:bus",), "simple"),
    Query("Q2.4", "bellevue",
          "A bus driving on the road with white roof and yellow-green body.",
          ("class:bus", "attr:white_roof", "attr:yellow_green_body"), "complex"),
    # -- QVHighlights (diverse YouTube, moving camera) ----------------------
    Query("Q3.1", "qvhighlights", "A woman smiling sitting inside car.",
          ("class:woman", "attr:smiling", "rel:inside_car"), "normal"),
    Query("Q3.2", "qvhighlights",
          "A red-hair woman with white dress sitting inside a car.",
          ("class:woman", "attr:red_hair", "attr:white_dress", "rel:inside_car"),
          "complex"),
    Query("Q3.3", "qvhighlights", "A white dog inside a car.",
          ("class:dog", "attr:white", "rel:inside_car"), "normal"),
    Query("Q3.4", "qvhighlights",
          "A white dog inside a car, next to a woman wearing black clothes.",
          ("class:dog", "attr:white", "rel:inside_car", "rel:next_to_woman"),
          "complex"),
    # -- Beach (fixed resort sidewalk camera) -------------------------------
    Query("Q4.1", "beach", "A green bus driving on the road.",
          ("class:bus", "attr:green"), "normal"),
    Query("Q4.2", "beach", "A green bus with the white roof driving on the road.",
          ("class:bus", "attr:green", "attr:white_roof"), "complex"),
    Query("Q4.3", "beach", "A truck driving on the road.",
          ("class:truck",), "simple"),
    Query("Q4.4", "beach",
          "A small white truck filled with cargo driving on the road.",
          ("class:truck", "attr:small", "attr:white", "attr:cargo"), "complex"),
)

#: Table VI — ActivityNet-QA yes/no questions used as retrieval queries.
EXTENSION_QUERIES: tuple[Query, ...] = (
    Query("EQ1", "activitynet", "does the car park on the meadow",
          ("class:car", "rel:on_meadow"), "complex"),
    Query("EQ2", "activitynet", "is the person with a hat a man",
          ("class:person", "attr:hat", "attr:man"), "normal"),
    Query("EQ3", "activitynet", "is the person in the red life jacket outdoors",
          ("class:person", "attr:red_life_jacket", "rel:outdoors"), "complex"),
    Query("EQ4", "activitynet", "is the person in a grey skirt dancing in the room",
          ("class:person", "attr:grey_skirt", "attr:dancing", "rel:in_room"),
          "complex"),
)

_BY_ID: dict[str, Query] = {q.qid: q for q in ALL_QUERIES + EXTENSION_QUERIES}


def query_by_id(qid: str) -> Query:
    """Look up a query by its paper ID (e.g. ``Q2.2``, ``EQ1``)."""
    return _BY_ID[qid]


def queries_for_dataset(dataset: str) -> tuple[Query, ...]:
    """All workload queries defined on ``dataset``."""
    return tuple(q for q in ALL_QUERIES + EXTENSION_QUERIES if q.dataset == dataset)
