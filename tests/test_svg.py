import pytest

from stacksort import UnsortedPermutationError, enumerate_vhc, render_svg, valid_compositions
from stacksort.svg import HOOK_PALETTE, SKY_COLOR

P27 = (3, 1, 4, 2, 5, 6, 7)
P27_DOCS = render_svg(P27, enumerate_vhc(P27))


def test_one_document_per_configuration():
    assert len(P27_DOCS) == 6
    p = (4, 3, 2, 1, 5, 6, 7, 8)
    assert len(render_svg(p, enumerate_vhc(p))) == 4


def test_identity_has_one_hookless_document():
    docs = render_svg((1, 2, 3), [()])
    assert len(docs) == 1
    doc = docs[0]
    assert "polyline" not in doc
    # three plot points, all sky colored, plus one sky legend swatch
    assert doc.count(f'fill="{SKY_COLOR}"') == 4


def test_hook_and_point_counts():
    for doc in P27_DOCS:
        assert doc.count("<polyline") == 2
        # 7 plot points + 3 legend swatches (sky, hook 1, hook 2)
        assert doc.count("<circle") == 10
        # the two northeast endpoints are hollow; the background rect is white too
        assert doc.count('fill="white"') == 3


def test_point_fills_match_the_induced_composition():
    # per color: one legend swatch plus one circle per point of that color
    seen = set()
    for doc in P27_DOCS:
        q0 = doc.count(f'fill="{SKY_COLOR}"') - 1
        q1 = doc.count(f'fill="{HOOK_PALETTE[0]}"') - 1
        q2 = doc.count(f'fill="{HOOK_PALETTE[1]}"') - 1
        seen.add((q0, q1, q2))
    assert seen == valid_compositions(P27)


def test_single_ordinal():
    # the caller picks configurations by ordinal from its own list
    assert render_svg(P27, enumerate_vhc(P27)[1:2]) == P27_DOCS[1:2]


def test_unsorted_cannot_be_rendered():
    with pytest.raises(UnsortedPermutationError):
        render_svg((2, 1), enumerate_vhc((2, 1)))


def test_document_is_well_formed_xmlish():
    doc = P27_DOCS[0]
    assert doc.startswith("<svg ")
    assert doc.rstrip().endswith("</svg>")
    assert doc.count("<svg ") == doc.count("</svg>") == 1
