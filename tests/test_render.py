from matchbook.constructions import even_cycle_embedding, kpcq_embedding
from matchbook.graphs import Graph
from matchbook.layout import BookEmbedding, validate
from matchbook.render import page_color, render_svg


def test_render_counts_kpcq():
    emb = kpcq_embedding(5, 3).embedding
    svg = render_svg(emb)
    assert svg.count('<circle class="vx"') == 15
    assert svg.count('class="arc"') == 45
    assert svg.count('<g class="legend-item"') == 7


def test_render_counts_c4():
    emb = even_cycle_embedding(2)
    svg = render_svg(emb)
    assert svg.count('<circle class="vx"') == 4
    assert svg.count('class="arc"') == 4
    assert svg.count('<g class="legend-item"') == 2


def test_render_deterministic():
    emb = kpcq_embedding(4, 4).embedding
    assert render_svg(emb) == render_svg(emb)


def test_render_highlights_violations():
    g = Graph(4, ((0, 2), (1, 3)))
    emb = BookEmbedding(g, (0, 1, 2, 3), (0, 0), 1)
    rep = validate(emb)
    svg = render_svg(emb, rep)
    assert svg.count('class="arc bad"') == 2
    assert "stroke-dasharray" in svg


def test_render_split_pages():
    emb = even_cycle_embedding(2)
    svg = render_svg(emb, split_pages=True)
    # one spine copy per page band
    assert svg.count('<circle class="vx"') == 8
    assert svg.count("band-label") >= 2


def test_page_colors_distinct_and_stable():
    colors = [page_color(i) for i in range(20)]
    assert len(set(colors)) == 20
    assert page_color(3) == page_color(3)
