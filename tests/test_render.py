from xml.dom import minidom

from oritatami.fixtures import glider_system
from oritatami.folding import Conformation, fold_all
from oritatami.render import render_svg


def test_single_bead_svg():
    svg = render_svg(Conformation.build([(0, 0)], ["a"]))
    assert svg.count("<circle") == 1
    assert "<polyline" not in svg


def test_empty_conformation_is_valid_empty_document():
    svg = render_svg(Conformation((), ()))
    assert svg.startswith("<?xml")
    assert "</svg>" in svg


def test_bond_segments_match_bond_count():
    conf = fold_all(glider_system(periods=2), "enumerate")[0].conformation
    svg = render_svg(conf)
    assert svg.count("<line") == len(conf.bonds)
    assert svg.count("<circle") == len(conf.path)
    assert svg.count("<text") == len(conf.path)


def test_bead_names_are_escaped_as_xml_text():
    conf = Conformation.build([(0, 0), (1, 0), (2, 0)], ["a<b", "x&y", "a<b"])
    doc = minidom.parseString(render_svg(conf))
    labels = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    assert labels == ["a<b", "x&y", "a<b"]


def test_byte_stability():
    conf = fold_all(glider_system(periods=1), "enumerate")[0].conformation
    assert render_svg(conf) == render_svg(conf)

