"""Hostile nesting: every recursive-descent parser fails typed, not with
a bare ``RecursionError``, at the default recursion limit."""

from __future__ import annotations

import pytest

from repro.errors import (RdfSyntaxError, SqlSyntaxError, WeblSyntaxError,
                          XmlError, XPathError)
from repro.rdf.rdfxml import parse_rdfxml
from repro.sources.relational.sql.parser import parse_sql
from repro.webl.parser import parse_webl
from repro.xmlkit import parse_xml
from repro.xmlkit.xpath.parser import parse_xpath

DEPTH = 5000

_RDF = ('xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
        'xmlns:e="http://example.org/e#"')

CASES = {
    "xml": (XmlError, lambda: parse_xml("<a>" * DEPTH + "</a>" * DEPTH)),
    "sql": (SqlSyntaxError, lambda: parse_sql(
        "SELECT a FROM t WHERE " + "(" * DEPTH + "a = 1" + ")" * DEPTH)),
    "webl": (WeblSyntaxError, lambda: parse_webl(
        "var x = " + "(" * DEPTH + "1" + ")" * DEPTH + ";")),
    "xpath": (XPathError, lambda: parse_xpath(
        "(" * DEPTH + "1" + ")" * DEPTH)),
    "rdfxml": (RdfSyntaxError, lambda: parse_rdfxml(
        f"<rdf:RDF {_RDF}>" + "<e:C><e:p>" * DEPTH + "</e:p></e:C>" * DEPTH
        + "</rdf:RDF>")),
}


@pytest.mark.parametrize("parser", sorted(CASES))
def test_deep_nesting_raises_the_parsers_own_error(parser):
    error, parse = CASES[parser]
    with pytest.raises(error, match="nested deeper than"):
        parse()
