"""A namespace-aware XML parser for the DOM-lite tree.

Handles the XML features B2B documents actually use: elements, attributes,
character data, entity references, CDATA sections, comments, processing
instructions and namespace declarations.  DTDs are tolerated but ignored.
The parser is strict about well-formedness (mismatched tags, unterminated
constructs and stray ``<`` are errors) because the XML substrate models
*structured* sources — tag-soup tolerance belongs to the HTML parser in the
web substrate.
"""

from __future__ import annotations

import re

from ..errors import XmlSyntaxError
from .dom import Document, Element

_NAME = r"[A-Za-z_:][A-Za-z0-9_\-.:]*"
_ATTR_RE = re.compile(
    rf"\s+({_NAME})\s*=\s*(\"[^\"]*\"|'[^']*')")
_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}

#: Deepest element nesting accepted; deeper documents are rejected with
#: XmlSyntaxError before the recursive descent can exhaust the stack.
MAX_XML_DEPTH = 256


def _decode_entities(text: str, line: int) -> str:
    if "&" not in text:
        return text
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = text.find(";", i + 1)
        if end == -1:
            raise XmlSyntaxError(f"unterminated entity reference (line {line})")
        entity = text[i + 1:end]
        if entity.startswith("#x") or entity.startswith("#X"):
            out.append(chr(int(entity[2:], 16)))
        elif entity.startswith("#"):
            out.append(chr(int(entity[1:])))
        elif entity in _ENTITIES:
            out.append(_ENTITIES[entity])
        else:
            raise XmlSyntaxError(f"unknown entity &{entity}; (line {line})")
        i = end + 1
    return "".join(out)


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1

    def error(self, message: str) -> XmlSyntaxError:
        return XmlSyntaxError(f"{message} (line {self.line})")

    def advance(self, count: int) -> None:
        self.line += self.text.count("\n", self.pos, self.pos + count)
        self.pos += count

    def parse(self) -> Document:
        declaration = self._skip_prolog()
        root = self._parse_element(namespaces={"xml": "http://www.w3.org/XML/1998/namespace"},
                                   depth=1)
        self._skip_misc()
        if self.pos < len(self.text):
            raise self.error("content after document root")
        return Document(root, declaration=declaration)

    def _skip_prolog(self) -> bool:
        declaration = False
        while True:
            self._skip_whitespace()
            if self.text.startswith("<?xml", self.pos):
                end = self.text.find("?>", self.pos)
                if end == -1:
                    raise self.error("unterminated XML declaration")
                self.advance(end + 2 - self.pos)
                declaration = True
            elif self.text.startswith("<!--", self.pos):
                self._skip_comment()
            elif self.text.startswith("<!DOCTYPE", self.pos):
                self._skip_doctype()
            elif self.text.startswith("<?", self.pos):
                self._skip_pi()
            else:
                return declaration

    def _skip_misc(self) -> None:
        while True:
            self._skip_whitespace()
            if self.text.startswith("<!--", self.pos):
                self._skip_comment()
            elif self.text.startswith("<?", self.pos):
                self._skip_pi()
            else:
                return

    def _skip_whitespace(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.advance(1)

    def _skip_comment(self) -> None:
        end = self.text.find("-->", self.pos)
        if end == -1:
            raise self.error("unterminated comment")
        self.advance(end + 3 - self.pos)

    def _skip_pi(self) -> None:
        end = self.text.find("?>", self.pos)
        if end == -1:
            raise self.error("unterminated processing instruction")
        self.advance(end + 2 - self.pos)

    def _skip_doctype(self) -> None:
        depth = 0
        i = self.pos
        while i < len(self.text):
            ch = self.text[i]
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == ">" and depth <= 0:
                self.advance(i + 1 - self.pos)
                return
            i += 1
        raise self.error("unterminated DOCTYPE")

    def _parse_element(self, namespaces: dict[str, str], depth: int) -> Element:
        if depth > MAX_XML_DEPTH:
            raise self.error(f"elements nested deeper than {MAX_XML_DEPTH}")
        if not self.text.startswith("<", self.pos):
            raise self.error("expected element start tag")
        match = re.compile(rf"<({_NAME})").match(self.text, self.pos)
        if match is None:
            raise self.error("malformed start tag")
        raw_name = match.group(1)
        self.advance(match.end() - self.pos)

        attributes: dict[str, str] = {}
        local_namespaces = dict(namespaces)
        while True:
            attr_match = _ATTR_RE.match(self.text, self.pos)
            if attr_match is None:
                break
            attr_name = attr_match.group(1)
            attr_value = _decode_entities(attr_match.group(2)[1:-1], self.line)
            self.advance(attr_match.end() - self.pos)
            if attr_name == "xmlns":
                local_namespaces[""] = attr_value
            elif attr_name.startswith("xmlns:"):
                local_namespaces[attr_name[6:]] = attr_value
            attributes[attr_name] = attr_value

        self._skip_whitespace()
        prefix, _, local = raw_name.rpartition(":")
        namespace = local_namespaces.get(prefix, "" if prefix == "" else None)
        if namespace is None:
            raise self.error(f"undeclared namespace prefix {prefix!r}")
        element = Element(raw_name, attributes, namespace=namespace)

        if self.text.startswith("/>", self.pos):
            self.advance(2)
            return element
        if not self.text.startswith(">", self.pos):
            raise self.error(f"malformed start tag <{raw_name}>")
        self.advance(1)

        self._parse_content(element, local_namespaces, depth)

        close = f"</{raw_name}"
        if not self.text.startswith(close, self.pos):
            raise self.error(f"expected closing tag </{raw_name}>")
        self.advance(len(close))
        self._skip_whitespace()
        if not self.text.startswith(">", self.pos):
            raise self.error(f"malformed closing tag </{raw_name}>")
        self.advance(1)
        return element

    def _parse_content(self, element: Element, namespaces: dict[str, str],
                       depth: int) -> None:
        buffer: list[str] = []

        def flush() -> None:
            if buffer:
                text = _decode_entities("".join(buffer), self.line)
                element.append_text(text)
                buffer.clear()

        while True:
            if self.pos >= len(self.text):
                raise self.error(f"unterminated element <{element.name}>")
            if self.text.startswith("</", self.pos):
                flush()
                return
            if self.text.startswith("<!--", self.pos):
                flush()
                self._skip_comment()
                continue
            if self.text.startswith("<![CDATA[", self.pos):
                end = self.text.find("]]>", self.pos)
                if end == -1:
                    raise self.error("unterminated CDATA section")
                element.append_text(self.text[self.pos + 9:end])
                self.advance(end + 3 - self.pos)
                continue
            if self.text.startswith("<?", self.pos):
                flush()
                self._skip_pi()
                continue
            if self.text.startswith("<", self.pos):
                flush()
                element.append(self._parse_element(namespaces, depth + 1))
                continue
            next_tag = self.text.find("<", self.pos)
            if next_tag == -1:
                raise self.error(f"unterminated element <{element.name}>")
            buffer.append(self.text[self.pos:next_tag])
            self.advance(next_tag - self.pos)


def parse_xml(text: str) -> Document:
    """Parse an XML document string into a :class:`Document`."""
    if not text or not text.strip():
        raise XmlSyntaxError("empty XML document")
    return _Parser(text).parse()
