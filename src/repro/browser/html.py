"""HTML parsing, DOM tree, and serialization.

A deliberately small but *real* HTML engine: tags with quoted attributes,
entity escaping, void elements, raw-text elements (``<script>``), comments
and forgiving error recovery.  Whether an XSS payload executes depends on
exactly this distinction — ``&lt;script&gt;`` parses as text while
``<script>`` parses as an executable element — so the sanitization
vulnerabilities and patches in the evaluation exercise a real code path.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

VOID_ELEMENTS = frozenset(
    {"input", "br", "hr", "img", "meta", "link", "iframe-src-only"}
)
RAW_TEXT_ELEMENTS = frozenset({"script", "style"})

_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'", "#39": "'"}


def escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attr(text: str) -> str:
    return escape_text(text).replace('"', "&quot;")


def unescape(text: str) -> str:
    if "&" not in text:
        return text
    out: List[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "&":
            end = text.find(";", i + 1)
            if 0 < end <= i + 8:
                name = text[i + 1 : end]
                if name in _ENTITIES:
                    out.append(_ENTITIES[name])
                    i = end + 1
                    continue
                if name.startswith("#"):
                    digits = name[1:]
                    try:
                        code = (
                            int(digits[1:], 16)
                            if digits[:1] in ("x", "X")
                            else int(digits)
                        )
                        out.append(chr(code))
                        i = end + 1
                        continue
                    except ValueError:
                        pass
        out.append(ch)
        i += 1
    return "".join(out)


class Node:
    """Base DOM node."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Optional["Element"] = None


class Text(Node):
    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        super().__init__()
        self.text = text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Text({self.text!r})"


class Element(Node):
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: Optional[Dict[str, str]] = None) -> None:
        super().__init__()
        self.tag = tag.lower()
        self.attrs: Dict[str, str] = attrs or {}
        self.children: List[Node] = []

    # -- tree manipulation ----------------------------------------------------

    def append(self, node: Node) -> Node:
        node.parent = self
        self.children.append(node)
        return node

    def remove(self, node: Node) -> None:
        self.children.remove(node)
        node.parent = None

    # -- traversal ---------------------------------------------------------------

    def iter(self) -> Iterator["Element"]:
        """Depth-first iteration over this element and all descendants."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter()

    def find(self, tag: str) -> Optional["Element"]:
        for element in self.iter():
            if element.tag == tag and element is not self:
                return element
        return None

    def find_all(self, tag: str) -> List["Element"]:
        return [el for el in self.iter() if el.tag == tag and el is not self]

    def ancestor(self, tag: str) -> Optional["Element"]:
        node = self.parent
        while node is not None:
            if node.tag == tag:
                return node
            node = node.parent
        return None

    # -- content -------------------------------------------------------------------

    def text_content(self) -> str:
        parts: List[str] = []
        for child in self.children:
            if isinstance(child, Text):
                parts.append(child.text)
            elif isinstance(child, Element):
                parts.append(child.text_content())
        return "".join(parts)

    def set_text(self, text: str) -> None:
        for child in list(self.children):
            self.remove(child)
        self.append(Text(text))

    # -- form values -----------------------------------------------------------------

    @property
    def value(self) -> str:
        if self.tag == "textarea":
            return self.text_content()
        return self.attrs.get("value", "")

    @value.setter
    def value(self, new_value: str) -> None:
        if self.tag == "textarea":
            self.set_text(new_value)
        else:
            self.attrs["value"] = new_value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.tag} {self.attrs}>"


class Document:
    """A parsed HTML document."""

    def __init__(self, root: Element) -> None:
        self.root = root

    def iter(self) -> Iterator[Element]:
        return self.root.iter()

    def get_element_by_id(self, element_id: str) -> Optional[Element]:
        for element in self.iter():
            if element.attrs.get("id") == element_id:
                return element
        return None

    def select(self, selector: str) -> Optional[Element]:
        """Tiny selector engine: ``#id``, ``tag``, ``tag[attr=value]``."""
        if selector.startswith("#"):
            return self.get_element_by_id(selector[1:])
        tag, _, attr_part = selector.partition("[")
        if attr_part:
            attr_part = attr_part.rstrip("]")
            name, _, value = attr_part.partition("=")
            value = value.strip("'\"")
            for element in self.iter():
                if element.tag == tag and element.attrs.get(name) == value:
                    return element
            return None
        for element in self.iter():
            if element.tag == tag:
                return element
        return None

    def forms(self) -> List[Element]:
        return self.root.find_all("form")

    def scripts(self) -> List[Element]:
        return self.root.find_all("script")

    def body_text(self) -> str:
        body = self.root.find("body")
        return body.text_content() if body is not None else self.root.text_content()


def parse_html(markup: str) -> Document:
    """Parse ``markup`` into a :class:`Document` (forgiving)."""
    parser = _Parser(markup)
    root = parser.parse()
    return Document(root)


def serialize(node: Node) -> str:
    if isinstance(node, Text):
        return escape_text(node.text)
    assert isinstance(node, Element)
    attrs = "".join(f' {k}="{escape_attr(v)}"' for k, v in node.attrs.items())
    if node.tag in VOID_ELEMENTS:
        return f"<{node.tag}{attrs}>"
    if node.tag in RAW_TEXT_ELEMENTS:
        raw = "".join(c.text for c in node.children if isinstance(c, Text))
        return f"<{node.tag}{attrs}>{raw}</{node.tag}>"
    inner = "".join(serialize(child) for child in node.children)
    return f"<{node.tag}{attrs}>{inner}</{node.tag}>"


class _Parser:
    def __init__(self, markup: str) -> None:
        self._text = markup
        self._pos = 0

    def parse(self) -> Element:
        root = Element("#document")
        stack = [root]
        n = len(self._text)
        while self._pos < n:
            if self._text.startswith("<!--", self._pos):
                end = self._text.find("-->", self._pos)
                self._pos = n if end < 0 else end + 3
                continue
            if self._text.startswith("<!", self._pos):
                end = self._text.find(">", self._pos)
                self._pos = n if end < 0 else end + 1
                continue
            if self._text.startswith("</", self._pos):
                end = self._text.find(">", self._pos)
                tag = self._text[self._pos + 2 : end].strip().lower()
                self._pos = n if end < 0 else end + 1
                for depth in range(len(stack) - 1, 0, -1):
                    if stack[depth].tag == tag:
                        del stack[depth:]
                        break
                continue
            if self._text.startswith("<", self._pos) and self._pos + 1 < n and (
                self._text[self._pos + 1].isalpha()
            ):
                element, self_closed = self._parse_tag()
                stack[-1].append(element)
                if element.tag in RAW_TEXT_ELEMENTS and not self_closed:
                    self._consume_raw_text(element)
                elif element.tag not in VOID_ELEMENTS and not self_closed:
                    stack.append(element)
                continue
            if self._text[self._pos] == "<":
                # A stray '<' that opens no tag: emit it literally.
                stack[-1].append(Text("<"))
                self._pos += 1
                continue
            # Plain text up to the next tag.
            next_tag = self._text.find("<", self._pos)
            if next_tag < 0:
                next_tag = n
            raw = self._text[self._pos : next_tag]
            if raw:
                stack[-1].append(Text(unescape(raw)))
            self._pos = next_tag
        return root

    def _parse_tag(self):
        end = self._text.find(">", self._pos)
        if end < 0:
            end = len(self._text) - 1
        inside = self._text[self._pos + 1 : end]
        self._pos = end + 1
        self_closed = inside.endswith("/")
        if self_closed:
            inside = inside[:-1]
        parts = inside.strip()
        tag, _, attr_text = parts.partition(" ")
        element = Element(tag.strip().lower())
        element.attrs.update(_parse_attrs(attr_text))
        return element, self_closed

    def _consume_raw_text(self, element: Element) -> None:
        # The closer matches in any case: only the tag after each "</" is
        # lowercased (the whole page per raw-text element was quadratic).
        tag = element.tag
        end = self._text.find("</", self._pos)
        while end >= 0 and self._text[end + 2 : end + 2 + len(tag)].lower() != tag:
            end = self._text.find("</", end + 2)
        if end < 0:
            end = len(self._text)
        raw = self._text[self._pos : end]
        if raw:
            element.append(Text(raw))
        gt = self._text.find(">", end)
        self._pos = len(self._text) if gt < 0 else gt + 1


def _parse_attrs(attr_text: str) -> Dict[str, str]:
    attrs: Dict[str, str] = {}
    i = 0
    n = len(attr_text)
    while i < n:
        while i < n and attr_text[i].isspace():
            i += 1
        if i >= n:
            break
        start = i
        while i < n and attr_text[i] not in "= \t\n":
            i += 1
        name = attr_text[start:i].lower()
        if not name:
            i += 1
            continue
        while i < n and attr_text[i].isspace():
            i += 1
        if i < n and attr_text[i] == "=":
            i += 1
            while i < n and attr_text[i].isspace():
                i += 1
            if i < n and attr_text[i] in "\"'":
                quote = attr_text[i]
                end = attr_text.find(quote, i + 1)
                if end < 0:
                    end = n
                attrs[name] = unescape(attr_text[i + 1 : end])
                i = end + 1
            else:
                start = i
                while i < n and not attr_text[i].isspace():
                    i += 1
                attrs[name] = unescape(attr_text[start:i])
        else:
            attrs[name] = ""
    return attrs
