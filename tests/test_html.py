"""Unit tests for the HTML parser, DOM, and serializer."""

from repro.browser.html import (
    Document,
    Element,
    Text,
    escape_text,
    parse_html,
    serialize,
    unescape,
)


class TestParsing:
    def test_simple_document(self):
        doc = parse_html("<html><body><p>hello</p></body></html>")
        p = doc.select("p")
        assert p is not None
        assert p.text_content() == "hello"

    def test_attributes(self):
        doc = parse_html('<input type="text" name="title" value="Home">')
        el = doc.select("input")
        assert el.attrs == {"type": "text", "name": "title", "value": "Home"}

    def test_single_quoted_and_bare_attributes(self):
        doc = parse_html("<div id='x' data=plain hidden></div>")
        el = doc.get_element_by_id("x")
        assert el.attrs["data"] == "plain"
        assert el.attrs["hidden"] == ""

    def test_void_elements_do_not_nest(self):
        doc = parse_html("<form><input name='a'><input name='b'></form>")
        form = doc.select("form")
        inputs = form.find_all("input")
        assert len(inputs) == 2
        assert all(el.parent is form for el in inputs)

    def test_entities_unescaped_in_text(self):
        doc = parse_html("<p>&lt;script&gt;alert&#39;&amp;</p>")
        assert doc.select("p").text_content() == "<script>alert'&"

    def test_escaped_script_is_text_not_element(self):
        # The core of every XSS fix: escaped payloads must not parse as script.
        doc = parse_html("<body>&lt;script&gt;evil()&lt;/script&gt;</body>")
        assert doc.scripts() == []
        assert "<script>" in doc.select("body").text_content()

    def test_script_element_content_is_raw(self):
        doc = parse_html("<script>if (1 < 2) { go('x'); }</script>")
        scripts = doc.scripts()
        assert len(scripts) == 1
        assert scripts[0].text_content() == "if (1 < 2) { go('x'); }"

    def test_raw_text_closers_match_in_any_case(self):
        doc = parse_html(
            "<body><script>a = '</b>';</SCRIPT><p>between</p>"
            "<style>p { x: 1 }</Style ><script>b()</sCrIpT><p>after</p></body>"
        )
        assert [s.text_content() for s in doc.scripts()] == ["a = '</b>';", "b()"]
        assert doc.root.find("style").text_content() == "p { x: 1 }"
        assert [p.text_content() for p in doc.root.find_all("p")] == ["between", "after"]

    def test_comment_skipped(self):
        doc = parse_html("<body><!-- secret --><p>x</p></body>")
        assert "secret" not in doc.select("body").text_content()

    def test_doctype_skipped(self):
        doc = parse_html("<!DOCTYPE html><html><body>x</body></html>")
        assert doc.select("body").text_content() == "x"

    def test_unclosed_tags_recovered(self):
        doc = parse_html("<div><p>one<p>two</div>")
        assert doc.select("div") is not None

    def test_stray_lt_is_literal_text(self):
        doc = parse_html("<p>a < b</p>")
        assert doc.select("p").text_content() == "a < b"

    def test_textarea_value(self):
        doc = parse_html("<textarea name='body'>content here</textarea>")
        el = doc.select("textarea")
        assert el.value == "content here"
        el.value = "new content"
        assert el.text_content() == "new content"

    def test_input_value_property(self):
        doc = parse_html("<input name='t' value='v0'>")
        el = doc.select("input")
        assert el.value == "v0"
        el.value = "v1"
        assert el.attrs["value"] == "v1"


class TestSelectors:
    def test_by_id(self):
        doc = parse_html("<div id='main'><span id='inner'>x</span></div>")
        assert doc.get_element_by_id("inner").tag == "span"
        assert doc.select("#main").tag == "div"

    def test_by_tag_and_attr(self):
        doc = parse_html("<input name='a'><input name='b'>")
        assert doc.select("input[name=b]").attrs["name"] == "b"

    def test_missing_returns_none(self):
        doc = parse_html("<p>x</p>")
        assert doc.select("#nope") is None
        assert doc.select("table") is None


class TestSerialization:
    def test_roundtrip_preserves_structure(self):
        markup = '<html><body><div id="d"><p>hi &amp; bye</p></div></body></html>'
        doc = parse_html(markup)
        again = parse_html(serialize(doc.root))
        assert again.select("p").text_content() == "hi & bye"

    def test_text_escaped_on_serialize(self):
        root = Element("p")
        root.append(Text("<script>x</script>"))
        assert "&lt;script&gt;" in serialize(root)

    def test_attr_escaped_on_serialize(self):
        el = Element("input", {"value": 'say "hi"'})
        assert "&quot;hi&quot;" in serialize(el)

    def test_script_raw_roundtrip(self):
        doc = parse_html("<script>a < b && c > d</script>")
        out = serialize(doc.root)
        again = parse_html(out)
        assert again.scripts()[0].text_content() == "a < b && c > d"

    def test_unescape_numeric_entity(self):
        assert unescape("&#65;") == "A"

    def test_escape_text(self):
        assert escape_text("<&>") == "&lt;&amp;&gt;"
