"""Unit tests for repro.core.content_type (§3.1 inference)."""

from __future__ import annotations

import pytest

from repro.core.content_type import (
    infer_content_type,
    mime_class,
    type_from_extension,
    type_from_mime,
)
from repro.filterlist.options import ContentType


class TestExtensionMap:
    @pytest.mark.parametrize(
        "url,expected",
        [
            ("http://x.example/a.png", ContentType.IMAGE),
            ("http://x.example/a.GIF?b=1", ContentType.IMAGE),
            ("http://x.example/a.css", ContentType.STYLESHEET),
            ("http://x.example/a.js", ContentType.SCRIPT),
            ("http://x.example/v.mp4", ContentType.MEDIA),
            ("http://x.example/v.avi", ContentType.MEDIA),
            ("http://x.example/f.woff", ContentType.FONT),
            ("http://x.example/m.swf", ContentType.OBJECT),
            ("http://x.example/page", None),
            ("http://x.example/a.xyz", None),
        ],
    )
    def test_cases(self, url, expected):
        assert type_from_extension(url) == expected


class TestMimeMap:
    @pytest.mark.parametrize(
        "mime,expected",
        [
            ("image/gif", ContentType.IMAGE),
            ("image/png; charset=binary", ContentType.IMAGE),
            ("text/css", ContentType.STYLESHEET),
            ("application/javascript", ContentType.SCRIPT),
            ("text/javascript", ContentType.SCRIPT),
            ("video/mp4", ContentType.MEDIA),
            ("audio/mpeg", ContentType.MEDIA),
            ("application/x-shockwave-flash", ContentType.OBJECT),
            ("application/json", ContentType.XMLHTTPREQUEST),
            ("text/plain", ContentType.OTHER),
            ("text/x-c", ContentType.OTHER),
            (None, None),
            ("", None),
        ],
    )
    def test_cases(self, mime, expected):
        assert type_from_mime(mime) == expected

    def test_html_document_vs_subdocument(self):
        assert type_from_mime("text/html", is_page_root=True) == ContentType.DOCUMENT
        assert type_from_mime("text/html", is_page_root=False) == ContentType.SUBDOCUMENT


class TestInference:
    def test_extension_wins_by_default(self):
        # The paper's rule of thumb: header only when extension fails.
        inferred = infer_content_type("http://x.example/a.js", "text/html")
        assert inferred == ContentType.SCRIPT

    def test_header_fallback(self):
        inferred = infer_content_type("http://x.example/resource", "image/gif")
        assert inferred == ContentType.IMAGE

    def test_header_first_ablation(self):
        inferred = infer_content_type(
            "http://x.example/a.js", "text/html", extension_first=False
        )
        assert inferred == ContentType.SUBDOCUMENT

    def test_nothing_known(self):
        assert infer_content_type("http://x.example/x", None) == ContentType.OTHER
        assert (
            infer_content_type("http://x.example/x", None, is_page_root=True)
            == ContentType.DOCUMENT
        )

    @pytest.mark.parametrize("mime", ["text/html", "application/xhtml+xml; charset=utf-8",
                                      "image/png", "application/json", "bogus/x", None, ""])
    @pytest.mark.parametrize("is_page_root", [False, True])
    @pytest.mark.parametrize("extension_first", [True, False])
    def test_header_type_stands_in_for_the_header(self, mime, is_page_root, extension_first):
        """Passing type_from_mime's result types exactly like the header
        itself — an HTML page root is still a DOCUMENT."""
        url = "http://x.example/page"
        expected = infer_content_type(url, mime, is_page_root=is_page_root,
                                      extension_first=extension_first)
        assert infer_content_type(url, type_from_mime(mime), is_page_root=is_page_root,
                                  extension_first=extension_first) == expected
        if mime == "text/html":
            assert expected == (ContentType.DOCUMENT if is_page_root else ContentType.SUBDOCUMENT)

    def test_mislabel_reproduces_paper_false_positive_channel(self):
        # A JavaScript object served as text/html with no extension is
        # typed subdocument — the paper's main mis-classification
        # source (§4.2).
        inferred = infer_content_type("http://x.example/jsgen?cb=1", "text/html")
        assert inferred == ContentType.SUBDOCUMENT


class TestMimeClass:
    @pytest.mark.parametrize(
        "mime,expected",
        [
            ("image/gif", "image"),
            ("text/plain", "text"),
            ("text/html", "text"),
            ("video/mp4", "video"),
            ("audio/ogg", "video"),
            ("application/xml", "app"),
            (None, "other"),
        ],
    )
    def test_cases(self, mime, expected):
        assert mime_class(mime) == expected
