"""XML substrate: document model, parser, serializer, DTD, paths.

Everything the diff needs from "an XML library", built from scratch on the
stdlib expat bindings.  See the individual modules for details:

- :mod:`repro.xmlkit.model` — ordered-tree node classes and traversals.
- :mod:`repro.xmlkit.parser` — expat-based parser (`parse`, `parse_file`).
- :mod:`repro.xmlkit.serializer` — writer (`serialize`, `write_file`).
- :mod:`repro.xmlkit.dtd` — minimal DTD declarations (ID attribute discovery).
- :mod:`repro.xmlkit.canonical` — canonical byte form used for hashing.
- :mod:`repro.xmlkit.path` — node paths and label patterns.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ApplyError",
    "AttributeDecl",
    "Comment",
    "DeltaError",
    "Document",
    "Dtd",
    "DtdError",
    "Element",
    "ElementDecl",
    "LabelPattern",
    "Node",
    "PathError",
    "ProcessingInstruction",
    "ReproError",
    "RepositoryError",
    "StorageError",
    "Text",
    "VOID_ELEMENTS",
    "XmlParseError",
    "XmlSerializeError",
    "canonical_bytes",
    "coalesce_text",
    "content_fingerprint",
    "document_byte_size",
    "escape_attribute",
    "escape_text",
    "find_all",
    "htmlize",
    "infer_dtd",
    "infer_id_attributes",
    "format_dtd",
    "label_path_of",
    "node_at_path",
    "parse",
    "parse_dtd",
    "parse_file",
    "path_of",
    "postorder",
    "preorder",
    "serialize",
    "serialize_bytes",
    "write_file",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "canonical": ("canonical_bytes", "content_fingerprint"),
    "dtd": ("AttributeDecl", "Dtd", "ElementDecl", "format_dtd", "parse_dtd"),
    "errors": (
        "ApplyError", "DeltaError", "DtdError", "PathError", "ReproError",
        "RepositoryError", "StorageError", "XmlParseError",
        "XmlSerializeError",
    ),
    "htmlize": ("VOID_ELEMENTS", "htmlize"),
    "infer": ("infer_dtd", "infer_id_attributes"),
    "model": (
        "Comment", "Document", "Element", "Node", "ProcessingInstruction",
        "Text", "coalesce_text", "postorder", "preorder",
    ),
    "parser": ("parse", "parse_file"),
    "path": (
        "LabelPattern", "find_all", "label_path_of", "node_at_path",
        "path_of",
    ),
    "serializer": (
        "document_byte_size", "escape_attribute", "escape_text", "serialize",
        "serialize_bytes", "write_file",
    ),
})
