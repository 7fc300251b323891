"""DiffMK-style baseline: flatten the tree, diff the list.

Sun's DiffMK tool (Section 3) computed XML differences by running the
standard Unix diff algorithm over a *list* representation of the document,
"thus losing the benefit of tree structure of XML".  This baseline
reproduces that design:

1. the document is flattened to a token list — one token per tag-open
   (with attributes), tag-close, and text node;
2. Myers' diff runs over the token lists of the two versions;
3. the edit script is reported as inserted/deleted token runs.

The result is *correct* (the token list reconstructs the new document) but
structurally blind: a moved subtree costs a full delete + insert of all its
tokens, and no node identity survives — exactly the weakness the paper's
move-aware diff addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.core.lcs import myers_opcodes
from repro.xmlkit.model import Document, Node
from repro.xmlkit.serializer import escape_attribute, escape_text

__all__ = ["DiffMkResult", "diffmk", "flatten", "node_tokens"]


def node_tokens(document: Document) -> Iterator[tuple[str, Optional[Node]]]:
    """DiffMK's token list, each token with the node that owns it.

    One token per tag-open (with attributes), tag-close and leaf value,
    in document order.  Open and leaf tokens carry their node; close
    tags carry ``None``.
    """
    stack: list = [document]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            yield node, None
            continue
        kind = node.kind
        if kind == "document":
            stack.extend(reversed(node.children))
        elif kind == "element":
            attributes = "".join(
                f' {name}="{escape_attribute(str(value))}"'
                for name, value in sorted(node.attributes.items())
            )
            yield f"<{node.label}{attributes}>", node
            stack.append(f"</{node.label}>")
            stack.extend(reversed(node.children))
        elif kind == "text":
            yield escape_text(node.value), node
        elif kind == "comment":
            yield f"<!--{node.value}-->", node
        else:  # pi
            yield f"<?{node.target} {node.value}?>", node


def flatten(document: Document) -> list[str]:
    """Token-list representation of a document (DiffMK's list view)."""
    return [token for token, _ in node_tokens(document)]


@dataclass
class DiffMkResult:
    """Outcome of a DiffMK-style comparison.

    Attributes:
        inserted: Token runs only present in the new version.
        deleted: Token runs only present in the old version.
        script_bytes: Byte size of the edit script (tokens + markers) —
            comparable to delta byte sizes.
        old_tokens / new_tokens: Flattened list lengths.
    """

    inserted: list[list[str]] = field(default_factory=list)
    deleted: list[list[str]] = field(default_factory=list)
    script_bytes: int = 0
    old_tokens: int = 0
    new_tokens: int = 0


def diffmk(old_document: Document, new_document: Document) -> DiffMkResult:
    """Run the flattened-list diff between two documents."""
    old_tokens = flatten(old_document)
    new_tokens = flatten(new_document)
    opcodes = myers_opcodes(old_tokens, new_tokens)

    result = DiffMkResult(
        old_tokens=len(old_tokens), new_tokens=len(new_tokens)
    )
    script_bytes = 0
    for tag, i1, i2, j1, j2 in opcodes:
        if tag == "delete":
            run = old_tokens[i1:i2]
            result.deleted.append(run)
            script_bytes += sum(len(token.encode("utf-8")) + 3 for token in run)
        elif tag == "insert":
            run = new_tokens[j1:j2]
            result.inserted.append(run)
            script_bytes += sum(len(token.encode("utf-8")) + 3 for token in run)
    result.script_bytes = script_bytes
    return result

