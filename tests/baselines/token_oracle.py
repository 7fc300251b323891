"""Test oracles over DiffMK's token lists."""

from repro.baselines.diffmk import DiffMkResult
from repro.core.lcs import myers_opcodes


def patch_tokens(old_tokens: list[str], new_tokens: list[str]) -> list[str]:
    """Replay the Myers opcodes over token lists."""
    out: list[str] = []
    for tag, i1, i2, j1, j2 in myers_opcodes(old_tokens, new_tokens):
        if tag == "equal":
            out.extend(old_tokens[i1:i2])
        elif tag == "insert":
            out.extend(new_tokens[j1:j2])
    return out


def edit_tokens(result: DiffMkResult) -> int:
    """Total number of tokens a DiffMK edit script mentions."""
    return sum(len(run) for run in result.inserted) + sum(
        len(run) for run in result.deleted
    )
