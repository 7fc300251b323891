"""Small word corpus for synthetic text generation.

The change simulator and the document generators compose text values from
this vocabulary plus counters, matching the paper's "original text using
counters" approach — generated text is unique when it must be, yet shares
enough words with other text for similarity-based baselines (LaDiff) to
have something to work with.
"""

from __future__ import annotations

import random

__all__ = ["WORDS", "draw_below", "make_text"]

WORDS = (
    "data web xml document change version delta node tree element "
    "attribute value price product catalog item title index query "
    "warehouse crawler server page site link section content update "
    "insert delete move match subtree signature weight hash label "
    "order parent child ancestor descendant text result system time "
    "storage memory speed quality measure test sample model random "
    "digital camera phone laptop screen battery power cable adapter "
    "red green blue large small heavy light fast slow new old good"
).split()


def draw_below(getrandbits, n: int) -> int:
    """A uniform integer in ``[0, n)``, drawn as ``random.Random`` draws it.

    ``getrandbits`` is the bound method of a :class:`random.Random`.  The
    draw is the one ``rng._randbelow(n)`` makes, so ``rng.randrange(n)``,
    ``a + rng.randrange(b - a + 1)`` (``rng.randint(a, b)``) and
    ``seq[rng.randrange(len(seq))]`` (``rng.choice(seq)``) can be
    replaced by it without changing the sequence of draws, at one call
    per draw instead of three.

    Raises:
        ValueError: if ``n`` is not positive (the range is empty).
    """
    if n <= 0:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def make_text(
    rng: random.Random,
    min_words: int = 2,
    max_words: int = 10,
    counter: int | None = None,
) -> str:
    """A random sentence; ``counter`` makes it globally unique."""
    getrandbits = rng.getrandbits
    count = min_words + draw_below(getrandbits, max_words - min_words + 1)
    # Each word is drawn as ``draw_below(getrandbits, len(WORDS))``
    # draws, with its loop inlined: a text draws a dozen words on
    # average, and these draws are most of the generator's work.
    vocabulary = len(WORDS)
    bits = vocabulary.bit_length()
    words = []
    add = words.append
    for _ in range(count):
        r = getrandbits(bits)
        while r >= vocabulary:
            r = getrandbits(bits)
        add(WORDS[r])
    if counter is not None:
        words.append(f"#{counter}")
    return " ".join(words)
