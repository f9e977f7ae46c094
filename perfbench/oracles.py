"""Expected values for every benchmark operation, computed without heh.

Each oracle is the textbook definition of what a heh program computes:
Ackermann by its recurrence, the natural numbers by index arithmetic,
filter by Python list filtering, Game of Life by finite simulation,
`o2i`/`i2o` by `divmod`, and transfinite printing by golden strings
whose rules were checked by hand against the printer's documented
layout (a bounded prefix per infinite segment).
"""


def ackermann_table(m, n):
    """A(m, n) and every entry its memoized recurrence computes, as a dict
    {(m, n): value}.  An explicit stack keeps deep chains off Python's."""
    memo = {}
    stack = [(m, n)]
    while stack:
        i, j = stack[-1]
        if (i, j) in memo:
            stack.pop()
            continue
        if i == 0:
            memo[(i, j)] = j + 1
            stack.pop()
        elif j == 0:
            if (i - 1, 1) in memo:
                memo[(i, j)] = memo[(i - 1, 1)]
                stack.pop()
            else:
                stack.append((i - 1, 1))
        elif (i, j - 1) not in memo:
            stack.append((i, j - 1))
        else:
            inner = (i - 1, memo[(i, j - 1)])
            if inner in memo:
                memo[(i, j)] = memo[inner]
                stack.pop()
            else:
                stack.append(inner)
    return memo


def life_steps(live, steps, height, width):
    """Conway's Game of Life (B3/S23) on a finite height x width board whose
    outside is dead; `live` is a set of (row, col).  Returns the live set."""
    for _ in range(steps):
        counts = {}
        for r, c in live:
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr or dc:
                        cell = (r + dr, c + dc)
                        counts[cell] = counts.get(cell, 0) + 1
        live = {cell for cell, k in counts.items()
                if 0 <= cell[0] < height and 0 <= cell[1] < width
                and (k == 3 or (k == 2 and cell in live))}
    return live


def mixed_radix_digits(offset, radices):
    """Row-major index vector of `offset` in a box of shape `radices`."""
    digits = []
    for r in reversed(radices):
        offset, digit = divmod(offset, r)
        digits.append(digit)
    return list(reversed(digits))


def mixed_radix_offset(index, radices):
    offset = 0
    for i, r in zip(index, radices):
        offset = offset * r + i
    return offset


### golden text of printed values

def ordinal_text(lead, n):
    """Cantor-normal-form text of `lead + n`, where `lead` is the text of a
    limit ordinal ("" for zero, "w", "w*2", "w^2*3", ...) and n a natural."""
    if not lead:
        return str(n)
    return lead if n == 0 else f"{lead} + {n}"


def nested_list_text(rows):
    if isinstance(rows, list):
        return "[" + ", ".join(nested_list_text(r) for r in rows) + "]"
    return str(rows)


def lazy_text(shape_text, segments):
    """A lazy array as printed: tag, then each segment's forced prefix.  A
    segment that continues past its prefix is followed by "...", and a
    body ending in "..." closes with " ]" instead of "]"."""
    parts = []
    for elements, continues in segments:
        parts.extend(elements)
        if continues:
            parts.append("...")
    body = ", ".join(parts)
    end = " ]" if body.endswith("...") else "]"
    return f"<imap shape=[{shape_text}]> [{body}{end}"
