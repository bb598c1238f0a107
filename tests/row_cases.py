"""The six-dimensional rows by label, and one test id per row and per flip.

The labels are written out, so pytest collects a test parametrized over
`CASE_IDS` without running the search, and a fault in the search fails
those tests instead of stopping collection.  `rows_and_flips` maps each id
to its record once the search has run.
"""

LABELS = (
    "I-1", "I-2", "I-3",
    "II-3.1", "II-3.2", "II-3.3", "II-4.1", "II-4.1b", "II-4.2",
    "III-1", "III-2", "III-3.1", "III-3.2", "III-3.3",
    "III-4.1", "III-4.2", "III-4.3", "III-4.4", "III-4.5",
)

CASE_IDS = tuple(case for label in LABELS for case in (label, f"{label}-flip"))


def rows_and_flips(rows):
    """Each row under its label and its flip under the label with -flip."""
    from hamfix.classify6 import flip

    cases = {}
    for t in rows:
        cases[t.label] = t
        cases[f"{t.label}-flip"] = flip(t)
    return cases
