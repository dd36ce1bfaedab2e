import pytest

from descnet.corpus import Document, LabelSpace, build_vocabulary
from descnet.descriptors import build_contingency, score_tokens


@pytest.fixture(scope="session")
def anova_of_counts():
    """F of one token through ``build_contingency`` + ``score_tokens``, from its per-document counts.

    Each count is one document: ``in_counts`` fill class "in" and
    ``out_counts`` class "out". A token in no document is not a column, so
    at least one count must be nonzero.
    """

    def score(in_counts, out_counts) -> float:
        docs = [
            Document(["w"] * int(count), frozenset([class_idx]))
            for class_idx, counts in enumerate((in_counts, out_counts))
            for count in counts
        ]
        stats = build_contingency(docs, build_vocabulary(docs, max_size=3), LabelSpace(("in", "out"), "multi_class"))
        return float(score_tokens(stats, "anova")[0, stats.tokens.index("w")])

    return score
