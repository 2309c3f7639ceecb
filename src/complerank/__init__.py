"""Two-stage LLM reranking for complementary product recommendation.

Retrieve candidates with any relevance-score source, rerank them with a
diversity agent, refine the head of the list with an accuracy agent, and
evaluate every stage with Hit@K, NDCG@K, title-token entropy and vocabulary
size.  Deterministic mock agents and a synthetic catalog generator make the
whole pipeline testable without a live model.

Import the submodules (``complerank.catalog``, ``complerank.cli`` and so
on); the package root exports only ``__version__``.
"""

__version__ = "0.1.0"
