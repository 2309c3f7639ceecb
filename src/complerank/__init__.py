"""Two-stage LLM reranking for complementary product recommendation.

Retrieve candidates with any relevance-score source, rerank them with a
diversity agent, refine the head of the list with an accuracy agent, and
evaluate every stage with Hit@K, NDCG@K, title-token entropy and vocabulary
size.  Deterministic mock agents and a synthetic catalog generator make the
whole pipeline testable without a live model.
"""

from .agents import AgentKind, LlmConfig, build_prompt, complete, mock_agent, parse_permutation
from .catalog import ComplementGraph, Item, QueryInstance, load_catalog, split_holdout
from .metrics import entropy_at_k, hit_at_k, lift, lift_with_stderr, ndcg_at_k, tokenize, vocab_at_k
from .pipeline import PipelineConfig, run_all, run_pipeline
from .retriever import CandidateList, HeuristicRetriever, PrecomputedRetriever, score_pair
from .synth import SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "AgentKind",
    "CandidateList",
    "ComplementGraph",
    "HeuristicRetriever",
    "Item",
    "LlmConfig",
    "PipelineConfig",
    "PrecomputedRetriever",
    "QueryInstance",
    "SynthConfig",
    "build_prompt",
    "complete",
    "entropy_at_k",
    "generate",
    "hit_at_k",
    "lift",
    "lift_with_stderr",
    "load_catalog",
    "mock_agent",
    "ndcg_at_k",
    "parse_permutation",
    "run_all",
    "run_pipeline",
    "score_pair",
    "split_holdout",
    "tokenize",
    "vocab_at_k",
]
