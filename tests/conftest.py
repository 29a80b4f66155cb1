"""Shared pytest wiring: the acceptance suite's verdict lines, and test graphs.

Verdicts are echoed after the run summary so they stay visible even
though pytest captures stdout of passing tests.
"""

import os
from pathlib import Path

import numpy as np

from spectral_chroma.experiments import DEFAULT_NAMED, parse_graph_file, resolve_graph_input
from spectral_chroma.graphs import Graph
from spectral_chroma.oracle import all_graphs

ACCEPTANCE_VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    ACCEPTANCE_VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def orthogonality_graph(k):
    """Omega_k: the +-1 vectors of length k up to sign, adjacent when orthogonal.

    Vertex i is the vector with first entry +1 and entry j + 1 equal to
    -1 exactly when bit j of i is set, so there are 2^(k-1) vertices.
    """

    bits = (np.arange(2 ** (k - 1))[:, None] >> np.arange(k - 1)) & 1
    vectors = np.hstack([np.ones((bits.shape[0], 1)), 1 - 2 * bits])
    gram = vectors @ vectors.T
    rows, cols = np.nonzero(np.triu(gram == 0, 1))
    return from_edges(vectors.shape[0], zip(rows.tolist(), cols.tolist()))


def small_and_named_graphs():
    """Every graph on at most 5 vertices, then the default comparison graphs."""

    small = [g for n in range(1, 6) for g in all_graphs(n)]
    return small + [resolve_graph_input(text) for text in DEFAULT_NAMED]


def from_edges(n, edges):
    """Build a Graph from any iterable of endpoint pairs."""

    return Graph(n, [(int(u), int(v)) for u, v in edges])


def load_no_perfect_matching():
    """The 16-vertex matching-free comparison graph, if a file provides it.

    Its construction is not specified anywhere in scope, so it can only
    be loaded, from the path in SPECTRAL_CHROMA_NPM_FILE. Returns None
    when that variable is unset or empty.
    """

    env_path = os.environ.get("SPECTRAL_CHROMA_NPM_FILE")
    if not env_path:
        return None
    return parse_graph_file(Path(env_path).read_text(encoding="ascii"))
