"""Spec-example checks that need the real benchmark files; they skip when
the data is not mounted (see README for the layout)."""

import pytest

from conftest import require_dataset
from fggsl import datasets
from fggsl.graphs import EdgeList, heterophilic_fraction


@pytest.fixture(scope="module")
def texas():
    return datasets.load_dataset_dir(require_dataset("texas"))


def test_texas_dimensions(texas):
    assert texas.graph.n == 183
    assert texas.graph.num_classes == 5


def test_texas_heterophily_ratio(texas):
    r = heterophilic_fraction(texas.graph.labels, EdgeList.from_dense(texas.graph.adjacency).pairs)
    assert r == pytest.approx(0.88, abs=0.02)


def test_texas_has_ten_splits(texas):
    assert len(texas.graph.splits) == 10


def test_candidate_given_matches_raw_edges(texas):
    cand = datasets.candidate_graph(texas.graph, "given")
    assert (cand.adjacency > 0).sum() == (texas.graph.adjacency > 0).sum()
