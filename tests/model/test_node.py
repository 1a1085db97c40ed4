"""Tests of the node model."""

import pytest

from repro.model.node import Node, NodeRole, make_working_nodes
from repro.model.resources import ResourceVector


class TestNode:
    def test_capacity_vector(self):
        node = Node(name="n1", cpu_capacity=2, memory_capacity=4096)
        assert node.capacity == ResourceVector(2, 4096)

    def test_default_role_is_working(self):
        assert Node(name="n1").role is NodeRole.WORKING
        assert Node(name="n1").role is NodeRole.WORKING

    def test_storage_node_is_not_working(self):
        node = Node(name="nfs1", role=NodeRole.STORAGE)
        assert node.role is not NodeRole.WORKING

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Node(name="")

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Node(name="n1", cpu_capacity=-1)
        with pytest.raises(ValueError):
            Node(name="n1", memory_capacity=-5)

    def test_str_is_name(self):
        assert str(Node(name="node-7")) == "node-7"

    def test_nodes_are_immutable(self):
        node = Node(name="n1")
        with pytest.raises(AttributeError):
            node.cpu_capacity = 8  # type: ignore[misc]


class TestMakeWorkingNodes:
    def test_count_and_names(self):
        nodes = make_working_nodes(4, prefix="host")
        assert len(nodes) == 4
        assert [n.name for n in nodes] == ["host-0", "host-1", "host-2", "host-3"]

    def test_homogeneous_capacities(self):
        nodes = make_working_nodes(3, cpu_capacity=4, memory_capacity=8192)
        assert all(n.capacity == ResourceVector(4, 8192) for n in nodes)

    def test_zero_nodes(self):
        assert make_working_nodes(0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            make_working_nodes(-1)
