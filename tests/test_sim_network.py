"""Unit tests for the simulated network, topology, and fault injection."""

import pytest

from repro.sim import (
    AddressError,
    FaultInjector,
    LinkModel,
    Network,
    NetworkConfig,
    RandomSource,
    SimKernel,
    Transport,
)


@pytest.fixture()
def net():
    kernel = SimKernel()
    network = Network(kernel)
    return kernel, network


def make_pair(network):
    n1 = network.add_node("n1")
    n2 = network.add_node("n2")
    p1 = network.add_process("p1", n1)
    p2 = network.add_process("p2", n2)
    return p1, p2


def test_link_model_time():
    link = LinkModel(latency=1e-6, bandwidth=1e9)
    assert link.time(0) == pytest.approx(1e-6)
    assert link.time(10**9) == pytest.approx(1.000001)
    with pytest.raises(ValueError):
        link.time(-1)


def test_network_config_resolves_links_from_one_table():
    import dataclasses

    config = NetworkConfig()
    assert config.link(Transport.SELF) is config.self_link
    assert config.link(Transport.SM) is config.sm
    assert config.link(Transport.FABRIC) is config.fabric
    assert config.link(Transport.RDMA) is config.rdma
    assert config.link(Transport.TCP) is config.tcp
    assert config.link("fab" + "ric") is config.fabric  # by value, not identity
    with pytest.raises(AddressError, match="unknown transport"):
        config.link("carrier-pigeon")
    with pytest.raises(ValueError, match="negative message size"):
        config.link(Transport.SM).time(-1)
    assert config.link(Transport.SM).time(0) == config.sm.latency
    assert config.link(Transport.SM).time(4096) == config.sm.latency + 4096 / config.sm.bandwidth
    slow = dataclasses.replace(config, fabric=LinkModel(latency=1e-3, bandwidth=1e6))
    assert slow.link(Transport.FABRIC).latency == 1e-3
    assert slow == dataclasses.replace(config, fabric=LinkModel(latency=1e-3, bandwidth=1e6))
    assert config.link(Transport.FABRIC).latency == 2.0e-6


def test_transport_selection(net):
    _, network = net
    n1 = network.add_node("n1")
    n2 = network.add_node("n2")
    a = network.add_process("a", n1)
    b = network.add_process("b", n1)
    c = network.add_process("c", n2)
    assert network.transport_between(a, a) == Transport.SELF
    assert network.transport_between(a, b) == Transport.SM
    assert network.transport_between(a, c) == Transport.FABRIC


def test_bulk_uses_rdma_across_nodes(net):
    _, network = net
    p1, p2 = make_pair(network)
    rpc_time = network.transfer_time(p1, p2, 1 << 20, bulk=False)
    bulk_time = network.transfer_time(p1, p2, 1 << 20, bulk=True)
    assert bulk_time < rpc_time  # rdma bandwidth > fabric bandwidth


def test_duplicate_node_and_process_names_rejected(net):
    _, network = net
    network.add_node("n1")
    with pytest.raises(ValueError):
        network.add_node("n1")
    network.add_process("p1", "n1")
    with pytest.raises(ValueError):
        network.add_process("p1", "n1")


def test_lookup_unknown_address(net):
    _, network = net
    with pytest.raises(AddressError):
        network.lookup("na+ofi://nowhere/none")


def test_message_delivery_and_cost(net):
    kernel, network = net
    p1, p2 = make_pair(network)
    received = []
    p2.on_message = received.append
    network.send(p1, p2.address, {"x": 1}, size=1000)
    kernel.run()
    assert received == [{"x": 1}]
    expected = network.config.fabric.time(1000) + network.config.send_overhead
    assert kernel.now == pytest.approx(expected)


def test_send_to_unknown_address_returns_false(net):
    _, network = net
    p1, _ = make_pair(network)
    assert network.send(p1, "na+ofi://x/y", "m", 10) is False
    assert network.messages_dropped == 1


def test_a_refused_send_counts_nothing(net):
    """A negative size is refused before any counter moves, to a known
    address or not (an unknown one raises too, rather than returning
    False)."""
    kernel, network = net
    p1, p2 = make_pair(network)
    received = []
    p2.on_message = received.append
    for address in (p2.address, "na+ofi://x/y"):
        with pytest.raises(ValueError):
            network.send(p1, address, "m", -75)
    assert (network.messages_sent, network.bytes_sent, network.messages_dropped) == (0, 0, 0)
    kernel.run()
    assert received == []


def test_partition_blocks_delivery(net):
    kernel, network = net
    p1, p2 = make_pair(network)
    received = []
    p2.on_message = received.append
    network.partition("n1", "n2")
    network.send(p1, p2.address, "m", 10)
    kernel.run()
    assert received == []
    network.heal("n1", "n2")
    network.send(p1, p2.address, "m", 10)
    kernel.run()
    assert received == ["m"]


def test_partition_does_not_block_same_node(net):
    kernel, network = net
    n1 = network.add_node("n1")
    a = network.add_process("a", n1)
    b = network.add_process("b", n1)
    received = []
    b.on_message = received.append
    network.partition("n1", "n1")  # nonsensical but must not break intra-node
    network.send(a, b.address, "m", 10)
    kernel.run()
    assert received == ["m"]


def test_message_loss_probability(net):
    kernel, network = net
    p1, p2 = make_pair(network)
    received = []
    p2.on_message = received.append
    network.loss_probability = 0.5
    for _ in range(200):
        network.send(p1, p2.address, "m", 10)
    kernel.run()
    assert 40 < len(received) < 160  # ~100 expected


def test_loss_never_applies_to_self_send(net):
    kernel, network = net
    n1 = network.add_node("n1")
    a = network.add_process("a", n1)
    a.on_message = lambda m: received.append(m)
    received = []
    network.loss_probability = 1.0
    for _ in range(10):
        network.send(a, a.address, "m", 10)
    kernel.run()
    assert len(received) == 10


def test_dead_receiver_drops_message(net):
    kernel, network = net
    p1, p2 = make_pair(network)
    received = []
    p2.on_message = received.append
    injector = FaultInjector(kernel, network)
    network.send(p1, p2.address, "m", 10)
    injector.kill_process(p2)  # dies before delivery
    kernel.run()
    assert received == []


def test_kill_process_fires_callbacks(net):
    kernel, network = net
    p1, _ = make_pair(network)
    calls = []
    p1.on_killed.append(lambda: calls.append("died"))
    injector = FaultInjector(kernel, network)
    injector.kill_process(p1)
    injector.kill_process(p1)  # idempotent
    assert calls == ["died"]
    assert not p1.alive
    assert injector.history[0].kind == "process"


def test_kill_node_kills_processes_and_wipes_storage(net):
    kernel, network = net
    n1 = network.add_node("n1")
    a = network.add_process("a", n1)
    b = network.add_process("b", n1)

    class FakeStore:
        wiped = False

        def wipe(self):
            self.wiped = True

    store = FakeStore()
    n1.attach("disk", store)
    injector = FaultInjector(kernel, network)
    injector.kill_node(n1)
    assert not n1.alive and not a.alive and not b.alive
    assert store.wiped


def test_scheduled_faults(net):
    kernel, network = net
    p1, p2 = make_pair(network)
    injector = FaultInjector(kernel, network)
    injector.kill_process_at(5.0, p1)
    kernel.run()
    assert not p1.alive
    assert kernel.now == pytest.approx(5.0)


def test_random_source_streams_are_stable_and_independent():
    a = RandomSource(42)
    b = RandomSource(42)
    # Same name -> same sequence.
    assert [a.stream("x").random() for _ in range(3)] == [
        b.stream("x").random() for _ in range(3)
    ]
    # Consuming another stream does not perturb an existing one.
    c = RandomSource(42)
    c.stream("y").random()
    assert c.stream("x").random() == RandomSource(42).stream("x").random()
    # Different seeds differ.
    assert RandomSource(1).stream("x").random() != RandomSource(2).stream("x").random()


def test_random_source_fork():
    root = RandomSource(7)
    child1 = root.fork("p1")
    child2 = root.fork("p2")
    assert child1.seed != child2.seed
    assert root.fork("p1").seed == child1.seed


# ----------------------------------------------------------------------
# route table: each case runs after src's route to dst is cached
# ----------------------------------------------------------------------
def cached_pair(network):
    p1, p2 = make_pair(network)
    received = []
    p2.on_message = received.append
    assert network.send(p1, p2.address, "warm", 10) is True
    assert p2.address in p1.routes
    return p1, p2, received


def test_cached_route_honours_a_later_partition_and_heal(net):
    kernel, network = net
    p1, p2, received = cached_pair(network)
    network.partition("n1", "n2")
    assert network.send(p1, p2.address, "cut", 10) is True
    kernel.run()
    assert received == ["warm"]
    network.heal("n1", "n2")
    network.send(p1, p2.address, "healed", 10)
    kernel.run()
    assert received == ["warm", "healed"]


def test_route_to_a_process_added_later(net):
    kernel, network = net
    p1, _, _ = cached_pair(network)
    address = "na+ofi://n2/p3"
    assert network.send(p1, address, "m", 10) is False
    assert address not in p1.routes  # an unknown address is never cached
    p3 = network.add_process("p3", "n2")
    assert p3.address == address and p1.routes == {}
    received = []
    p3.on_message = received.append
    assert network.send(p1, address, "m", 10) is True
    kernel.run()
    assert received == ["m"]


def test_removed_process_is_unknown_again(net):
    _, network = net
    p1, p2, _ = cached_pair(network)
    network.remove_process(p2)
    assert network.send(p1, p2.address, "m", 10) is False


def test_cached_route_to_a_killed_process_drops_at_delivery(net):
    kernel, network = net
    p1, p2, received = cached_pair(network)
    kernel.run()
    FaultInjector(kernel, network).kill_process(p2)
    assert network.send(p1, p2.address, "m", 10) is True
    kernel.run()
    assert received == ["warm"]


def test_cached_route_keeps_loss_and_spares_self_sends(net):
    kernel, network = net
    p1, p2, received = cached_pair(network)
    mine = []
    p1.on_message = mine.append
    network.send(p1, p1.address, "warm", 10)
    kernel.run()
    network.loss_probability = 1.0
    for _ in range(5):
        network.send(p1, p2.address, "lost", 10)
        network.send(p1, p1.address, "kept", 10)
    kernel.run()
    assert received == ["warm"]
    assert mine == ["warm"] + ["kept"] * 5


SIZES = (0, 1, 64 * 1024)


def test_routes_cost_exactly_what_transfer_time_says(net):
    kernel, network = net
    n1 = network.add_node("n1")
    n2 = network.add_node("n2")
    src = network.add_process("src", n1)
    peers = {
        Transport.SELF: src,
        Transport.SM: network.add_process("sm", n1),
        Transport.FABRIC: network.add_process("fabric", n2),
    }
    arrivals = []
    for transport, dst in peers.items():
        assert network.transport_between(src, dst) == transport
        dst.on_message = lambda m: arrivals.append(kernel.now)
        for size in SIZES:
            for _ in range(2):  # cold route, then cached
                start = kernel.now
                network.send(src, dst.address, None, size)
                kernel.run()
                expected = network.transfer_time(src, dst, size) + network.config.send_overhead
                assert arrivals[-1] == start + expected


def test_bulk_routes_cost_exactly_what_transfer_time_says():
    from repro import Cluster

    cluster = Cluster(seed=1)
    client = cluster.add_margo("client", node="n0")
    peers = {
        Transport.SELF: client,
        Transport.SM: cluster.add_margo("sm", node="n0"),
        Transport.FABRIC: cluster.add_margo("fabric", node="n1"),
    }

    def driver(address, size):
        return (yield from client.bulk_transfer(address, size))

    network = cluster.network
    for transport, peer in peers.items():
        assert network.transport_between(client.process, peer.process) == transport
        for size in SIZES:
            for _ in range(2):  # cold route, then cached
                duration = cluster.run_ult(client, driver(peer.address, size))
                assert duration == network.transfer_time(
                    client.process, peer.process, size, bulk=True
                )


def test_fault_records_name_nodes_in_the_given_order(net):
    kernel, network = net
    n1 = network.add_node("n1")
    n2 = network.add_node("n2")
    injector = FaultInjector(kernel, network)
    injector.partition(n1, n2)
    injector.heal("n1", "n2")
    injector.partition(n2, "n1")
    assert [(r.kind, r.target) for r in injector.history] == [
        ("partition", "n1|n2"),
        ("heal", "n1|n2"),
        ("partition", "n2|n1"),
    ]
    assert network.is_partitioned(n1, n2)
