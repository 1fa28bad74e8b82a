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
