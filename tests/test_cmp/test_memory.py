"""Tests for the bandwidth-limited memory extension."""

import pytest

from repro.config import ProcessorConfig, SimulationConfig, config_unpartitioned
from repro.cmp.memory import MemoryChannel
from repro.cmp.simulator import run_workload
from repro.workloads.generator import generate_workload_traces


class TestMemoryChannel:
    def test_unlimited_bandwidth_never_queues(self):
        ch = MemoryChannel(service_interval=0, latency=250)
        assert ch.request(100.0) == 350.0
        assert ch.request(100.0) == 350.0
        assert ch.queue_cycles == 0.0

    def test_back_to_back_requests_queue(self):
        ch = MemoryChannel(service_interval=10, latency=250)
        assert ch.request(0.0) == 250.0      # issues at 0
        assert ch.request(0.0) == 260.0      # issues at 10
        assert ch.request(0.0) == 270.0      # issues at 20
        assert ch.queue_cycles == 30.0

    def test_idle_channel_serves_immediately(self):
        ch = MemoryChannel(service_interval=10, latency=250)
        ch.request(0.0)
        assert ch.request(1000.0) == 1250.0  # long idle gap: no queueing
        assert ch.queue_cycles == 0.0

    def test_average_queue_delay(self):
        ch = MemoryChannel(service_interval=10, latency=0)
        ch.request(0.0)
        ch.request(0.0)
        assert ch.average_queue_delay == 5.0

    def test_reset(self):
        ch = MemoryChannel(service_interval=10, latency=250)
        ch.request(0.0)
        ch.reset()
        assert ch.requests == 0
        assert ch.request(0.0) == 250.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MemoryChannel(-1, 250)
        with pytest.raises(ValueError):
            MemoryChannel(0, -1)


class TestSimulatorIntegration:
    @pytest.fixture(scope="class")
    def setup(self):
        processor = ProcessorConfig(num_cores=2).scaled(16)
        traces = generate_workload_traces(
            ("mcf", "parser"), 15_000, processor.l2.num_lines, seed=8)
        return processor, traces

    def test_zero_interval_is_identical(self, setup):
        processor, traces = setup
        config = config_unpartitioned("lru")
        a = run_workload(processor, config, traces,
                         SimulationConfig(instructions_per_thread=40_000,
                                          seed=8))
        b = run_workload(processor, config, traces,
                         SimulationConfig(instructions_per_thread=40_000,
                                          seed=8, memory_service_interval=0.0))
        assert a.ipcs == b.ipcs
        assert b.events.memory_queue_cycles == 0.0

    def test_limited_bandwidth_slows_and_queues(self, setup):
        processor, traces = setup
        config = config_unpartitioned("lru")
        free = run_workload(processor, config, traces,
                            SimulationConfig(instructions_per_thread=40_000,
                                             seed=8))
        tight = run_workload(
            processor, config, traces,
            SimulationConfig(instructions_per_thread=40_000, seed=8,
                             memory_service_interval=60.0))
        assert tight.events.memory_queue_cycles > 0
        assert tight.throughput < free.throughput

    def test_tighter_bandwidth_is_monotone(self, setup):
        processor, traces = setup
        config = config_unpartitioned("lru")
        throughputs = []
        for interval in (0.0, 30.0, 120.0):
            result = run_workload(
                processor, config, traces,
                SimulationConfig(instructions_per_thread=40_000, seed=8,
                                 memory_service_interval=interval))
            throughputs.append(result.throughput)
        assert throughputs[0] >= throughputs[1] >= throughputs[2]

    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            SimulationConfig(memory_service_interval=-1.0)
