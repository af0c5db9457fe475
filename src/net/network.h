/**
 * @file
 * Latency-modelled network fabric.
 *
 * The simulator does not model packets or bandwidth; DFS metadata messages
 * are small and the paper's performance effects come from per-message
 * latency and queueing at endpoints. Each message class has a jittered
 * one-way latency distribution; endpoints add their own service/queueing
 * time on top.
 */
#pragma once

#include <array>
#include <cstdint>

#include "src/sim/fault.h"
#include "src/sim/latency.h"
#include "src/sim/primitives.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace lfs::net {

/** Message classes with distinct latency characteristics. */
enum class LatencyClass {
    kLocal = 0,    ///< same-VM (client <-> its TCP server)
    kTcp,          ///< direct TCP RPC hop (client <-> NameNode)
    kHttpGateway,  ///< HTTP invocation through the FaaS API gateway
    kStore,        ///< NameNode <-> persistent metadata store hop
    kCoord,        ///< NameNode <-> coordinator hop
    kCount,
};

/** One-way latency distribution: uniform in [min, max]. */
struct LatencyModel {
    sim::SimTime min;
    sim::SimTime max;
};

/**
 * Default latencies calibrated to the paper's measurements: TCP RPCs see
 * 1-2 ms end-to-end (two hops plus service), HTTP RPCs 8-20 ms.
 */
struct NetworkConfig {
    LatencyModel local{sim::usec(5), sim::usec(25)};
    LatencyModel tcp{sim::usec(200), sim::usec(500)};
    LatencyModel http{sim::usec(3500), sim::usec(9000)};
    LatencyModel store{sim::usec(150), sim::usec(350)};
    LatencyModel coord{sim::usec(150), sim::usec(400)};
};

/** The shared fabric; all components transfer messages through it. */
class Network {
  public:
    Network(sim::Simulation& sim, sim::Rng rng, NetworkConfig config = {});

    /** Sample a one-way latency for @p cls (advances the RNG). */
    sim::SimTime sample(LatencyClass cls);

    /**
     * Suspend the calling process for one message delivery of class
     * @p cls: ``co_await transfer(cls)``. An installed FaultPlan may add
     * an extra in-flight delay (delay faults are safe to apply inline on
     * every message; drops and duplicates are not — see message_fault()).
     * The latency is drawn here, when the message is sent, and the
     * returned Delay schedules the one wake-up event: no coroutine frame.
     */
    sim::Delay transfer(LatencyClass cls);

    /** Suspend for a full round trip (two one-way samples). */
    sim::Task<void> round_trip(LatencyClass cls);

    /**
     * One client <-> server round trip over TCP: hop, await @p serve(),
     * hop back, and charge both hops to the reply's kNetClient segment.
     * @p serve is invoked only once the request has landed, so it may
     * read the clock. When a capture of @p serve is not trivially
     * copyable (an Op, say), call this in its own statement, not inside
     * a co_await expression: GCC 12 moves such a closure argument from
     * the wrong temporary there.
     */
    template <typename Serve>
    auto
    client_round(Serve serve) -> decltype(serve())
    {
        sim::SimTime t0 = sim_.now();
        co_await transfer(LatencyClass::kTcp);
        sim::SimTime t1 = sim_.now();
        auto result = co_await serve();
        sim::SimTime t2 = sim_.now();
        co_await transfer(LatencyClass::kTcp);
        if (sim_.attribution()) {
            result.ledger.add(sim::LatSeg::kNetClient,
                              (t1 - t0) + (sim_.now() - t2));
        }
        co_return result;
    }

    /**
     * Consult the installed FaultPlan for the fate of one message on
     * @p channel (no-fault defaults when no plan is installed). Callers
     * sit at protocol points with an end-to-end retry/timeout above them:
     * a "dropped" message simply never arrives and the caller's timeout
     * or ack-retransmission path resolves the silence. @p group, when
     * >= 0, is the remote endpoint's node group for partition checks.
     */
    sim::MessageFaultDecision message_fault(sim::FaultChannel channel,
                                            sim::MessageDirection direction,
                                            int group = -1);

    /** Messages sent so far in class @p cls. */
    uint64_t messages(LatencyClass cls) const;

    /** The simulation this fabric schedules on (for latency stamping). */
    sim::Simulation& simulation() { return sim_; }

    const NetworkConfig& config() const { return config_; }

  private:
    const LatencyModel& model(LatencyClass cls) const;

    sim::Simulation& sim_;
    sim::Rng rng_;
    NetworkConfig config_;
    std::array<uint64_t, static_cast<size_t>(LatencyClass::kCount)> sent_{};
};

}  // namespace lfs::net
