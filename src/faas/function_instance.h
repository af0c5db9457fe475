/**
 * @file
 * A running serverless function instance ("container"). Exactly one
 * application (e.g. a λFS NameNode) executes inside an instance; the
 * application object lives as long as the instance, which is how retained
 * state across invocations — the metadata cache — exists at all (§2,
 * "Terminology").
 *
 * The instance models: cold start, a processor-sharing CPU of `vcpus`
 * cores, the per-instance HTTP concurrency level (the ConcurrencyLevel of
 * Figure 6), idle-timeout reclamation, crash/kill fault injection, and the
 * busy-time + request accounting that the pay-per-use cost model bills.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/namespace/op.h"
#include "src/sim/primitives.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"
#include "src/util/status.h"

namespace lfs::faas {

class FunctionInstance;

/** Per-deployment function configuration (registered with the platform). */
struct FunctionConfig {
    double vcpus = 6.25;                        ///< per-instance CPU
    double memory_gb = 30.0;                    ///< per-instance memory
    int concurrency_level = 4;                  ///< max in-flight HTTP RPCs
    sim::SimTime cold_start_min = sim::msec(500);
    sim::SimTime cold_start_max = sim::msec(1200);
    sim::SimTime idle_reclaim = sim::sec(60);   ///< idle time before reclaim
    // Overload control (appended: this struct is brace-initialized
    // positionally by configs; new fields must keep their defaults last).
    /** Bound on the deployment's gateway admission queue (0 = unbounded). */
    int max_queue_depth = 0;
    /** CoDel-style sojourn bound: shed work queued longer (0 = off). */
    sim::SimTime queue_sojourn_limit = 0;
};

/**
 * A request delivered to a function instance. Carries the metadata op
 * plus the issuing client's TCP callback coordinates (so the application
 * can establish a direct TCP connection back, §3.2).
 */
struct Invocation {
    Op op;
    int client_vm = -1;
    int tcp_server = -1;
    bool via_http = false;  ///< arrived through the API gateway
};

/**
 * The application running inside a function instance. Implementations
 * (λFS NameNode, InfiniCache node, ...) keep whatever state they retain
 * across invocations as members.
 */
class FunctionApp {
  public:
    virtual ~FunctionApp() = default;

    /** Handle one request. Runs inside the instance's CPU model. */
    virtual sim::Task<OpResult> handle(Invocation inv) = 0;

    /** Called when the instance is reclaimed or killed. */
    virtual void on_shutdown() {}
};

/** Builds the application for a freshly provisioned instance. */
using AppFactory = std::function<std::unique_ptr<FunctionApp>(
    FunctionInstance& instance)>;

class FunctionInstance {
  public:
    enum class State { kColdStarting, kWarm, kDead };

    /**
     * @param on_dead invoked once when the instance is reclaimed/killed
     *        (the deployment uses it to release resources and update
     *        membership).
     */
    FunctionInstance(sim::Simulation& sim, sim::Rng rng, int deployment_id,
                     int instance_id, FunctionConfig config,
                     const AppFactory& factory,
                     std::function<void(FunctionInstance&)> on_dead);
    ~FunctionInstance();

    FunctionInstance(const FunctionInstance&) = delete;
    FunctionInstance& operator=(const FunctionInstance&) = delete;

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /** Begin the cold start; warm_gate() opens when it completes. */
    void start_cold();

    /** Gate that opens when the instance becomes warm. */
    sim::Gate& warm_gate() { return warm_gate_; }

    State state() const { return state_; }
    bool alive() const { return state_ != State::kDead; }
    bool warm() const { return state_ == State::kWarm; }

    /** Kill the instance (idle reclamation or fault injection). */
    void kill();

    // ------------------------------------------------------------------
    // Request serving
    // ------------------------------------------------------------------

    /** True if a new HTTP request may be routed here right now. */
    bool http_slot_available() const;

    /**
     * Reserve one HTTP concurrency slot ahead of serve_http(). The
     * deployment's admission queue reserves synchronously so concurrent
     * arrivals can never overbook an instance.
     */
    void reserve_http_slot() { ++http_inflight_; }

    /**
     * Serve one HTTP-delivered request. Requires a prior
     * reserve_http_slot(); the slot is released when serving completes.
     * Returns kUnavailable if the instance dies mid-request.
     */
    sim::Task<OpResult> serve_http(Invocation inv);

    /** Serve one request arriving over a direct TCP connection. */
    sim::Task<OpResult> serve_tcp(Invocation inv);

    /**
     * Consume @p cpu_time of one core, queueing behind other requests on
     * this instance's cores. Applications call this from handle().
     */
    sim::Task<void> compute(sim::SimTime cpu_time);

    // ------------------------------------------------------------------
    // Introspection / accounting
    // ------------------------------------------------------------------

    int deployment_id() const { return deployment_id_; }
    int instance_id() const { return instance_id_; }
    const FunctionConfig& config() const { return config_; }
    FunctionApp& app() { return *app_; }

    int inflight() const { return inflight_; }
    int http_inflight() const { return http_inflight_; }
    sim::SimTime last_activity() const { return last_activity_; }
    sim::SimTime created_at() const { return created_at_; }

    /** Microseconds during which >= 1 request was in flight (billable). */
    sim::SimTime busy_time() const;

    /** Wall time from creation to death (or now) — provisioned time. */
    sim::SimTime provisioned_time() const;

    uint64_t requests_served() const { return requests_.value(); }

    /** Hook fired whenever a request completes (deployment queue drain). */
    std::function<void()> on_request_done;

  private:
    sim::Task<OpResult> serve(Invocation inv, bool via_http);
    void begin_request();
    void end_request();
    /**
     * The instance just went idle (warm transition or last request
     * done): it is due for reclamation at last_activity_ + idle_reclaim.
     */
    void mark_idle();
    void arm_idle_deadline();
    void on_idle_deadline();

    sim::Simulation& sim_;
    sim::Rng rng_;
    int deployment_id_;
    int instance_id_;
    FunctionConfig config_;
    State state_ = State::kColdStarting;
    std::unique_ptr<FunctionApp> app_;
    std::function<void(FunctionInstance&)> on_dead_;
    sim::Gate warm_gate_;
    sim::Semaphore cpu_;
    int inflight_ = 0;
    int http_inflight_ = 0;
    sim::SimTime created_at_;
    sim::SimTime died_at_ = -1;
    sim::SimTime last_activity_;
    sim::SimTime busy_since_ = -1;
    sim::SimTime busy_accum_ = 0;
    sim::Counter requests_;
    /**
     * Idle reclamation keeps one armed deadline at most. It may lie
     * before the current due time (idle_at_ + idle_reclaim) and then
     * re-arms itself there when it fires; idle_ticket_ is the event-order
     * place of the first mark_idle() at idle_at_, so the reclaiming event
     * runs exactly where a timer armed at that moment would have.
     */
    sim::SimTime idle_at_ = -1;
    uint64_t idle_ticket_ = 0;
    bool idle_armed_ = false;
};

}  // namespace lfs::faas
