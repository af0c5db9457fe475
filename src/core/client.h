/**
 * @file
 * The λFS client library (§3.2, Appendices B and C). A client:
 *  - routes each operation to the deployment owning its namespace
 *    partition,
 *  - prefers direct TCP connections (shared across the TCP servers of its
 *    VM) and falls back to HTTP invocations through the API gateway,
 *  - randomly replaces a small fraction of TCP RPCs with HTTP RPCs so the
 *    FaaS platform observes load and can auto-scale (§3.4),
 *  - transparently resubmits timed-out or failed requests with
 *    exponential backoff + jitter (deduplicated server-side by op id),
 *  - mitigates stragglers by resubmitting requests whose latency exceeds
 *    a multiple of its moving-average latency (Appendix B),
 *  - enters anti-thrashing mode (all-TCP) when latency blows past the
 *    moving average, to stop runaway scale-out (Appendix C).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/name_node.h"
#include "src/faas/platform.h"
#include "src/sim/random.h"
#include "src/workload/dfs_interface.h"

namespace lfs::core {

struct ClientConfig {
    /** Probability that a TCP-eligible RPC is issued via HTTP instead. */
    double http_replace_probability = 0.01;
    /** Floor for the straggler-mitigation timeout. */
    sim::SimTime tcp_timeout_floor = sim::msec(200);
    /** TCP timeout when straggler mitigation is disabled. */
    sim::SimTime tcp_timeout_default = sim::sec(5);
    /** Timeout for HTTP invocations (gateway queueing can be long). */
    sim::SimTime http_timeout = sim::sec(15);
    int max_attempts = 12;
    sim::SimTime backoff_base = sim::msec(50);
    sim::SimTime backoff_max = sim::sec(2);
    /** Appendix B: straggler mitigation. */
    bool straggler_mitigation = true;
    double straggler_threshold = 10.0;
    int latency_window = 64;
    /** Appendix C: anti-thrashing mode. */
    bool anti_thrashing = true;
    double thrash_threshold = 2.5;
    sim::SimTime anti_thrash_duration = sim::sec(5);
    // Overload control (defaults off; see DESIGN.md overload control).
    /**
     * Relative completion deadline stamped on every non-subtree op
     * (0 = no deadlines). Propagated end-to-end so every hop can shed
     * expired work; attempts stop once the deadline passes.
     */
    sim::SimTime op_deadline = 0;
    /** Decorrelated-jitter backoff instead of exponential (AWS-style). */
    bool decorrelated_jitter = false;
};

class LfsClient : public workload::DfsClient {
  public:
    LfsClient(LfsRuntime& runtime, faas::Platform& platform,
              ClientConfig config, int global_id, int vm, int tcp_server,
              sim::Rng rng);

    sim::Task<OpResult> execute(Op op) override;

    int vm() const { return vm_; }
    int tcp_server() const { return tcp_server_; }

    uint64_t tcp_rpcs() const { return tcp_rpcs_; }
    uint64_t http_rpcs() const { return http_rpcs_; }
    uint64_t resubmissions() const { return resubmissions_; }
    uint64_t timeouts() const { return timeouts_; }
    /** Resubmitted creates recognized as the client's own earlier commit. */
    uint64_t reconciled_creates() const { return reconciled_creates_; }
    /** Retries refused because the deployment's retry budget was empty. */
    uint64_t retry_budget_denied() const { return retry_budget_denied_; }
    /** Ops abandoned because their deadline passed between attempts. */
    uint64_t deadline_giveups() const { return deadline_giveups_; }
    bool in_anti_thrash_mode() const;

  private:
    /**
     * One attempt of @p op over the chosen transport, with the attempt's
     * timeout (straggler, HTTP or subtree) clamped to the op's deadline.
     */
    sim::Task<OpResult> issue(faas::FunctionInstance* conn, bool use_http,
                              int target, const Op& op,
                              sim::TraceContext attempt_ctx);

    /**
     * A creation-like op got ALREADY_EXISTS after an ambiguous attempt:
     * stat the name and, when the file there is this op's own earlier
     * commit, turn @p result into that success.
     */
    sim::Task<void> reconcile_create(const Op& op, sim::SimTime issued_at,
                                     OpResult& result, sim::Span& op_span);

    /** One TCP attempt with a timeout; late replies are discarded. */
    sim::Task<OpResult> issue_tcp(faas::FunctionInstance* instance,
                                  faas::Invocation inv, sim::SimTime timeout);

    /** One HTTP attempt with a timeout. */
    sim::Task<OpResult> issue_http(int deployment, faas::Invocation inv,
                                   sim::SimTime timeout);

    /**
     * Pre-retry sleep. Exponential + jitter by default; with
     * decorrelated_jitter, sleep = min(cap, uniform(base, 3 * prev)) —
     * @p prev carries the previous sleep across this op's attempts.
     */
    sim::Task<void> backoff(int attempt, sim::SimTime& prev);

    /** Moving-average end-to-end latency in microseconds. */
    double avg_latency_us() const;
    void record_latency(sim::SimTime latency);

    LfsRuntime& rt_;
    faas::Platform& platform_;
    ClientConfig config_;
    int global_id_;
    int vm_;
    int tcp_server_;
    sim::Rng rng_;
    uint64_t next_seq_ = 0;
    std::vector<double> latency_window_;
    size_t latency_cursor_ = 0;
    double latency_sum_ = 0.0;
    sim::SimTime anti_thrash_until_ = -1;
    uint64_t tcp_rpcs_ = 0;
    uint64_t http_rpcs_ = 0;
    uint64_t resubmissions_ = 0;
    uint64_t timeouts_ = 0;
    uint64_t reconciled_creates_ = 0;
    uint64_t retry_budget_denied_ = 0;
    uint64_t deadline_giveups_ = 0;
};

}  // namespace lfs::core
