#include "src/core/client.h"

#include <algorithm>
#include <cmath>

#include "src/sim/log.h"
#include "src/util/path.h"

namespace lfs::core {

namespace {

/**
 * One TCP round racing into @p cell: hop, serve, hop back. A response
 * from an instance that died mid-request is never delivered — a
 * reclaimed container just vanishes (§7's "relatively complicated error
 * states") — and an active FaultPlan may additionally drop the reply on
 * the wire. Either way the client's armed timeout detects the silence
 * and the attempt is resubmitted.
 */
sim::Task<void>
co_tcp_round(LfsRuntime& rt, faas::FunctionInstance* instance,
             faas::Invocation inv, sim::OneShotRef<OpResult> cell)
{
    sim::SimTime t0 = rt.sim.now();
    co_await rt.network.transfer(net::LatencyClass::kTcp);
    sim::SimTime t1 = rt.sim.now();
    OpResult result = co_await instance->serve_tcp(std::move(inv));
    if (result.status.code() == Code::kUnavailable) {
        co_return;  // silence: the timeout path resolves the cell
    }
    auto reply_fault = rt.network.message_fault(
        sim::FaultChannel::kClientRpc, sim::MessageDirection::kReply,
        instance->deployment_id());
    sim::SimTime t2 = rt.sim.now();
    co_await rt.network.transfer(net::LatencyClass::kTcp);
    if (reply_fault.drop) {
        co_return;  // reply lost on the wire; the op may have committed
    }
    if (rt.sim.attribution()) {
        result.ledger.add(sim::LatSeg::kNetClient,
                          (t1 - t0) + (rt.sim.now() - t2));
    }
    cell->try_set(std::move(result));
}

/** One HTTP round racing into @p cell (gateway reply may be dropped). */
sim::Task<void>
co_http_round(LfsRuntime& rt, faas::Platform& platform, int deployment,
              faas::Invocation inv, sim::OneShotRef<OpResult> cell)
{
    OpResult result = co_await platform.deployment(deployment)
                          .invoke_via_gateway(std::move(inv));
    auto reply_fault = rt.network.message_fault(
        sim::FaultChannel::kGateway, sim::MessageDirection::kReply,
        deployment);
    if (reply_fault.drop) {
        co_return;
    }
    cell->try_set(std::move(result));
}

}  // namespace

LfsClient::LfsClient(LfsRuntime& runtime, faas::Platform& platform,
                     ClientConfig config, int global_id, int vm,
                     int tcp_server, sim::Rng rng)
    : rt_(runtime),
      platform_(platform),
      config_(config),
      global_id_(global_id),
      vm_(vm),
      tcp_server_(tcp_server),
      rng_(rng)
{
}

double
LfsClient::avg_latency_us() const
{
    if (latency_window_.empty()) {
        return 2000.0;  // prior: ~2ms before any sample exists
    }
    return latency_sum_ / static_cast<double>(latency_window_.size());
}

void
LfsClient::record_latency(sim::SimTime latency)
{
    double v = static_cast<double>(latency);
    size_t window = static_cast<size_t>(std::max(config_.latency_window, 1));
    if (latency_window_.size() < window) {
        latency_window_.push_back(v);
        latency_sum_ += v;
    } else {
        latency_sum_ += v - latency_window_[latency_cursor_];
        latency_window_[latency_cursor_] = v;
        latency_cursor_ = (latency_cursor_ + 1) % window;
    }
}

bool
LfsClient::in_anti_thrash_mode() const
{
    return config_.anti_thrashing && rt_.sim.now() < anti_thrash_until_;
}

sim::Task<OpResult>
LfsClient::issue_tcp(faas::FunctionInstance* instance, faas::Invocation inv,
                     sim::SimTime timeout)
{
    ++tcp_rpcs_;
    // A dropped request never reaches the server (nothing is spawned);
    // a duplicated request races two identical rounds into the same
    // cell — server-side dedup makes the second a retained-result hit.
    return sim::race_timeout(
        rt_.sim, timeout, client_timeout,
        [this, instance, inv = std::move(inv)](auto cell) mutable {
            auto request_fault = rt_.network.message_fault(
                sim::FaultChannel::kClientRpc,
                sim::MessageDirection::kRequest, instance->deployment_id());
            if (request_fault.drop) {
                return;
            }
            if (request_fault.duplicate) {
                sim::spawn(co_tcp_round(rt_, instance, inv, cell));
            }
            sim::spawn(co_tcp_round(rt_, instance, std::move(inv), cell));
        });
}

sim::Task<OpResult>
LfsClient::issue_http(int deployment, faas::Invocation inv,
                      sim::SimTime timeout)
{
    ++http_rpcs_;
    return sim::race_timeout(
        rt_.sim, timeout, client_timeout,
        [this, deployment, inv = std::move(inv)](auto cell) mutable {
            auto request_fault = rt_.network.message_fault(
                sim::FaultChannel::kGateway, sim::MessageDirection::kRequest,
                deployment);
            if (request_fault.drop) {
                return;
            }
            if (request_fault.duplicate) {
                sim::spawn(
                    co_http_round(rt_, platform_, deployment, inv, cell));
            }
            sim::spawn(co_http_round(rt_, platform_, deployment,
                                     std::move(inv), cell));
        });
}

sim::Task<void>
LfsClient::backoff(int attempt, sim::SimTime& prev)
{
    if (config_.decorrelated_jitter) {
        // Decorrelated jitter: sleep = min(cap, uniform(base, 3 * prev)).
        // Unlike exponential + bounded jitter, consecutive sleeps don't
        // cluster around the same powers of two across a client fleet, so
        // a synchronized retry wave spreads out instead of re-arriving as
        // a thundering herd.
        sim::SimTime lo = config_.backoff_base;
        sim::SimTime hi = std::max(3 * prev, lo + 1);
        sim::SimTime sleep =
            std::min(config_.backoff_max, rng_.uniform_duration(lo, hi));
        prev = sleep;
        co_await sim::delay(rt_.sim, sleep);
        co_return;
    }
    // Exponential backoff with randomized jitter (§3.2).
    double factor = std::pow(2.0, std::min(attempt - 1, 8));
    auto base = static_cast<sim::SimTime>(
        static_cast<double>(config_.backoff_base) * factor);
    base = std::min(base, config_.backoff_max);
    auto jittered = static_cast<sim::SimTime>(
        static_cast<double>(base) * rng_.uniform(0.5, 1.5));
    prev = jittered;
    co_await sim::delay(rt_.sim, jittered);
}

sim::Task<OpResult>
LfsClient::issue(faas::FunctionInstance* conn, bool use_http, int target,
                 const Op& op, sim::TraceContext attempt_ctx)
{
    faas::Invocation inv;
    inv.op = op;
    inv.op.trace = attempt_ctx;
    inv.client_vm = vm_;
    inv.tcp_server = tcp_server_;
    inv.via_http = use_http;
    // Subtree operations legitimately run for many seconds (Table 3):
    // they must not be resubmitted on a timeout, and straggler
    // mitigation must not resubmit them either.
    sim::SimTime timeout;
    if (is_subtree_op(op.type)) {
        timeout = sim::sec(1800);
    } else if (use_http) {
        timeout = config_.http_timeout;
    } else if (config_.straggler_mitigation) {
        timeout = std::max(config_.tcp_timeout_floor,
                           static_cast<sim::SimTime>(
                               config_.straggler_threshold *
                               avg_latency_us()));
    } else {
        timeout = config_.tcp_timeout_default;
    }
    // With a deadline, no attempt waits past the remaining budget.
    if (op.deadline >= 0) {
        timeout = std::min(
            timeout, std::max<sim::SimTime>(op.deadline - rt_.sim.now(), 1));
    }
    if (use_http) {
        return issue_http(target, std::move(inv), timeout);
    }
    return issue_tcp(conn, std::move(inv), timeout);
}

sim::Task<void>
LfsClient::reconcile_create(const Op& op, sim::SimTime issued_at,
                            OpResult& result, sim::Span& op_span)
{
    Op probe;
    probe.type = OpType::kStat;
    // A hard link collides at its *new name* (op.dst); the other
    // creation ops collide at op.path. Stat has lstat semantics, so a
    // symlink probe sees the link itself.
    probe.path = op.type == OpType::kHardLink ? op.dst : op.path;
    probe.user = op.user;
    OpResult probed = co_await execute(std::move(probe));
    const bool type_matches = op.type == OpType::kSymlink
                                  ? probed.inode.is_symlink()
                                  : probed.inode.is_file();
    if (probed.status.ok() && type_matches &&
        probed.inode.ctime >= issued_at) {
        ++reconciled_creates_;
        op_span.annotate("reconciled", op_name(op.type));
        result.status = Status::make_ok();
        result.inode = probed.inode;
    }
}

sim::Task<OpResult>
LfsClient::execute(Op op)
{
    op.op_id = (static_cast<uint64_t>(global_id_ + 1) << 40) | ++next_seq_;
    const int target = rt_.partitioner.deployment_for(op.path);
    const sim::SimTime issued_at = rt_.sim.now();
    // Deadline propagation: stamp an absolute deadline so every hop can
    // shed this op once it is doomed. Subtree ops run for minutes by
    // design (Table 3) and are never deadlined.
    if (config_.op_deadline > 0 && !is_subtree_op(op.type)) {
        op.deadline = issued_at + config_.op_deadline;
    }
    // Retry budget: each fresh op earns the deployment's token bucket a
    // fraction of a retry; retries spend whole tokens. Caps the retry
    // amplification a metastable failure can generate.
    util::RetryBudget* budget = rt_.retry_budget(target);
    if (budget != nullptr) {
        budget->on_fresh_request();
    }
    // Set once any attempt ends in a system fault: the server may have
    // committed the op even though no acknowledgement arrived.
    bool may_have_committed = false;

    sim::Span op_span =
        rt_.sim.tracer().start_trace("client", op_name(op.type));
    op_span.annotate("path", op.path);
    op_span.annotate("client", static_cast<int64_t>(global_id_));
    op.trace = op_span.context();

    // Attribution (DESIGN.md §11): the workload driver finalizes the
    // returned ledger against measured end-to-end latency.
    sim::RetryLedger ledger(rt_.sim.attribution());

    sim::SimTime prev_backoff = config_.backoff_base;
    for (int attempt = 1; attempt <= config_.max_attempts; ++attempt) {
        // Connection choice: own TCP server first, then connection
        // sharing across the VM's other TCP servers (Figure 4).
        faas::FunctionInstance* conn =
            rt_.tcp_registry.find_on_vm(vm_, tcp_server_, target);
        bool use_http;
        if (conn == nullptr) {
            use_http = true;
            if (in_anti_thrash_mode()) {
                // Anti-thrashing: reuse *any* live connection on this VM
                // rather than triggering more container provisioning.
                for (int d = 0; d < rt_.partitioner.deployment_count() &&
                                conn == nullptr;
                     ++d) {
                    conn = rt_.tcp_registry.find_on_vm(vm_, tcp_server_, d);
                }
                if (conn != nullptr) {
                    use_http = false;
                }
            }
        } else if (in_anti_thrash_mode()) {
            use_http = false;
        } else {
            // Randomized HTTP-TCP replacement keeps the FaaS platform's
            // auto-scaler aware of TCP-carried load (§3.4).
            use_http = rng_.bernoulli(config_.http_replace_probability);
        }

        sim::SimTime attempt_start = rt_.sim.now();
        sim::Span attempt_span = rt_.sim.tracer().start_span(
            "client", use_http ? "http_attempt" : "tcp_attempt",
            op_span.context());
        attempt_span.annotate("attempt", static_cast<int64_t>(attempt));
        // The one result this frame holds: every exit below returns it.
        OpResult result = co_await issue(conn, use_http, target, op,
                                         attempt_span.context());
        sim::SimTime latency = rt_.sim.now() - attempt_start;
        attempt_span.annotate("status", result.status.ok()
                                            ? "ok"
                                            : result.status.message());
        attempt_span.end();
        result.trace_id = op.trace.trace_id;
        ledger.fold(result.ledger, latency,
                    retryable_code(result.status.code()));

        if (result.status.code() == Code::kDeadlineExceeded) {
            ++timeouts_;
        }
        // RESOURCE_EXHAUSTED (shed at admission) is retryable but never
        // ambiguous: the server refused the op before executing it.
        if (possibly_committed_code(result.status.code())) {
            may_have_committed = true;
        }
        if (!retryable_code(result.status.code())) {
            // Non-idempotent-op reconciliation: a create resubmitted
            // after an ambiguous attempt (reply lost, instance died
            // post-commit) can collide with its own earlier commit and
            // surface a spurious ALREADY_EXISTS. Server-side dedup
            // normally absorbs the resubmission; when it cannot (the
            // retry was routed to a different deployment, or the
            // retained result was evicted), a file whose ctime falls
            // inside this operation's lifetime is our own commit.
            const bool creation_like = op.type == OpType::kCreateFile ||
                                       op.type == OpType::kSymlink ||
                                       op.type == OpType::kHardLink;
            if (creation_like && may_have_committed &&
                result.status.code() == Code::kAlreadyExists) {
                co_await reconcile_create(op, issued_at, result, op_span);
            }
            // Session ids are unique per op, so an ALREADY_EXISTS after
            // an ambiguous open — or a NOT_FOUND after an ambiguous
            // close — can only be our own earlier commit.
            if (may_have_committed &&
                ((op.type == OpType::kOpenSession &&
                  result.status.code() == Code::kAlreadyExists) ||
                 (op.type == OpType::kCloseSession &&
                  result.status.code() == Code::kNotFound))) {
                ++reconciled_creates_;
                op_span.annotate("reconciled", op_name(op.type));
                result.status = Status::make_ok();
            }
            record_latency(latency);
            if (config_.anti_thrashing &&
                static_cast<double>(latency) >
                    config_.thrash_threshold * avg_latency_us()) {
                anti_thrash_until_ =
                    rt_.sim.now() + config_.anti_thrash_duration;
            }
            co_return result;
        }
        if (attempt == config_.max_attempts) {
            co_return result;  // exhausted retries: report the last failure
        }
        // Give up instead of retrying once the op's deadline has passed:
        // the server would shed the attempt anyway.
        if (op_expired(op, rt_.sim.now())) {
            ++deadline_giveups_;
            op_span.annotate("giveup", "deadline");
            co_return result;
        }
        // Retry budget: when the bucket is dry (error rate far above the
        // budget ratio), stop resubmitting — this is what turns a retry
        // storm back into the offered load.
        if (budget != nullptr && !budget->try_spend()) {
            ++retry_budget_denied_;
            op_span.annotate("giveup", "retry_budget");
            co_return result;
        }
        ++resubmissions_;
        // Back off before every resubmission, TCP and HTTP alike:
        // hammering a partitioned or overloaded path with immediate
        // retries only extends the outage.
        sim::SimTime backoff_start = rt_.sim.now();
        co_await backoff(attempt + 1, prev_backoff);
        ledger.backoff(rt_.sim.now() - backoff_start);
        if (op_expired(op, rt_.sim.now())) {
            ++deadline_giveups_;
            op_span.annotate("giveup", "deadline");
            co_return result;
        }
    }
    co_return OpResult{};  // max_attempts < 1: nothing was attempted
}

}  // namespace lfs::core
