/**
 * @file
 * Event-kernel microbenchmark: measures raw simulator dispatch throughput
 * (events/sec of wall-clock time) for the scheduling patterns every λFS
 * experiment is built from. This is the binary the perf-smoke gate runs —
 * it prints machine-readable `events_per_sec` lines per case.
 *
 * Cases:
 *   callback_churn   schedule+dispatch of small lambda events, mixed delays
 *   same_time_fifo   bursts of same-timestamp events (seq tie-break path)
 *   coroutine_ping   processes co_awaiting delay() in a loop (handle path)
 *   semaphore_chain  contended Semaphore FIFO hand-off between processes
 *   task_churn       a process awaiting a child Task returning a ~400-byte
 *                    result across one delay (frame pool + result move)
 *   tracing_overhead disabled-tracer start_span vs no call at all; asserts
 *                    the disabled path costs <5% (one branch, §ISSUE-5)
 *   attribution      end-to-end λFS stat microbench with the attribution
 *                    stack (ledger, histograms, flight recorder) armed
 *                    vs off; asserts enabled costs <5% (DESIGN.md §11)
 *
 * Measurement: LFS_KERNEL_REPS (default 5) reps per case; a rep runs the
 * case's LFS_KERNEL_EVENTS events (default 2M) over and over until it has
 * taken at least 50 ms of wall time, and the case reports the median
 * rep's events/sec. A rep of a few milliseconds is mostly timer and
 * scheduler noise on a shared host; the median ignores the odd rep a
 * steal burst lands in.
 */
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/harness.h"
#include "src/core/lambda_fs.h"
#include "src/namespace/tree_builder.h"
#include "src/sim/latency.h"
#include "src/sim/primitives.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/workload/microbench.h"

namespace lfs::bench {
namespace {

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

int
total_events()
{
    return env_int("LFS_KERNEL_EVENTS", 2'000'000);
}

int
reps()
{
    return env_int("LFS_KERNEL_REPS", 5);
}

/** LFS_KERNEL_CASES: comma-separated case filter (empty = all). */
bool
case_enabled(const char* name)
{
    const char* filter = std::getenv("LFS_KERNEL_CASES");
    if (filter == nullptr || *filter == '\0') {
        return true;
    }
    std::string padded = ",";
    padded += filter;
    padded += ',';
    std::string needle = ",";
    needle += name;
    needle += ',';
    return padded.find(needle) != std::string::npos;
}

/** Shortest rep worth timing: shorter ones measure the host's noise. */
constexpr double kMinRepSeconds = 0.05;

struct Rep {
    uint64_t events = 0;
    double seconds = 0.0;
};

/** Run @p body back to back until kMinRepSeconds have passed. */
template <typename Body>
Rep
timed_rep(Body&& body)
{
    Rep rep;
    Clock::time_point t0 = Clock::now();
    do {
        rep.events += body();
        rep.seconds = seconds_since(t0);
    } while (rep.seconds < kMinRepSeconds);
    return rep;
}

/** Time reps() reps of @p body; report the median rep's events/sec. */
template <typename Body>
double
measure_case(const char* name, Body&& body)
{
    if (!case_enabled(name)) {
        return 0.0;
    }
    std::vector<Rep> runs;
    for (int r = 0; r < reps(); ++r) {
        runs.push_back(timed_rep(body));
    }
    auto rate = [](const Rep& rep) {
        return static_cast<double>(rep.events) / rep.seconds;
    };
    std::sort(runs.begin(), runs.end(), [&](const Rep& a, const Rep& b) {
        return rate(a) < rate(b);
    });
    const Rep& median = runs[runs.size() / 2];
    double eps = rate(median);
    std::printf("[bench_kernel] case=%s events=%llu wall_s=%.4f "
                "events_per_sec=%.0f\n",
                name, static_cast<unsigned long long>(median.events),
                median.seconds, eps);
    bench_log_entry(name, median.events, median.seconds, eps);
    return eps;
}

/** Shared state for the churn functor below. */
struct ChurnCtx {
    sim::Simulation* sim;
    int scheduled = 0;
    int budget = 0;
};

/**
 * Self-rescheduling 24-byte functor with an inline xorshift delay stream —
 * the shape of a production call site (a fresh small lambda per schedule,
 * larger than std::function's 16-byte SBO, so the pre-pool kernel paid one
 * heap allocation per event).
 */
struct ChurnFire {
    ChurnCtx* ctx;
    uint64_t rng;

    void
    operator()()
    {
        if (ctx->scheduled < ctx->budget) {
            ++ctx->scheduled;
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            ctx->sim->schedule(sim::usec(static_cast<int64_t>(rng & 15)),
                               ChurnFire{ctx, rng});
        }
    }
};

/** 4096 in-flight self-rescheduling events with small mixed delays. */
uint64_t
run_callback_churn()
{
    sim::Simulation sim;
    ChurnCtx ctx{&sim, 0, total_events()};
    sim.reserve_events(4096);
    for (int i = 0; i < 4096 && ctx.scheduled < ctx.budget; ++i) {
        ++ctx.scheduled;
        sim.schedule(sim::usec(i & 15),
                     ChurnFire{&ctx, 0x9E3779B97F4A7C15ull + uint64_t(i)});
    }
    sim.run();
    return sim.events_executed();
}

/** Bursts of events at one instant: exercises the seq FIFO tie-break. */
uint64_t
run_same_time_fifo()
{
    sim::Simulation sim;
    const int budget = total_events();
    const int burst = 256;
    int scheduled = 0;
    std::function<void()> pump = [&] {
        for (int i = 0; i < burst && scheduled < budget; ++i) {
            ++scheduled;
            sim.schedule(0, [] {});
        }
        if (scheduled < budget) {
            ++scheduled;
            sim.schedule(sim::usec(1), pump);
        }
    };
    pump();
    sim.run();
    return sim.events_executed();
}

sim::Task<void>
co_ping(sim::Simulation& sim, int rounds)
{
    for (int i = 0; i < rounds; ++i) {
        co_await sim::delay(sim, sim::usec(1));
    }
}

/** Coroutine resume path: delay() awaits are the dominant sim event. */
uint64_t
run_coroutine_ping()
{
    sim::Simulation sim;
    const int procs = 64;
    const int rounds = total_events() / procs;
    for (int p = 0; p < procs; ++p) {
        sim::spawn(co_ping(sim, rounds));
    }
    sim.run();
    return sim.events_executed();
}

sim::Task<void>
co_chain(sim::Simulation& sim, sim::Semaphore& sem, int rounds)
{
    for (int i = 0; i < rounds; ++i) {
        co_await sem.acquire();
        co_await sim::delay(sim, sim::usec(1));
        sem.release();
    }
}

/** Contended semaphore: wake-ups flow through the kernel queue. */
uint64_t
run_semaphore_chain()
{
    sim::Simulation sim;
    sim::Semaphore sem(sim, 4);
    const int procs = 32;
    const int rounds = total_events() / (3 * procs);
    for (int p = 0; p < procs; ++p) {
        sim::spawn(co_chain(sim, sem, rounds));
    }
    sim.run();
    return sim.events_executed();
}

/** A ~400-byte result, the size of a metadata op's reply. */
struct Reply {
    std::array<uint64_t, 50> words{};
};

sim::Task<Reply>
co_child(sim::Simulation& sim, uint64_t i)
{
    co_await sim::delay(sim, sim::usec(1));
    Reply reply;
    reply.words[i % reply.words.size()] = i;
    co_return reply;
}

sim::Task<void>
co_parent(sim::Simulation& sim, int rounds, uint64_t& sink)
{
    for (int i = 0; i < rounds; ++i) {
        Reply reply = co_await co_child(sim, static_cast<uint64_t>(i));
        sink += reply.words[static_cast<size_t>(i) % reply.words.size()];
    }
}

/**
 * Request-shaped coroutine churn: every event is a child Task whose frame
 * is made, awaited across one delay and destroyed, and whose ~400-byte
 * result moves into the parent — the frame-pool and result path of every
 * simulated RPC.
 */
uint64_t
run_task_churn()
{
    sim::Simulation sim;
    const int procs = 64;
    const int rounds = total_events() / procs;
    uint64_t sink = 0;
    for (int p = 0; p < procs; ++p) {
        sim::spawn(co_parent(sim, rounds, sink));
    }
    sim.run();
    return sink > 0 ? sim.events_executed() : 0;
}

/**
 * Satellite: disabled-path overhead audit. The event hot path may touch
 * Tracer/MetricsRegistry only behind a single predictable branch, so a
 * run that *calls* start_span on a disabled tracer must be within 5% of a
 * run whose loop body omits the call entirely (the compiled-out shape).
 */
bool
run_tracing_overhead_audit()
{
    const int budget = total_events();

    auto run_with_tracing_call = [&]() -> uint64_t {
        sim::Simulation sim;
        // Tracing stays disabled: start_span must be one branch + return.
        int scheduled = 0;
        std::function<void()> fire = [&] {
            sim::Span s = sim.tracer().start_trace("bench", "noop");
            if (scheduled < budget) {
                ++scheduled;
                sim.schedule(sim::usec(1), fire);
            }
        };
        for (int i = 0; i < 32 && scheduled < budget; ++i) {
            ++scheduled;
            sim.schedule(sim::usec(i), fire);
        }
        sim.run();
        return sim.events_executed();
    };
    auto run_compiled_out = [&]() -> uint64_t {
        sim::Simulation sim;
        int scheduled = 0;
        std::function<void()> fire = [&] {
            if (scheduled < budget) {
                ++scheduled;
                sim.schedule(sim::usec(1), fire);
            }
        };
        for (int i = 0; i < 32 && scheduled < budget; ++i) {
            ++scheduled;
            sim.schedule(sim::usec(i), fire);
        }
        sim.run();
        return sim.events_executed();
    };

    if (!case_enabled("tracing_off")) {
        return true;
    }
    // Interleave A/B reps so machine-load drift hits both variants
    // equally; best-of per variant damps the remaining jitter. A batch
    // that still lands over budget gets one fresh batch — shared-host
    // steal bursts clear between batches, a real regression does not.
    // Each rep runs for at least kMinRepSeconds (timed_rep).
    Rep best_with{0, 1e300};
    Rep best_without{0, 1e300};
    auto faster = [](const Rep& a, const Rep& b) {
        return a.events / a.seconds > b.events / b.seconds ? a : b;
    };
    auto measure_batch = [&]() -> double {
        for (int r = 0; r < reps(); ++r) {
            best_with = faster(timed_rep(run_with_tracing_call), best_with);
            best_without = faster(timed_rep(run_compiled_out), best_without);
        }
        return (best_without.events / best_without.seconds) /
                   (best_with.events / best_with.seconds) -
               1.0;
    };
    if (measure_batch() > 0.05) {
        std::printf("[bench_kernel] tracing delta over budget; re-measuring "
                    "once to reject machine noise\n");
        measure_batch();
    }
    double with_call = best_with.events / best_with.seconds;
    double without = best_without.events / best_without.seconds;
    std::printf("[bench_kernel] case=tracing_off events=%llu wall_s=%.4f "
                "events_per_sec=%.0f\n",
                static_cast<unsigned long long>(best_with.events),
                best_with.seconds, with_call);
    std::printf("[bench_kernel] case=tracing_compiled_out events=%llu "
                "wall_s=%.4f events_per_sec=%.0f\n",
                static_cast<unsigned long long>(best_without.events),
                best_without.seconds, without);
    double delta = (without - with_call) / without;
    std::printf("[bench_kernel] case=tracing_delta delta_pct=%.2f "
                "(limit 5.00)\n",
                delta * 100.0);
    if (delta > 0.05) {
        std::fprintf(stderr,
                     "FAIL: disabled tracing costs %.2f%% (>5%%) on the "
                     "event hot path\n",
                     delta * 100.0);
        return false;
    }
    return true;
}

/**
 * Satellite: attribution overhead audit. Runs the same closed-loop λFS
 * stat microbenchmark with the attribution stack that --attribution
 * arms (ledger stamping at every site, per-op histogram recording,
 * worst-k flight recorder) and with it off, and compares wall-clock
 * events/sec. Enabled must run within 5% of disabled — the ledger is a
 * fixed array with no allocation, every stamp is guarded by one bool
 * check, and the recorder rejects non-tail ops against the k-th worst
 * before copying anything. (Exemplar span capture is priced under
 * tracing, not here: it only happens when --trace-out arms the tracer.)
 */
bool
run_attribution_overhead_audit()
{
    if (!case_enabled("attribution")) {
        return true;
    }

    // Times ONLY the closed-loop run, not system construction or tree
    // building — those are attribution-independent and their malloc-heavy
    // noise would otherwise dominate the comparison.
    struct VariantRun {
        uint64_t events;
        double seconds;
    };
    auto run_variant = [&](bool enabled) -> VariantRun {
        sim::Simulation sim;
        sim.set_attribution(enabled);
        sim.flight_recorder().set_enabled(enabled);
        core::LambdaFsConfig config;
        config.num_deployments = 4;
        config.total_vcpus = 64.0;
        config.function.vcpus = 4.0;
        config.num_client_vms = 4;
        config.clients_per_vm = 16;
        config.prewarm_per_deployment = 1;
        core::LambdaFs fs(sim, config);
        ns::TreeSpec spec;
        ns::BuiltTree built = ns::build_balanced_tree(
            fs.authoritative_tree(), spec, ns::UserContext{}, 0);
        workload::MicrobenchConfig mcfg;
        mcfg.op = OpType::kStat;
        mcfg.num_clients = 64;
        mcfg.ops_per_client = 384;
        mcfg.seed = 7;
        Clock::time_point t0 = Clock::now();
        workload::run_microbench(sim, fs, std::move(built), mcfg);
        return {sim.events_executed(), seconds_since(t0)};
    };

    // Untimed warm-up: the first run through the bench path eats page
    // faults and allocator growth that would otherwise be charged to
    // whichever variant happens to go first.
    run_variant(false);

    // Paired A/B reps: each rep times both variants back-to-back, so both
    // halves see the same machine weather (CPU steal on a shared host
    // lasts longer than one rep) and the pair's delta cancels it; the
    // order alternates per rep to cancel positional bias too. The median
    // over pairs then discards reps where a spike landed inside one half.
    // An unpaired best-of-N comparison is NOT robust here: back-to-back
    // best-of-12 runs of the identical variant were observed 5% apart on
    // this class of machine.
    double best_on = 1e300;
    double best_off = 1e300;
    uint64_t events = 0;
    auto measure_batch = [&](int pairs) -> double {
        std::vector<double> deltas;
        for (int r = 0; r < pairs; ++r) {
            bool on_first = (r % 2 == 0);
            VariantRun first = run_variant(on_first);
            VariantRun second = run_variant(!on_first);
            double on_s = on_first ? first.seconds : second.seconds;
            double off_s = on_first ? second.seconds : first.seconds;
            events = first.events;
            best_on = std::min(best_on, on_s);
            best_off = std::min(best_off, off_s);
            deltas.push_back((on_s - off_s) / off_s);
        }
        std::sort(deltas.begin(), deltas.end());
        return deltas[deltas.size() / 2];
    };

    // More pairs than the default best-of reps: the median's variance is
    // what sets this gate's flake rate, and each pair is only ~0.3 s. A
    // failing first batch gets one fresh batch — a steal burst long
    // enough to bias a whole batch still clears between batches, while a
    // real regression fails both.
    int pairs = std::max(reps(), 15);
    double delta = measure_batch(pairs);
    int batches = 1;
    if (delta > 0.05) {
        std::printf("[bench_kernel] attribution delta %.2f%% over budget; "
                    "re-measuring once to reject machine noise\n",
                    delta * 100.0);
        delta = std::min(delta, measure_batch(pairs));
        batches = 2;
    }
    double on = static_cast<double>(events) / best_on;
    double off = static_cast<double>(events) / best_off;
    std::printf("[bench_kernel] case=attribution_on events=%llu wall_s=%.4f "
                "events_per_sec=%.0f\n",
                static_cast<unsigned long long>(events), best_on, on);
    std::printf("[bench_kernel] case=attribution_off events=%llu "
                "wall_s=%.4f events_per_sec=%.0f\n",
                static_cast<unsigned long long>(events), best_off, off);
    bench_log_entry("attribution_on", events, best_on, on);
    bench_log_entry("attribution_off", events, best_off, off);
    std::printf("[bench_kernel] case=attribution_delta delta_pct=%.2f "
                "(limit 5.00, median of %d paired reps x %d batch%s)\n",
                delta * 100.0, pairs, batches, batches > 1 ? "es" : "");
    if (delta > 0.05) {
        std::fprintf(stderr,
                     "FAIL: enabled attribution costs %.2f%% (>5%%) on the "
                     "end-to-end bench path\n",
                     delta * 100.0);
        return false;
    }
    return true;
}

}  // namespace
}  // namespace lfs::bench

int
main(int argc, char** argv)
{
    using namespace lfs::bench;
    parse_args(argc, argv);
    print_banner("bench_kernel",
                 "Event-kernel dispatch throughput (wall-clock)");

    measure_case("callback_churn", run_callback_churn);
    measure_case("same_time_fifo", run_same_time_fifo);
    measure_case("coroutine_ping", run_coroutine_ping);
    measure_case("semaphore_chain", run_semaphore_chain);
    measure_case("task_churn", run_task_churn);
    bool ok = run_tracing_overhead_audit();
    ok = run_attribution_overhead_audit() && ok;

    if (!ok) {
        return 1;
    }
    std::printf("bench_kernel ok\n");
    return 0;
}
