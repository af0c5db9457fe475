/**
 * @file
 * lfsbench — the repository's end-to-end benchmark driver (see
 * perfbench/README.md for the workloads, metrics and checks).
 *
 * Runs one named workload against the simulated λFS (or HopsFS) from a
 * single process on a single thread — the simulated clients are
 * coroutines — and prints every metric by name with its unit, ending
 * with one JSON result line. Everything is measured from outside the
 * simulator: the driver uses the public workload::Dfs / sim::Simulation
 * API, reads public counters and the latency ledger, and times calls
 * into public layer functions.
 *
 *   lfsbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0: sets the system up 3 or more times (setup_s is the median)
 *            and measures one untraced window: host CPU per op, peak RSS
 *            and the simulated outcome (throughput, latency, cost).
 * --trace 1: one untraced run (per-layer counts, replay probes), then
 *            an identical run with the Tracer and the attribution ledger
 *            armed (span self time, ledger segments, tracing overhead).
 *
 * Any failed correctness check prints "check failed: <name>" to stderr
 * and exits 1 without a result line.
 */
#include <immintrin.h>
#include <sys/resource.h>

#if !defined(__x86_64__) && !defined(__i386__)
#error "lfsbench's reference kernel flushes cache lines with x86 clflush"
#endif

#include <algorithm>
#include <array>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/common/harness.h"
#include "src/core/lambda_fs.h"
#include "src/hopsfs/hopsfs.h"
#include "src/namespace/tree_builder.h"
#include "src/sim/primitives.h"
#include "src/sim/simulation.h"
#include "src/util/hash.h"
#include "src/workload/path_population.h"
#include "src/workload/spotify_workload.h"

namespace lfs::store {

/**
 * MetadataStore::shard_index_of_parent is private, and the benchmark
 * changes nothing in the simulator. An explicit instantiation may name a
 * private member ([temp.spec.general]/6), which lets the store.shard_ns
 * probe take the member's address without touching the class.
 */
struct ShardIndexAccess {
    using Fn = size_t (MetadataStore::*)(std::string_view) const;
    friend Fn shard_index_fn(ShardIndexAccess);
};

template <typename Tag, typename Tag::Fn Member>
struct ExposePrivate {
    friend typename Tag::Fn shard_index_fn(Tag) { return Member; }
};

template struct ExposePrivate<ShardIndexAccess,
                              &MetadataStore::shard_index_of_parent>;

}  // namespace lfs::store

namespace lfs::perfbench {
namespace {

using sim::SimTime;

// ----------------------------------------------------------------------
// Host clock and failure reporting
// ----------------------------------------------------------------------

/** Process CPU seconds: the driver is single-threaded, so CPU == work. */
double
cpu_seconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * Host CPU time normalised against a reference kernel.
 *
 * On a shared host the simulator's CPU cost per op drifts by 10-60% over
 * minutes, mostly with the memory latency the neighbours leave it. A
 * reference kernel is timed every kInterval of CPU between simulation
 * steps: a dependent pointer chase over 4096 cache lines that are flushed
 * from every cache level first, so each step is one memory access whose
 * latency does not depend on what the simulator left in the caches (its
 * time is the same after 2, 32 or 128 MiB of intervening random accesses)
 * and allocates nothing. A span of simulator CPU is reported scaled by
 * kNominal / (the kernel's mean time over that span). The kernel's own
 * CPU is excluded from every reading, and its 256 KiB from peak_rss_mb().
 */
class HostClock {
  public:
    /**
     * The kernel's median CPU time on the baseline host when unloaded, so
     * a normalised reading is in microseconds at that host's speed.
     */
    static constexpr double kNominal = 300e-6;
    static constexpr double kInterval = 25e-3;
    static constexpr size_t kLines = 4096;

    HostClock() : lines_(kLines)
    {
        // One random cycle through the lines: the chase cannot prefetch.
        std::vector<uint32_t> order(kLines);
        for (size_t i = 0; i < kLines; ++i) {
            order[i] = static_cast<uint32_t>(i);
        }
        uint64_t x = 0x9E3779B97F4A7C15ull;
        for (size_t i = kLines - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(order[i], order[x % (i + 1)]);
        }
        for (size_t i = 0; i < kLines; ++i) {
            lines_[order[i]].next = order[(i + 1) % kLines];
        }
    }

    HostClock(const HostClock&) = delete;
    HostClock& operator=(const HostClock&) = delete;

    static constexpr size_t table_bytes() { return kLines * sizeof(Line); }

    /** Process CPU seconds spent outside the reference kernel. */
    double now() const { return cpu_seconds() - kernel_cpu_; }

    /** Time the kernel once. */
    void
    sample()
    {
        double t0 = cpu_seconds();
        for (const Line& line : lines_) {
            _mm_clflush(&line);
        }
        _mm_mfence();
        double t1 = cpu_seconds();
        uint32_t cursor = 0;
        for (size_t k = 0; k < kLines; ++k) {
            cursor = lines_[cursor].next;
        }
        sink_ = cursor;
        double t2 = cpu_seconds();
        kernel_cpu_ += t2 - t0;
        samples_.emplace_back(now(), t2 - t1);
    }

    /** Normalised CPU seconds of @p fn(), bracketed by kernel samples. */
    template <typename Fn>
    double
    time(Fn&& fn)
    {
        sample();
        double t0 = now();
        fn();
        double t1 = now();
        sample();
        return normalized(t0, t1);
    }

    /** Between simulation steps: sample the kernel when it is due. */
    void
    tick()
    {
        if (samples_.empty() || now() - samples_.back().first >= kInterval) {
            sample();
        }
    }

    /**
     * Normalised seconds of the span [@p from, @p to] of now() readings:
     * its length scaled by kNominal / the mean kernel time of the samples
     * taken inside it (or of the last sample before it, if none).
     */
    double
    normalized(double from, double to) const
    {
        double sum = 0.0;
        int n = 0;
        double before = samples_.empty() ? kNominal : samples_.front().second;
        for (const auto& [at, t] : samples_) {
            if (at < from) {
                before = t;
            } else if (at <= to) {
                sum += t;
                ++n;
            }
        }
        double kernel = n > 0 ? sum / n : before;
        return (to - from) * kNominal / kernel;
    }

  private:
    struct alignas(64) Line {
        uint32_t next;
    };

    std::vector<Line> lines_;
    double kernel_cpu_ = 0.0;
    /** (now() after the sample, kernel CPU seconds). */
    std::vector<std::pair<double, double>> samples_;
    volatile uint32_t sink_ = 0;
};

HostClock&
host_clock()
{
    static HostClock clock;
    return clock;
}

/** Peak resident memory of the process, less the reference kernel's. */
double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    double kib = static_cast<double>(ru.ru_maxrss) -
                 static_cast<double>(HostClock::table_bytes()) / 1024.0;
    return kib / 1024.0;
}

[[noreturn]] void
fail(const std::string& check, const std::string& detail)
{
    std::fflush(stdout);
    std::fprintf(stderr, "lfsbench: check failed: %s: %s\n", check.c_str(),
                 detail.c_str());
    std::exit(1);
}

void
require(bool ok, const char* check, const std::string& detail)
{
    if (!ok) {
        fail(check, detail);
    }
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// ----------------------------------------------------------------------
// Workloads
// ----------------------------------------------------------------------

enum class SystemKind { kLambdaFs, kHopsFs };

/** LFS_BENCH_SCALE's default: the industrial runs' size (§5.2.1). */
constexpr double kIndustrialScale = 0.125;
constexpr int kClientVms = 8;

struct Workload {
    const char* name;
    SystemKind system;
    bool open_loop;
    OpType op;  ///< closed loop: the one op every client repeats
    int clients;
    double vcpus;
    /** Simulated seconds of measured window per --seconds of run. */
    double window_per_run_second;
    /** First guess at trace spans per op (sizes the span ring). */
    size_t spans_per_op;
};

const Workload kWorkloads[] = {
    {"lfs-read", SystemKind::kLambdaFs, false, OpType::kReadFile, 1024,
     512.0, 0.05, 5},
    {"lfs-write", SystemKind::kLambdaFs, false, OpType::kCreateFile, 1024,
     512.0, 0.6, 10},
    // §5.2.1: the 25k workload gives λFS half of HopsFS' 512 x s vCPUs.
    {"spotify", SystemKind::kLambdaFs, true, OpType::kReadFile,
     static_cast<int>(1024 * kIndustrialScale), 512.0 * kIndustrialScale / 2,
     6.0, 5},
    {"hops-read", SystemKind::kHopsFs, false, OpType::kReadFile, 1024, 512.0,
     0.8, 5},
};

const Workload*
find_workload(std::string_view name)
{
    for (const Workload& w : kWorkloads) {
        if (name == w.name) {
            return &w;
        }
    }
    return nullptr;
}

/**
 * The industrial workload at the default scale, base 25k ops/s, as
 * bench_fig08_industrial configures it. SpotifyConfig::seed keeps its
 * default: see seeded_tree().
 */
workload::SpotifyConfig
spotify_config(SimTime duration)
{
    workload::SpotifyConfig config;
    config.base_throughput = 25000.0 * kIndustrialScale;
    config.duration = duration;
    config.num_client_vms = kClientVms;
    return config;
}

/**
 * The open loop's inputs drawn from --seed. SpotifyWorkload draws its
 * epoch rates and op types from SpotifyConfig::seed, which stays fixed:
 * every run replays one load curve, as the paper drove every system with
 * one curve (a seeded curve moves simulated throughput and cost by tens
 * of percent from seed to seed). --seed shuffles the tree's path lists
 * the generator draws its targets from, so it picks the files and
 * directories the op stream touches.
 */
ns::BuiltTree
seeded_tree(ns::BuiltTree tree, uint64_t seed)
{
    sim::Rng rng(seed);
    for (std::vector<std::string>* paths : {&tree.dirs, &tree.files}) {
        for (size_t i = paths->size(); i > 1; --i) {
            std::swap((*paths)[i - 1], (*paths)[rng.index(i)]);
        }
    }
    return tree;
}

/**
 * The warm-up's op stream. Set-up is the same work in every run, so
 * setup_s measures one thing; --seed draws only the measured window's
 * inputs.
 */
constexpr uint64_t kWarmupSeed = 11;

// ----------------------------------------------------------------------
// System under test
// ----------------------------------------------------------------------

/** One built system; members destroyed in reverse order (dfs first). */
struct Instance {
    std::unique_ptr<sim::Simulation> sim;
    std::unique_ptr<workload::Dfs> dfs;
    core::LambdaFs* lfs = nullptr;      ///< set for λFS workloads
    store::MetadataStore* store = nullptr;
    ns::BuiltTree tree;
    size_t inodes_after_setup = 0;
};

/** Closed-loop warm-up (run_microbench's): one op per 20 ms per client. */
sim::Task<void>
warm_client(sim::Simulation& sim, workload::DfsClient& client,
            workload::PathPopulation& population, OpType op, SimTime until)
{
    while (sim.now() < until) {
        (void)co_await client.execute(population.make_op(op));
        co_await sim::delay(sim, sim::msec(20));
    }
}

/** Construct the system, build its namespace and run the warm-up. */
std::unique_ptr<Instance>
set_up(const Workload& w)
{
    auto inst = std::make_unique<Instance>();
    inst->sim = std::make_unique<sim::Simulation>();
    int per_vm = w.clients / kClientVms;
    // The §5.1 configurations and bench trees of bench/common/harness.
    if (w.system == SystemKind::kLambdaFs) {
        double store_scale = w.open_loop ? kIndustrialScale : 1.0;
        auto fs = std::make_unique<core::LambdaFs>(
            *inst->sim, bench::make_lambda_config(w.vcpus, kClientVms, per_vm,
                                                  store_scale));
        inst->lfs = fs.get();
        inst->store = &fs->store();
        inst->dfs = std::move(fs);
    } else {
        auto fs = std::make_unique<hopsfs::HopsFs>(
            *inst->sim, bench::make_hops_config("hopsfs", w.vcpus, false,
                                                kClientVms, per_vm));
        inst->store = &fs->store();
        inst->dfs = std::move(fs);
    }
    ns::NamespaceTree& tree = inst->dfs->authoritative_tree();
    inst->tree = w.open_loop ? bench::build_scaled_tree(tree, kIndustrialScale)
                             : bench::build_bench_tree(tree);
    sim::Simulation& sim = *inst->sim;
    if (w.open_loop) {
        // run_industrial's warm-up: idle prewarmed instances for 5 s.
        sim.run_until(sim.now() + sim::sec(5));
    } else {
        // run_microbench's warm-up: every client touches the system for
        // 4 s (reads, or stats before a write workload), then 2 s settle.
        workload::PathPopulation population(inst->tree,
                                            sim::Rng(kWarmupSeed));
        OpType op = is_read_op(w.op) ? w.op : OpType::kStat;
        SimTime until = sim.now() + sim::sec(4);
        for (size_t c = 0; c < inst->dfs->client_count(); ++c) {
            sim::spawn(warm_client(sim, inst->dfs->client(c), population, op,
                                   until));
        }
        while (sim.now() < until + sim::sec(2)) {
            sim.run_until(sim.now() + sim::msec(10));
            host_clock().tick();
        }
    }
    inst->inodes_after_setup = inst->dfs->authoritative_tree().inode_count();
    return inst;
}

/**
 * Set the system up at least 3 times, and more while the set-ups total
 * under half a CPU second (a cheap set-up is timed many times); keep the
 * last instance. @p median_s receives the median normalised set-up CPU
 * seconds. The window then runs on the same warmed heap in both modes.
 */
std::unique_ptr<Instance>
set_up_repeated(const Workload& w, double* median_s)
{
    constexpr size_t kMinSetups = 3;
    std::vector<double> times;
    double total = 0.0;
    std::unique_ptr<Instance> inst;
    while (times.size() < kMinSetups ||
           (total < 0.5 && times.size() < 100)) {
        inst.reset();
        times.push_back(host_clock().time([&] { inst = set_up(w); }));
        total += times.back();
    }
    *median_s = median(times);
    return inst;
}

// ----------------------------------------------------------------------
// Per-op recording through a Dfs wrapper
// ----------------------------------------------------------------------

/**
 * User-level outcomes still count as completed round trips, as
 * SpotifyWorkload counts them (its predicate is file-local).
 */
bool
counts_as_completed(const Status& status)
{
    switch (status.code()) {
      case Code::kOk:
      case Code::kNotFound:
      case Code::kAlreadyExists:
      case Code::kFailedPrecondition:
      case Code::kPermissionDenied:
      case Code::kInvalidArgument:
        return true;
      default:
        return false;
    }
}

constexpr size_t kOpTypes = static_cast<size_t>(OpType::kCount);

/** Bin width of the throughput series hashed into sim_digest. */
constexpr SimTime kSeriesBin = sim::msec(100);

/** Everything observed about the measured window's ops. */
struct Recorder {
    Recorder(sim::Simulation& s, bool closed_loop)
        : sim(s), check_creates(closed_loop)
    {
    }

    /**
     * Ops whose result must carry the inode the tree holds at the path
     * after the drain. An open-loop mix later moves and deletes the files
     * it creates, so there only reads and stats are checked.
     */
    bool
    checks_inode(OpType type) const
    {
        return type == OpType::kReadFile || type == OpType::kStat ||
               (check_creates && type == OpType::kCreateFile);
    }

    /** An op is issued: count it, and keep it for the replay probes. */
    void
    on_issue(const Op& op)
    {
        ++attempted;
        ++attempted_by_type[static_cast<size_t>(op.type)];
        if (issued.size() < keep_issued) {
            issued.push_back(op);
        }
    }

    void
    on_complete(OpType type, std::string path, SimTime begin,
                const OpResult& result)
    {
        SimTime now = sim.now();
        SimTime latency = now - begin;
        last_completion = std::max(last_completion, now);
        size_t t = static_cast<size_t>(type);
        if (!counts_as_completed(result.status)) {
            ++failed;
            ++failed_by_type[t];
            if (first_failure.empty()) {
                first_failure = std::string(op_name(type)) + " " + path +
                                ": " + result.status.to_string();
            }
            return;
        }
        ++completed;
        if (now < window_end) {
            ++completed_in_window;
        }
        latencies.push_back(latency);
        size_t bin = static_cast<size_t>((now - window_begin) / kSeriesBin);
        if (bin >= throughput.size()) {
            throughput.resize(bin + 1, 0);
        }
        ++throughput[bin];
        if (!is_read_op(type)) {
            ++writes;
        }
        if (checks_inode(type)) {
            if (!result.status.ok()) {
                ++inode_op_errors;
                if (first_inode_error.empty()) {
                    first_inode_error = std::string(op_name(type)) + " " +
                                        path + ": " +
                                        result.status.to_string();
                }
            } else {
                inode_results.push_back({std::move(path), result.inode.id});
            }
        }
        if (attribution) {
            // finalize() puts the unstamped remainder in kUnattributed;
            // the segments then sum to the latency unless the layers
            // stamped more time than the op took.
            sim::LatencyLedger ledger = result.ledger;
            ledger.finalize(latency);
            if (ledger.total() != latency) {
                ++ledger_mismatches;
            }
            for (size_t i = 0; i < sim::kLatSegCount; ++i) {
                ledger_us[i] += ledger.get(static_cast<sim::LatSeg>(i));
            }
        }
    }

    struct InodeResult {
        std::string path;
        ns::INodeId id;
    };

    sim::Simulation& sim;
    const bool check_creates;
    bool attribution = false;
    SimTime window_begin = 0;
    SimTime window_end = 0;
    SimTime last_completion = 0;
    uint64_t attempted = 0;
    uint64_t completed = 0;
    uint64_t completed_in_window = 0;
    uint64_t failed = 0;
    uint64_t writes = 0;
    std::array<uint64_t, kOpTypes> attempted_by_type{};
    std::array<uint64_t, kOpTypes> failed_by_type{};
    std::vector<SimTime> latencies;   ///< completed ops, in completion order
    std::vector<uint64_t> throughput; ///< completions per kSeriesBin
    std::vector<InodeResult> inode_results;
    uint64_t inode_op_errors = 0;
    std::string first_failure;
    std::string first_inode_error;
    uint64_t ledger_mismatches = 0;
    std::array<SimTime, sim::kLatSegCount> ledger_us{};
    /** The first keep_issued ops of the window, in issue order. */
    size_t keep_issued = 0;
    std::vector<Op> issued;
};

/**
 * The system under test as the workload generators see it: each client's
 * execute() forwards to the real client and hands the outcome to the
 * Recorder. Everything else forwards unchanged, so a generator written
 * against workload::Dfs (workload::SpotifyWorkload included) drives the
 * wrapper exactly as it would drive the system.
 */
class RecordingDfs : public workload::Dfs {
  public:
    RecordingDfs(workload::Dfs& inner, Recorder& rec) : inner_(inner)
    {
        for (size_t i = 0; i < inner.client_count(); ++i) {
            clients_.push_back(
                std::make_unique<Client>(inner.client(i), rec));
        }
    }

    std::string name() const override { return inner_.name(); }
    workload::DfsClient& client(size_t i) override { return *clients_[i]; }
    size_t client_count() const override { return clients_.size(); }
    workload::SystemMetrics& metrics() override { return inner_.metrics(); }
    ns::NamespaceTree&
    authoritative_tree() override
    {
        return inner_.authoritative_tree();
    }
    int
    active_name_nodes() const override
    {
        return inner_.active_name_nodes();
    }
    double cost_so_far() const override { return inner_.cost_so_far(); }
    double
    simplified_cost_so_far() const override
    {
        return inner_.simplified_cost_so_far();
    }
    workload::DegradationStats
    degradation() const override
    {
        return inner_.degradation();
    }

  private:
    class Client : public workload::DfsClient {
      public:
        Client(workload::DfsClient& inner, Recorder& rec)
            : inner_(inner), rec_(rec)
        {
        }

        sim::Task<OpResult>
        execute(Op op) override
        {
            OpType type = op.type;
            std::string path = rec_.checks_inode(type) ? op.path
                                                       : std::string();
            SimTime begin = rec_.sim.now();
            rec_.on_issue(op);
            OpResult result = co_await inner_.execute(std::move(op));
            rec_.on_complete(type, std::move(path), begin, result);
            co_return result;
        }

      private:
        workload::DfsClient& inner_;
        Recorder& rec_;
    };

    workload::Dfs& inner_;
    std::vector<std::unique_ptr<Client>> clients_;
};

// ----------------------------------------------------------------------
// Layer counters read from outside
// ----------------------------------------------------------------------

struct LayerCounters {
    uint64_t events = 0;
    uint64_t resubmissions = 0;
    uint64_t cold_starts = 0;
    uint64_t reclamations = 0;
    uint64_t gateway = 0;
    double busy_gb_us = 0.0;
    double provisioned_gb_us = 0.0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t invs = 0;
    uint64_t retransmits = 0;
    uint64_t store_reads = 0;
    uint64_t store_writes = 0;
    double cost = 0.0;
};

LayerCounters
read_counters(Instance& inst)
{
    LayerCounters c;
    c.events = inst.sim->events_executed();
    c.store_reads = inst.store->total_reads();
    c.store_writes = inst.store->total_writes();
    c.cost = inst.dfs->cost_so_far();
    if (inst.lfs == nullptr) {
        return c;
    }
    core::LambdaFs& fs = *inst.lfs;
    for (size_t i = 0; i < fs.client_count(); ++i) {
        c.resubmissions += fs.lfs_client(i).resubmissions();
    }
    const faas::Platform& platform = fs.platform();
    c.cold_starts = platform.total_cold_starts();
    c.gateway = platform.total_gateway_invocations();
    c.busy_gb_us = platform.total_busy_gb_us();
    c.provisioned_gb_us = platform.total_provisioned_gb_us();
    sim::MetricsRegistry& registry = inst.sim->metrics();
    for (int d = 0; d < platform.deployment_count(); ++d) {
        c.reclamations += platform.deployment(d).reclamations();
        sim::MetricLabels labels = {{"deployment", std::to_string(d)}};
        if (registry.contains("cache.hits", labels)) {
            c.cache_hits += registry.counter("cache.hits", labels).value();
            c.cache_misses +=
                registry.counter("cache.misses", labels).value();
        }
    }
    c.invs = fs.coordinator().invs_sent();
    c.retransmits = fs.coordinator().retransmits();
    return c;
}

// ----------------------------------------------------------------------
// The measured window
// ----------------------------------------------------------------------

struct Window {
    SimTime begin = 0;
    SimTime end = 0;
    /** When the generator last released work (see drain_s()). */
    SimTime last_release = 0;
    double cpu_start = 0.0;  ///< HostClock::now() at the window start
    double cpu_s = 0.0;      ///< window + drain CPU seconds
    /** (HostClock::now(), ops finished) after each 1 ms step. */
    std::vector<std::pair<double, uint64_t>> progress;
    LayerCounters before;
    LayerCounters after;
    int peak_instances = 0;
    size_t peak_store_queue = 0;
    int64_t offered = -1;  ///< open loop only
};

sim::Task<void>
closed_client(sim::Simulation& sim, workload::DfsClient& client,
              workload::PathPopulation& population, OpType op, SimTime until,
              sim::WaitGroup& done)
{
    while (sim.now() < until) {
        (void)co_await client.execute(population.make_op(op));
    }
    done.done();
}

SimTime
window_length(const Workload& w, int seconds)
{
    return sim::msec(static_cast<int64_t>(
        std::llround(w.window_per_run_second * seconds * 1000.0)));
}

/**
 * Drive the window and the drain after it. The loop advances in 1 ms
 * simulated steps and samples the instance count and store queue depth
 * after each; sampling reads state only, so it cannot change results.
 */
template <typename Finished>
void
drive(Instance& inst, Window& win, const Recorder& rec, Finished finished)
{
    sim::Simulation& sim = *inst.sim;
    SimTime limit = win.end + 4 * (win.end - win.begin) + sim::sec(60);
    while (!finished()) {
        require(sim.now() < limit, "ops_conserved",
                "window did not drain within its time limit");
        sim.run_until(sim.now() + sim::msec(1));
        host_clock().tick();
        win.progress.emplace_back(host_clock().now(),
                                  rec.completed + rec.failed);
        if (inst.lfs != nullptr) {
            win.peak_instances = std::max(
                win.peak_instances, inst.lfs->platform().total_alive_instances());
        }
        win.peak_store_queue =
            std::max(win.peak_store_queue, inst.store->queue_depth());
    }
}

Window
measure_window(Instance& inst, const Workload& w, uint64_t seed,
               int seconds, Recorder& rec)
{
    sim::Simulation& sim = *inst.sim;
    RecordingDfs dfs(*inst.dfs, rec);
    Window win;
    win.before = read_counters(inst);
    win.begin = sim.now();
    win.end = win.begin + window_length(w, seconds);
    rec.window_begin = win.begin;
    rec.window_end = win.end;
    host_clock().sample();
    win.cpu_start = host_clock().now();
    if (w.open_loop) {
        workload::SpotifyWorkload loop(sim, dfs, seeded_tree(inst.tree, seed),
                                       spotify_config(win.end - win.begin));
        loop.start();
        drive(inst, win, rec,
              [&] { return sim.now() >= win.end && loop.finished(); });
        win.offered = loop.offered();
        // The scheduler grants each second's ops at the second's start.
        win.last_release = win.end - sim::sec(1);
    } else {
        workload::PathPopulation population(inst.tree,
                                            sim::Rng(seed));
        sim::WaitGroup done(sim);
        for (size_t c = 0; c < dfs.client_count(); ++c) {
            done.add();
            sim::spawn(closed_client(sim, dfs.client(c), population, w.op,
                                     win.end, done));
        }
        drive(inst, win, rec, [&] { return done.count() == 0; });
        win.last_release = win.end;
    }
    win.cpu_s = host_clock().now() - win.cpu_start;
    win.after = read_counters(inst);
    return win;
}

/**
 * Host CPU microseconds per op, normalised by HostClock: the window's
 * ops are cut into kSlices consecutive slices of equal op count, each
 * slice's CPU is normalised against the kernel samples taken during it,
 * and the median slice is reported.
 */
double
host_us_per_op(const Window& win)
{
    constexpr uint64_t kSlices = 21;
    uint64_t total = win.progress.empty() ? 0 : win.progress.back().second;
    std::vector<double> slices;
    double cpu = win.cpu_start;
    uint64_t ops = 0;
    size_t i = 0;
    for (uint64_t k = 1; k <= kSlices; ++k) {
        uint64_t target = total * k / kSlices;
        while (i + 1 < win.progress.size() && win.progress[i].second < target) {
            ++i;
        }
        const auto& [cpu_k, ops_k] = win.progress[i];
        if (ops_k > ops) {
            slices.push_back(host_clock().normalized(cpu, cpu_k) * 1e6 /
                             static_cast<double>(ops_k - ops));
            cpu = cpu_k;
            ops = ops_k;
        }
    }
    return median(slices);
}

// ----------------------------------------------------------------------
// Correctness checks and the simulated-outcome digest
// ----------------------------------------------------------------------

void
check_run(Instance& inst, const Workload& w, const Window& win,
          const Recorder& rec)
{
    require(rec.attempted > 0, "ops_conserved", "no op was attempted");
    require(rec.attempted == rec.completed + rec.failed, "ops_conserved",
            "attempted " + std::to_string(rec.attempted) + " != completed " +
                std::to_string(rec.completed) + " + failed " +
                std::to_string(rec.failed));
    if (w.open_loop) {
        require(win.offered == static_cast<int64_t>(rec.attempted),
                "ops_conserved",
                "offered " + std::to_string(win.offered) +
                    " != completed + failed " +
                    std::to_string(rec.attempted));
    }
    // No op may end in a system error (deadline, unavailable, shed): it
    // would leave the latency sample and the inode checks below unseen.
    require(rec.failed == 0, "no_failed_ops",
            std::to_string(rec.failed) + " ops failed, first: " +
                rec.first_failure);
    require(rec.inode_op_errors == 0, "reads_and_creates_succeed",
            std::to_string(rec.inode_op_errors) +
                " read/stat/create ops returned an error, first: " +
                rec.first_inode_error);
    // Every acknowledged read, stat and create names the inode that the
    // authoritative tree holds at its path once the run has drained.
    ns::NamespaceTree& tree = inst.dfs->authoritative_tree();
    ns::IdChain chain;
    for (const Recorder::InodeResult& r : rec.inode_results) {
        Status st = tree.resolve_ids(r.path, ns::UserContext{},
                                     ns::Follow::kFinal, &chain);
        require(st.ok(), "namespace_postcondition",
                r.path + " does not resolve: " + st.to_string());
        require(chain.back() == r.id, "namespace_postcondition",
                r.path + " resolves to inode " +
                    std::to_string(chain.back()) + ", op returned " +
                    std::to_string(r.id));
    }
    bool writes = false;
    for (size_t t = 0; t < kOpTypes; ++t) {
        writes |= rec.attempted_by_type[t] > 0 &&
                  !is_read_op(static_cast<OpType>(t));
    }
    if (!writes) {
        require(tree.inode_count() == inst.inodes_after_setup,
                "namespace_postcondition",
                "read-only window changed the inode count from " +
                    std::to_string(inst.inodes_after_setup) + " to " +
                    std::to_string(tree.inode_count()));
    }
}

uint64_t
fnv_u64(uint64_t h, uint64_t v)
{
    unsigned char bytes[8];
    std::memcpy(bytes, &v, sizeof(v));
    return fnv1a_mix(h, std::string_view(reinterpret_cast<char*>(bytes), 8));
}

/**
 * Hash of the simulated outcome: op counts per type, every completed
 * op's latency (a 1 us-resolution histogram), the throughput series
 * in 100 ms bins, the drain instant and the accrued cost.
 */
uint64_t
sim_digest(const Window& win, const Recorder& rec)
{
    uint64_t h = kFnv1aBasis;
    h = fnv_u64(h, rec.attempted);
    h = fnv_u64(h, rec.completed);
    h = fnv_u64(h, rec.failed);
    for (size_t t = 0; t < kOpTypes; ++t) {
        h = fnv_u64(h, rec.attempted_by_type[t]);
        h = fnv_u64(h, rec.failed_by_type[t]);
    }
    std::vector<SimTime> sorted = rec.latencies;
    std::sort(sorted.begin(), sorted.end());
    for (SimTime v : sorted) {
        h = fnv_u64(h, static_cast<uint64_t>(v));
    }
    for (uint64_t n : rec.throughput) {
        h = fnv_u64(h, n);
    }
    h = fnv_u64(h, static_cast<uint64_t>(rec.last_completion - win.begin));
    uint64_t cost_bits = 0;
    double cost = win.after.cost - win.before.cost;
    std::memcpy(&cost_bits, &cost, sizeof(cost));
    return fnv_u64(h, cost_bits);
}

/**
 * Simulated seconds from the generator's last release of work (the
 * window's end for a closed loop, the final per-second grant for the
 * open loop) until every released op has completed: how late the
 * generator ran.
 */
double
drain_s(const Window& win, const Recorder& rec)
{
    return sim::to_sec(rec.last_completion - win.last_release);
}

/** Nearest-rank percentile of the window's completed-op latencies. */
double
latency_ms(std::vector<SimTime> v, double q)
{
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    size_t k = std::min(v.size() - 1, rank > 0 ? rank - 1 : 0);
    std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k),
                     v.end());
    return static_cast<double>(v[k]) / 1e3;
}

// ----------------------------------------------------------------------
// Output
// ----------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void
print_table(const char* title, const std::vector<Metric>& metrics)
{
    std::printf("  %s\n", title);
    for (const Metric& m : metrics) {
        std::printf("    %-26s %18.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
}

void
print_result(const std::vector<Metric>& metrics, uint64_t attempted,
             uint64_t failed)
{
    std::string out = "{\"correct\": true, \"attempted\": " +
                      std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        require(std::isfinite(m.value), "metrics_finite",
                m.name + " is not a finite number");
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        out += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

double
per(double numerator, uint64_t denominator)
{
    return denominator > 0 ? numerator / static_cast<double>(denominator)
                           : 0.0;
}

// ----------------------------------------------------------------------
// --trace 0: host cost and simulated outcome
// ----------------------------------------------------------------------

int
run_end_to_end(const Workload& w, uint64_t seed, int seconds)
{
    double setup_s = 0.0;
    std::unique_ptr<Instance> inst = set_up_repeated(w, &setup_s);
    Recorder rec(*inst->sim, !w.open_loop);
    Window win = measure_window(*inst, w, seed, seconds, rec);
    check_run(*inst, w, win, rec);

    double window_s = sim::to_sec(win.end - win.begin);
    std::vector<Metric> metrics = {
        {"host_us_per_op", host_us_per_op(win), "us"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"sim_ops_per_s",
         static_cast<double>(rec.completed_in_window) / window_s, "1/s"},
        {"sim_p50_ms", latency_ms(rec.latencies, 0.5), "ms"},
        {"sim_p99_ms", latency_ms(rec.latencies, 0.99), "ms"},
        {"sim_cost_usd", win.after.cost - win.before.cost, "usd"},
    };
    std::printf("lfsbench: workload=%s trace=0 window=%.3fs\n", w.name,
                window_s);
    print_table("end-to-end (host metrics: process CPU, normalised)",
                metrics);
    std::printf("    %-26s %18" PRIu64 " ops\n", "ops_attempted",
                rec.attempted);
    std::printf("    %-26s %18.6g us\n", "host_us_per_op (raw mean)",
                win.cpu_s * 1e6 / static_cast<double>(rec.attempted));
    std::printf("    %-26s %18.6g ms\n", "sim_p999_ms",
                latency_ms(rec.latencies, 0.999));
    std::printf("    %-26s %18.6g s\n", "sim_drain_s", drain_s(win, rec));
    std::printf("    %-26s %18.6g ratio\n", "failed_frac",
                per(static_cast<double>(rec.failed), rec.attempted));
    std::printf("    %-26s   %016" PRIx64 "\n", "sim_digest",
                sim_digest(win, rec));
    if (!rec.first_failure.empty()) {
        std::printf("  first failed op: %s\n", rec.first_failure.c_str());
    }
    print_result(metrics, rec.attempted, rec.failed);
    return 0;
}

// ----------------------------------------------------------------------
// --trace 1: per-layer metrics
// ----------------------------------------------------------------------

/** Median over @p passes of host ns per call of @p fn over @p ops. */
template <typename Fn>
double
probe_ns(const std::vector<Op>& ops, int passes, Fn fn)
{
    std::vector<double> ns;
    uint64_t sink = 0;
    for (int p = 0; p < passes; ++p) {
        double s = host_clock().time([&] {
            for (size_t i = 0; i < ops.size(); ++i) {
                sink += fn(ops[i], i);
            }
        });
        ns.push_back(s * 1e9 / static_cast<double>(ops.size()));
    }
    // Keep the probed calls observable so they cannot be elided.
    volatile uint64_t keep = sink;
    (void)keep;
    return median(ns);
}

struct Probes {
    double partition_ns = 0.0;
    double cache_get_ns = 0.0;
    double shard_ns = 0.0;
    double resolve_ns = 0.0;
    double gen_ns = 0.0;
};

/**
 * Replay probes: @p ops, the window's own op stream as the generator
 * issued it, through single public layer functions, against the state
 * the run just warmed.
 */
Probes
run_probes(Instance& inst, const std::vector<Op>& ops, uint64_t seed)
{
    constexpr int kPasses = 5;
    Probes p;
    const ns::NamespaceTree& tree = inst.dfs->authoritative_tree();
    ns::IdChain chain;
    p.resolve_ns = probe_ns(ops, kPasses, [&](const Op& op, size_t) {
        Status st = tree.resolve_ids(op.path, ns::UserContext{},
                                     ns::Follow::kFinal, &chain);
        return st.ok() ? chain.size() : 0;
    });
    auto shard_of = shard_index_fn(store::ShardIndexAccess{});
    store::MetadataStore& store = *inst.store;
    p.shard_ns = probe_ns(ops, kPasses, [&](const Op& op, size_t) {
        return (store.*shard_of)(op.path);
    });
    if (inst.lfs != nullptr) {
        core::LambdaFs& fs = *inst.lfs;
        const core::NamespacePartitioner& partitioner = fs.partitioner();
        p.partition_ns = probe_ns(ops, kPasses, [&](const Op& op, size_t) {
            return static_cast<size_t>(partitioner.deployment_for(op.path));
        });
        // Each op's home-deployment cache, on a live instance of it.
        std::vector<std::vector<cache::MetadataCache*>> caches(
            static_cast<size_t>(fs.platform().deployment_count()));
        for (int d = 0; d < fs.platform().deployment_count(); ++d) {
            for (faas::FunctionInstance* fi :
                 fs.platform().deployment(d).alive_instances()) {
                if (auto* nn = dynamic_cast<core::NameNode*>(&fi->app())) {
                    caches[static_cast<size_t>(d)].push_back(&nn->cache());
                }
            }
        }
        std::vector<cache::MetadataCache*> home(ops.size(), nullptr);
        for (size_t i = 0; i < ops.size(); ++i) {
            auto& list = caches[static_cast<size_t>(
                partitioner.deployment_for(ops[i].path))];
            require(!list.empty(), "probe_state",
                    "a deployment has no live NameNode after the run");
            home[i] = list[i % list.size()];
        }
        p.cache_get_ns = probe_ns(ops, kPasses, [&](const Op& op, size_t i) {
            return static_cast<size_t>(home[i]->get(op.path).has_value());
        });
    }
    // Generator cost: make_op over the same stream, fresh each pass.
    std::vector<OpType> types;
    types.reserve(ops.size());
    for (const Op& op : ops) {
        types.push_back(op.type);
    }
    std::vector<double> gen;
    for (int pass = 0; pass < kPasses; ++pass) {
        workload::PathPopulation population(inst.tree, sim::Rng(seed));
        size_t sink = 0;
        double s = host_clock().time([&] {
            for (OpType t : types) {
                sink += population.make_op(t).path.size();
            }
        });
        gen.push_back(s * 1e9 / static_cast<double>(types.size()));
        volatile size_t keep = sink;
        (void)keep;
    }
    p.gen_ns = median(gen);
    return p;
}

/** Per-component span self time (us), summed over the recorded spans. */
struct SpanTotals {
    std::map<std::string, double> self_us;
    size_t spans = 0;
};

SpanTotals
span_self_times(const sim::Tracer& tracer, SimTime now)
{
    std::vector<sim::SpanView> spans = tracer.snapshot();
    struct Child {
        uint64_t parent;
        SimTime start;
        SimTime end;
    };
    auto end_of = [now](const sim::SpanView& s) {
        return s.end < 0 ? now : s.end;
    };
    std::vector<Child> children;
    for (const sim::SpanView& s : spans) {
        if (s.parent_id != 0) {
            children.push_back({s.parent_id, s.start, end_of(s)});
        }
    }
    std::sort(children.begin(), children.end(),
              [](const Child& a, const Child& b) {
                  return a.parent != b.parent ? a.parent < b.parent
                                              : a.start < b.start;
              });
    SpanTotals totals;
    totals.spans = spans.size();
    for (const sim::SpanView& s : spans) {
        SimTime begin = s.start;
        SimTime end = end_of(s);
        // Union of the children's intervals, clipped to this span.
        SimTime covered = 0;
        SimTime cursor = begin;
        auto it = std::lower_bound(
            children.begin(), children.end(), s.span_id,
            [](const Child& c, uint64_t id) { return c.parent < id; });
        for (; it != children.end() && it->parent == s.span_id; ++it) {
            SimTime lo = std::max(it->start, cursor);
            SimTime hi = std::min(it->end, end);
            if (hi > lo) {
                covered += hi - lo;
                cursor = hi;
            }
        }
        totals.self_us[s.component] +=
            static_cast<double>(end - begin - covered);
    }
    return totals;
}

/** A run's traced twin: same seed, Tracer and ledger armed for the window. */
struct TracedRun {
    std::unique_ptr<Instance> inst;
    std::unique_ptr<Recorder> rec;
    Window win;
};

TracedRun
traced_run(const Workload& w, uint64_t seed, int seconds,
           size_t ring_capacity)
{
    TracedRun t;
    t.inst = set_up(w);
    sim::Simulation& sim = *t.inst->sim;
    // Light tracing (span timings, no annotation strings) keeps the ring
    // small; it is sized so that no span is overwritten.
    sim.tracer().set_capacity(ring_capacity);
    sim.tracer().set_annotations_enabled(false);
    sim.tracer().set_enabled(true);
    sim.set_attribution(true);
    t.rec = std::make_unique<Recorder>(sim, !w.open_loop);
    t.rec->attribution = true;
    t.win = measure_window(*t.inst, w, seed, seconds, *t.rec);
    sim.tracer().set_enabled(false);
    return t;
}

int
run_per_layer(const Workload& w, uint64_t seed, int seconds)
{
    // Untraced run, set up as in --trace 0: layer counters, the host
    // baseline for the tracing overhead, and the replay probes.
    double setup_s = 0.0;
    std::unique_ptr<Instance> inst = set_up_repeated(w, &setup_s);
    Recorder rec(*inst->sim, !w.open_loop);
    rec.keep_issued = 50000;
    Window win = measure_window(*inst, w, seed, seconds, rec);
    check_run(*inst, w, win, rec);
    uint64_t digest = sim_digest(win, rec);
    double host_us = host_us_per_op(win);
    Probes probes = run_probes(*inst, rec.issued, seed);
    ns::ResidencyStats residency =
        inst->dfs->authoritative_tree().residency_stats();
    size_t peak_backlog = inst->sim->peak_pending();
    inst.reset();

    size_t capacity = rec.attempted * w.spans_per_op + (1 << 16);
    TracedRun traced = traced_run(w, seed, seconds, capacity);
    if (traced.inst->sim->tracer().spans_dropped() > 0) {
        // The layers record more spans per op than the first guess: size
        // the ring from the count just seen and trace the window again.
        capacity = traced.inst->sim->tracer().spans_started() + (1 << 16);
        traced = TracedRun{};
        traced = traced_run(w, seed, seconds, capacity);
    }
    const sim::Tracer& tracer = traced.inst->sim->tracer();
    const Recorder& trec = *traced.rec;
    check_run(*traced.inst, w, traced.win, trec);
    require(sim_digest(traced.win, trec) == digest, "traced_digest_equal",
            "the traced run's simulated outcome differs from the untraced");
    require(trec.ledger_mismatches == 0, "ledger_sums_to_latency",
            std::to_string(trec.ledger_mismatches) +
                " ops' ledgers do not sum to their end-to-end latency");
    require(tracer.spans_dropped() == 0, "trace_complete",
            std::to_string(tracer.spans_dropped()) +
                " spans were overwritten in the trace ring");
    SpanTotals spans = span_self_times(tracer, traced.inst->sim->now());
    double traced_host_us = host_us_per_op(traced.win);

    const LayerCounters& a = win.after;
    const LayerCounters& b = win.before;
    uint64_t ops = rec.attempted;
    auto seg_ms = [&](sim::LatSeg seg) {
        return per(static_cast<double>(trec.ledger_us[static_cast<size_t>(seg)]),
                   ops) /
               1e3;
    };
    auto self_ms = [&](const char* component) {
        auto it = spans.self_us.find(component);
        return it == spans.self_us.end() ? 0.0 : per(it->second, ops) / 1e3;
    };
    uint64_t cache_gets = (a.cache_hits - b.cache_hits) +
                          (a.cache_misses - b.cache_misses);
    double provisioned = a.provisioned_gb_us - b.provisioned_gb_us;
    std::vector<Metric> metrics = {
        {"sim.events_per_op", per(static_cast<double>(a.events - b.events), ops),
         "count/op"},
        {"sim.host_ns_per_event",
         host_us * 1e3 *
             per(static_cast<double>(ops), a.events - b.events),
         "ns"},
        {"sim.peak_backlog", static_cast<double>(peak_backlog), "count"},
        {"core.retries_per_op",
         per(static_cast<double>(a.resubmissions - b.resubmissions), ops),
         "count/op"},
        {"core.retry_wait_ms", seg_ms(sim::LatSeg::kClientRetryWait), "ms/op"},
        {"core.backoff_ms", seg_ms(sim::LatSeg::kClientBackoff), "ms/op"},
        {"core.namenode_cpu_ms", seg_ms(sim::LatSeg::kNameNodeCpu), "ms/op"},
        {"core.partition_ns", probes.partition_ns, "ns"},
        {"faas.cold_starts", static_cast<double>(a.cold_starts - b.cold_starts),
         "count"},
        {"faas.reclamations",
         static_cast<double>(a.reclamations - b.reclamations), "count"},
        {"faas.gateway_per_op", per(static_cast<double>(a.gateway - b.gateway), ops),
         "count/op"},
        {"faas.peak_instances", static_cast<double>(win.peak_instances),
         "count"},
        {"faas.busy_frac",
         provisioned > 0 ? (a.busy_gb_us - b.busy_gb_us) / provisioned : 0.0,
         "ratio"},
        {"faas.gateway_queue_ms", seg_ms(sim::LatSeg::kGatewayQueue), "ms/op"},
        {"faas.cold_start_wait_ms", seg_ms(sim::LatSeg::kColdStartWait),
         "ms/op"},
        {"cache.hit_ratio",
         per(static_cast<double>(a.cache_hits - b.cache_hits), cache_gets),
         "ratio"},
        {"cache.get_ns", probes.cache_get_ns, "ns"},
        {"coord.invs_per_write", per(static_cast<double>(a.invs - b.invs), rec.writes),
         "count/op"},
        {"coord.retransmits", static_cast<double>(a.retransmits - b.retransmits),
         "count"},
        {"coord.coherence_ms", seg_ms(sim::LatSeg::kCoherence), "ms/op"},
        {"store.reads_per_op",
         per(static_cast<double>(a.store_reads - b.store_reads), ops), "count/op"},
        {"store.writes_per_op",
         per(static_cast<double>(a.store_writes - b.store_writes), ops),
         "count/op"},
        {"store.peak_queue_depth", static_cast<double>(win.peak_store_queue),
         "count"},
        {"store.lock_wait_ms", seg_ms(sim::LatSeg::kStoreLockWait), "ms/op"},
        {"store.queue_ms", seg_ms(sim::LatSeg::kStoreQueue), "ms/op"},
        {"store.service_ms", seg_ms(sim::LatSeg::kStoreService), "ms/op"},
        {"store.shard_ns", probes.shard_ns, "ns"},
        {"net.client_ms", seg_ms(sim::LatSeg::kNetClient), "ms/op"},
        {"net.gateway_ms", seg_ms(sim::LatSeg::kNetGateway), "ms/op"},
        {"net.store_ms", seg_ms(sim::LatSeg::kNetStore), "ms/op"},
        {"namespace.resolve_ns", probes.resolve_ns, "ns"},
        {"namespace.bytes_per_inode", residency.bytes_per_inode, "B/inode"},
        {"workload.gen_ns", probes.gen_ns, "ns"},
        {"workload.p999_ms", latency_ms(rec.latencies, 0.999), "ms"},
        {"workload.drain_s", drain_s(win, rec), "s"},
        {"span.client.self_ms", self_ms("client"), "ms/op"},
        {"span.faas.self_ms", self_ms("faas"), "ms/op"},
        {"span.namenode.self_ms", self_ms("namenode"), "ms/op"},
        {"span.store.self_ms", self_ms("store"), "ms/op"},
        {"span.coord.self_ms", self_ms("coord"), "ms/op"},
        {"ledger.unattributed_ms", seg_ms(sim::LatSeg::kUnattributed), "ms/op"},
        {"trace.overhead_frac", traced_host_us / host_us - 1.0, "ratio"},
    };
    std::printf("lfsbench: workload=%s trace=1 window=%.3fs spans=%zu\n",
                w.name, sim::to_sec(win.end - win.begin), spans.spans);
    print_table("per-layer (traced run for *_ms; untraced for counts, *_ns)",
                metrics);
    std::printf("    %-26s %18.6g us\n", "host_us_per_op (untraced)", host_us);
    std::printf("    %-26s %18.6g us\n", "host_us_per_op (traced)",
                traced_host_us);
    std::printf("    %-26s   %016" PRIx64 "\n", "sim_digest", digest);
    print_result(metrics, rec.attempted, rec.failed);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: lfsbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n  workloads:");
    for (const Workload& w : kWorkloads) {
        std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parse_int(const char* s, long long lo, long long hi, long long* out)
{
    char* end = nullptr;
    errno = 0;
    long long v = std::strtoll(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || v < lo || v > hi) {
        return false;
    }
    *out = v;
    return true;
}

}  // namespace
}  // namespace lfs::perfbench

int
main(int argc, char** argv)
{
    using namespace lfs::perfbench;
    const Workload* workload = nullptr;
    long long seed = -1;
    long long seconds = 10;
    long long trace = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string_view key = argv[i];
        const char* value = argv[i + 1];
        bool ok = true;
        if (key == "--workload") {
            workload = find_workload(value);
            ok = workload != nullptr;
        } else if (key == "--seed") {
            ok = parse_int(value, 0, INT64_MAX, &seed);
        } else if (key == "--seconds") {
            ok = parse_int(value, 1, 3600, &seconds);
        } else if (key == "--trace") {
            ok = parse_int(value, 0, 1, &trace);
        } else {
            ok = false;
        }
        if (!ok) {
            std::fprintf(stderr, "lfsbench: bad argument %s %s\n", argv[i],
                         value);
            return usage();
        }
    }
    if (workload == nullptr || seed < 0 || argc % 2 == 0) {
        return usage();
    }
    host_clock().sample();  // build the kernel's table before any timing
    return trace == 1
               ? run_per_layer(*workload, static_cast<uint64_t>(seed),
                               static_cast<int>(seconds))
               : run_end_to_end(*workload, static_cast<uint64_t>(seed),
                                static_cast<int>(seconds));
}
