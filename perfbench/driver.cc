/**
 * @file
 * Benchmark driver: runs one named workload's simulation points in
 * interleaved rounds and prints one JSON line per point run. run.py
 * builds this binary, checks the modelled results and aggregates the
 * host timings; README.md documents the workloads and metrics.
 *
 * Usage:
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *
 * A workload is a fixed list of points (implementation kind x program
 * seed), each simulating a fixed number of cycles, so the simulated
 * work of a round never depends on host speed; --seconds only sets how
 * many rounds are run (at least kMinRounds). Before the rounds, each
 * point is run once through runExperiment, and every later run of the
 * point through this driver must reproduce that RunResult exactly.
 *
 * With --trace 1 each point is run three times per round: untraced,
 * with the generator calls timed through TimedProgram, and with PC
 * sampling over the measure window. The two observers run apart so
 * the timer calls do not show up in the sampled shares. Every traced
 * run's modelled results must equal the untraced ones.
 */

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/invisifence.hh"
#include "harness/runner.hh"
#include "harness/system.hh"
#include "sampler.hh"
#include "workload/synthetic.hh"
#include "workload/workloads.hh"

extern char** environ;

// ---------------------------------------------------------------------
// Global allocation counter: operator-new calls in the measure window.
// ---------------------------------------------------------------------

namespace {
std::uint64_t g_allocs = 0;
}

// The counting replacements pair malloc with free by design.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void*
operator new(std::size_t size)
{
    ++g_allocs;
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

using namespace invisifence;
using perfbench::PcSampler;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMinRounds = 3;
constexpr long kSamplePeriodNs = 250'000;   // 4 kHz

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void
fail(const char* fmt, const char* arg)
{
    std::fprintf(stderr, "perfbench_driver: ");
    std::fprintf(stderr, fmt, arg);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

// ---------------------------------------------------------------------
// Workloads. Why each one exists is recorded in README.md.
// ---------------------------------------------------------------------

struct WorkloadSpec
{
    const char* name;
    const char* preset;
    SystemParams system;
    std::vector<ImplKind> kinds;
    /** Each kind runs under this many program seeds. Host time varies
     *  from seed to seed with the simulated behaviour, so a workload
     *  averages several short points instead of one long one. */
    std::uint32_t seedsPerKind;
    Cycle warmupCycles;
    Cycle measureCycles;
};

SystemParams
pinned(SystemParams p)
{
    p.fastForward = 1;   // never follow INVISIFENCE_FASTFWD
    return p;
}

std::vector<WorkloadSpec>
workloads()
{
    std::vector<WorkloadSpec> w;
    w.push_back({"apache16-spec", "Apache", pinned(SystemParams::bench()),
                 {ImplKind::InvisiSC, ImplKind::InvisiTSO,
                  ImplKind::InvisiRMO},
                 3, 12000, 30000});
    w.push_back({"oltp16-paper-conv", "OLTP-Oracle",
                 pinned(SystemParams::paper()),
                 {ImplKind::ConvSC, ImplKind::ConvTSO, ImplKind::ConvRMO},
                 4, 12000, 60000});
    // The fig13_scale machine at 64 cores: hashed homes, 512 KB L2,
    // near-square torus derived from the core count.
    SystemParams scale = pinned(SystemParams::bench());
    scale.numCores = 64;
    scale.dirHashHome = true;
    scale.agent.l2Size = 512 * 1024;
    scale.net.dimX = 0;
    scale.net.dimY = 0;
    w.push_back({"zipfkv64-contended", "ZipfKV", scale,
                 {ImplKind::ConvSC, ImplKind::InvisiSC}, 6, 12000, 60000});
    return w;
}

/** One simulation point: a kind under one program seed. */
struct Point
{
    ImplKind kind;
    std::uint64_t seed;
    RunResult reference;   //!< runExperiment's result for this point
};

/** The points of @p spec for workload seed @p seed. Program seeds are
 *  seedsPerKind consecutive integers from seed * seedsPerKind + 1, so
 *  different workload seeds never share a point. */
std::vector<Point>
makePoints(const WorkloadSpec& spec, std::uint64_t seed)
{
    std::vector<Point> points;
    for (std::uint32_t j = 0; j < spec.seedsPerKind; ++j) {
        for (const ImplKind kind : spec.kinds)
            points.push_back({kind, seed * spec.seedsPerKind + j + 1, {}});
    }
    return points;
}

// ---------------------------------------------------------------------
// Traced program wrapper: times the generator calls the core makes.
// ---------------------------------------------------------------------

struct ProgramSpans
{
    std::uint64_t fetches = 0;
    std::uint64_t restores = 0;
    std::int64_t ns = 0;   //!< inside fetchNext + restoreFrom
};

class TimedProgram final : public ThreadProgram
{
  public:
    TimedProgram(std::unique_ptr<ThreadProgram> inner, ProgramSpans& spans)
        : inner_(std::move(inner)), spans_(spans)
    {}

    Instruction
    fetchNext() override
    {
        const auto t0 = Clock::now();
        const Instruction inst = inner_->fetchNext();
        spans_.ns += (Clock::now() - t0).count();
        ++spans_.fetches;
        return inst;
    }

    void
    snapshotTo(ProgSnapshot& out) const override
    {
        inner_->snapshotTo(out);
    }

    void
    restoreFrom(const ProgSnapshot& in) override
    {
        const auto t0 = Clock::now();
        inner_->restoreFrom(in);
        spans_.ns += (Clock::now() - t0).count();
        ++spans_.restores;
    }

    void
    setLastResult(std::uint64_t value) override
    {
        inner_->setLastResult(value);
    }

  private:
    std::unique_ptr<ThreadProgram> inner_;
    ProgramSpans& spans_;
};

/** Mean duration of an empty steady_clock span: the timer cost that
 *  each TimedProgram span carries on top of the call it times. */
double
calibrateSpanNs()
{
    constexpr int kSpans = 200'000;
    std::int64_t ns = 0;
    for (int i = 0; i < kSpans; ++i) {
        const auto t0 = Clock::now();
        ns += (Clock::now() - t0).count();
    }
    return static_cast<double>(ns) / kSpans;
}

/**
 * Host-speed probe: fixed work with the simulator's memory behaviour —
 * zero a 32 MB table, then random read-modify-writes over it — in the
 * benchmark's own code, so no change to the simulator moves it. The
 * table is mapped and faulted in once, outside malloc, so the probe
 * neither changes where the simulator's arrays come from nor pays for
 * page faults; its pages stay resident and are subtracted from the
 * reported peak RSS.
 */
class HostProbe
{
  public:
    static constexpr std::size_t kWords = std::size_t{1} << 22;
    static constexpr std::uint64_t kTableKb = kWords * 8 / 1024;

    HostProbe()
        : table_(static_cast<std::uint64_t*>(
              mmap(nullptr, kWords * sizeof(std::uint64_t),
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0)))
    {
        if (table_ == MAP_FAILED)
            fail("%s", "host probe: mmap failed");
    }
    ~HostProbe() { munmap(table_, kWords * sizeof(std::uint64_t)); }
    HostProbe(const HostProbe&) = delete;
    HostProbe& operator=(const HostProbe&) = delete;

    /** Host seconds of one fixed probe run. */
    double
    run()
    {
        const auto t0 = Clock::now();
        std::memset(table_, 0, kWords * sizeof(std::uint64_t));
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        std::uint64_t acc = 0;
        for (int i = 0; i < 4'000'000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::uint64_t& slot = table_[x & (kWords - 1)];
            slot += x;
            acc += slot >> 7;
        }
        sink_ = acc;
        return secondsSince(t0);
    }

  private:
    std::uint64_t* table_;
    volatile std::uint64_t sink_ = 0;   //!< keeps the loop observable
};

/** Peak resident set since the last resetPeakRss(), in kB (VmHWM). */
std::uint64_t
peakRssKb()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (!f)
        fail("%s", "cannot read /proc/self/status");
    char line[256];
    unsigned long long kb = 0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    if (kb == 0)
        fail("%s", "no VmHWM in /proc/self/status");
    return kb;
}

/** Restart the peak-RSS count from the current resident set. */
void
resetPeakRss()
{
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    if (!f || std::fputs("5", f) < 0 || std::fclose(f) != 0)
        fail("%s", "cannot reset the peak RSS via /proc/self/clear_refs");
}

// ---------------------------------------------------------------------
// One point run.
// ---------------------------------------------------------------------

/** Counter snapshot; the measure window is the difference of two. */
struct Snap
{
    std::uint64_t cycles = 0;
    std::uint64_t retired = 0;
    std::uint64_t abortedRetired = 0;
    std::uint64_t coreCycles = 0;
    Breakdown breakdown{};
    std::uint64_t speculating = 0;
    std::uint64_t aborts = 0;
    std::uint64_t commits = 0;
    std::uint64_t speculations = 0;
    std::uint64_t mshrFullStalls = 0;
    std::uint64_t dirStaleWritebacks = 0;
    std::uint64_t dirQueuedRequests = 0;
    std::uint64_t retries = 0;
    std::uint64_t dropsInjected = 0;
    std::uint64_t dupsSquashed = 0;
    std::uint64_t retryBackoffMax = 0;
    std::uint64_t eventsExecuted = 0;
    std::uint64_t eventsScheduled = 0;
    std::uint64_t messages = 0;
    std::uint64_t dataMessages = 0;
    std::uint64_t hops = 0;
    std::uint64_t ffCycles = 0;
    std::uint64_t ffJumps = 0;
    std::uint64_t shardSkips = 0;
    std::uint64_t mshrAllocations = 0;
    std::uint64_t mshrWaiterDedups = 0;
    std::uint64_t fillsLocal = 0;
    std::uint64_t fillsRemote = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t externalServed = 0;
    std::uint64_t dirGetS = 0;
    std::uint64_t dirGetM = 0;
    std::uint64_t dirInvalidations = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t lqSquashes = 0;
};

std::uint64_t
statSum(const StatRegistry& reg, const char* suffix)
{
    return static_cast<std::uint64_t>(reg.sumMatching("core", suffix));
}

Snap
sample(System& sys)
{
    Snap s;
    s.cycles = sys.now();
    s.retired = sys.totalRetired();
    s.coreCycles = sys.totalCoreCycles();
    s.breakdown = sys.totalBreakdown();
    s.speculating = sys.totalSpeculatingCycles();
    s.mshrFullStalls = sys.totalMshrFullStalls();
    s.dirStaleWritebacks = sys.totalDirStaleWritebacks();
    s.dirQueuedRequests = sys.totalDirQueuedRequests();
    s.retries = sys.totalRetries();
    s.dropsInjected = sys.totalDropsInjected();
    s.dupsSquashed = sys.totalDupsSquashed();
    s.retryBackoffMax = sys.maxRetryBackoff();
    s.eventsExecuted = sys.eventQueue().executedCount();
    s.eventsScheduled = sys.eventQueue().scheduledCount();
    s.messages = sys.network().statMessages;
    s.dataMessages = sys.network().statDataMessages;
    s.hops = sys.network().statTotalHops;
    s.ffCycles = sys.statFastForwardedCycles;
    s.ffJumps = sys.statFastForwards;
    s.shardSkips = sys.statShardSkips;
    const StatRegistry& reg = sys.stats();
    s.mshrAllocations = statSum(reg, ".agent.mshr.allocations");
    s.mshrWaiterDedups = statSum(reg, ".agent.mshr.waiter_dedups");
    s.fillsLocal = statSum(reg, ".agent.l1_fills_local");
    s.fillsRemote = statSum(reg, ".agent.l1_fills_remote");
    s.upgrades = statSum(reg, ".agent.upgrades");
    s.externalServed = statSum(reg, ".agent.external_served");
    s.dirGetS = statSum(reg, ".dir.gets");
    s.dirGetM = statSum(reg, ".dir.getm");
    s.dirInvalidations = statSum(reg, ".dir.invalidations_sent");
    s.mispredicts = statSum(reg, ".mispredicts");
    s.lqSquashes = statSum(reg, ".lq_squashes");
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        if (auto* spec = dynamic_cast<SpeculativeImpl*>(&sys.impl(i))) {
            s.aborts += spec->statAborts;
            s.commits += spec->statCommits;
            s.speculations += spec->statSpeculations;
            s.abortedRetired += spec->statAbortedRetired;
        }
    }
    return s;
}

std::uint64_t
clampedDelta(std::uint64_t after, std::uint64_t before)
{
    return after >= before ? after - before : 0;
}

/** The RunResult runExperiment would build from the same snapshots. */
RunResult
toRunResult(const Snap& b, const Snap& a)
{
    RunResult r;
    const std::uint64_t committed_after =
        clampedDelta(a.retired, a.abortedRetired);
    const std::uint64_t committed_before =
        clampedDelta(b.retired, b.abortedRetired);
    r.retired = clampedDelta(committed_after, committed_before);
    r.coreCycles = a.coreCycles - b.coreCycles;
    r.breakdown.busy = clampedDelta(a.breakdown.busy, b.breakdown.busy);
    r.breakdown.other = clampedDelta(a.breakdown.other, b.breakdown.other);
    r.breakdown.sbFull = clampedDelta(a.breakdown.sbFull, b.breakdown.sbFull);
    r.breakdown.sbDrain =
        clampedDelta(a.breakdown.sbDrain, b.breakdown.sbDrain);
    r.breakdown.violation =
        clampedDelta(a.breakdown.violation, b.breakdown.violation);
    r.speculatingCycles = a.speculating - b.speculating;
    r.aborts = a.aborts - b.aborts;
    r.commits = a.commits - b.commits;
    r.mshrFullStalls = a.mshrFullStalls - b.mshrFullStalls;
    r.dirStaleWritebacks = a.dirStaleWritebacks - b.dirStaleWritebacks;
    r.dirQueuedRequests = a.dirQueuedRequests - b.dirQueuedRequests;
    r.retries = a.retries - b.retries;
    r.dropsRecovered = a.dropsInjected - b.dropsInjected;
    r.dupsSquashed = a.dupsSquashed - b.dupsSquashed;
    r.timeoutBackoffMax = a.retryBackoffMax;
    return r;
}

bool
sameResult(const RunResult& x, const RunResult& y)
{
    return x.retired == y.retired && x.coreCycles == y.coreCycles &&
           x.breakdown.busy == y.breakdown.busy &&
           x.breakdown.other == y.breakdown.other &&
           x.breakdown.sbFull == y.breakdown.sbFull &&
           x.breakdown.sbDrain == y.breakdown.sbDrain &&
           x.breakdown.violation == y.breakdown.violation &&
           x.speculatingCycles == y.speculatingCycles &&
           x.aborts == y.aborts && x.commits == y.commits &&
           x.mshrFullStalls == y.mshrFullStalls &&
           x.dirStaleWritebacks == y.dirStaleWritebacks &&
           x.dirQueuedRequests == y.dirQueuedRequests &&
           x.retries == y.retries && x.dropsRecovered == y.dropsRecovered &&
           x.dupsSquashed == y.dupsSquashed &&
           x.timeoutBackoffMax == y.timeoutBackoffMax;
}

struct PointRun
{
    Snap before, after;
    RunResult result;
    double constructS = 0, warmS = 0, warmupRunS = 0, runS = 0;
    double probeS = 0;   //!< host-speed probe run after the point
    double spanNs = 0;   //!< calibrated empty-span cost (Spans runs)
    std::uint64_t allocs = 0;
    ProgramSpans spans{};   //!< measure-window delta (traced runs)
};

/** How a point run is observed. */
enum class Trace
{
    Off,       //!< untraced: the run the end-to-end metrics come from
    Spans,     //!< generator calls timed through TimedProgram
    Sampled,   //!< PC sampling over the measure window
};

/**
 * Run one point exactly as runExperiment does, timing each public call
 * the benchmark makes, with the observation @p trace asks for.
 */
PointRun
runPoint(const WorkloadSpec& spec, const Workload& wl, ImplKind kind,
         std::uint64_t seed, Trace trace, PcSampler* sampler)
{
    PointRun pr;
    ProgramSpans spans{};
    auto t0 = Clock::now();
    std::vector<std::unique_ptr<ThreadProgram>> programs;
    for (std::uint32_t t = 0; t < spec.system.numCores; ++t) {
        auto prog = std::make_unique<SyntheticProgram>(wl.params, t, seed);
        if (trace == Trace::Spans) {
            programs.push_back(
                std::make_unique<TimedProgram>(std::move(prog), spans));
        } else {
            programs.push_back(std::move(prog));
        }
    }
    System sys(spec.system, std::move(programs), kind);
    pr.constructS = secondsSince(t0);

    t0 = Clock::now();
    warmSystem(sys, wl.params, 0.0);
    pr.warmS = secondsSince(t0);

    t0 = Clock::now();
    sys.run(spec.warmupCycles);
    pr.warmupRunS = secondsSince(t0);
    pr.before = sample(sys);
    const ProgramSpans spans_before = spans;
    const std::uint64_t allocs_before = g_allocs;
    if (trace == Trace::Sampled)
        sampler->start();
    t0 = Clock::now();
    sys.run(spec.measureCycles);
    pr.runS = secondsSince(t0);
    pr.allocs = g_allocs - allocs_before;
    if (trace == Trace::Sampled)
        sampler->stop();
    pr.spans.fetches = spans.fetches - spans_before.fetches;
    pr.spans.restores = spans.restores - spans_before.restores;
    pr.spans.ns = spans.ns - spans_before.ns;
    pr.after = sample(sys);
    pr.result = toRunResult(pr.before, pr.after);
    return pr;
}

// ---------------------------------------------------------------------
// Output: one JSON object per line.
// ---------------------------------------------------------------------

/** Builds one JSON object line. Keys and string values are fixed
 *  identifiers, point names and hex PCs, which need no escaping. */
class JsonLine
{
  public:
    JsonLine&
    num(const char* key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    JsonLine&
    real(const char* key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        return raw(key, buf);
    }

    JsonLine&
    str(const char* key, const std::string& v)
    {
        return raw(key, "\"" + v + "\"");
    }

    JsonLine&
    open(const char* key)
    {
        raw(key, "{");
        sep_ = "";
        return *this;
    }

    JsonLine&
    close()
    {
        text_ += "}";
        sep_ = ", ";
        return *this;
    }

    void
    print()
    {
        std::printf("%s}\n", text_.c_str());
        std::fflush(stdout);
    }

  private:
    JsonLine&
    raw(const std::string& key, const std::string& value)
    {
        text_ += sep_;
        text_ += "\"" + key + "\": " + value;
        sep_ = ", ";
        return *this;
    }

    std::string text_ = "{";
    const char* sep_ = "";
};

void
printRun(int round, const Point& point, Trace trace, const PointRun& pr)
{
    const Snap& a = pr.after;
    const Snap& b = pr.before;
    const RunResult& r = pr.result;
    const auto d = [&](std::uint64_t Snap::*field) {
        return a.*field - b.*field;
    };
    JsonLine line;
    line.str("kind", "run").num("round", static_cast<std::uint64_t>(round))
        .str("point", std::string(implKindName(point.kind)) + "@" +
                          std::to_string(point.seed))
        .num("trace", static_cast<std::uint64_t>(trace))
        .num("matches_run_experiment",
             sameResult(point.reference, pr.result) ? 1 : 0);
    line.open("m")
        .num("cycles", d(&Snap::cycles))
        .num("cycles_total", a.cycles)
        .num("committed_total", clampedDelta(a.retired, a.abortedRetired))
        .num("committed", r.retired)
        .num("core_cycles", r.coreCycles)
        .num("busy", r.breakdown.busy)
        .num("other", r.breakdown.other)
        .num("sb_full", r.breakdown.sbFull)
        .num("sb_drain", r.breakdown.sbDrain)
        .num("violation", r.breakdown.violation)
        .num("speculating", r.speculatingCycles)
        .num("commits", r.commits)
        .num("aborts", r.aborts)
        .num("speculations", d(&Snap::speculations))
        .num("retired_raw", d(&Snap::retired))
        .num("aborted_retired", d(&Snap::abortedRetired))
        .num("mshr_full_stalls", r.mshrFullStalls)
        .num("dir_stale_writebacks", r.dirStaleWritebacks)
        .num("dir_queued_requests", r.dirQueuedRequests)
        .num("retries", r.retries)
        .num("events_executed", d(&Snap::eventsExecuted))
        .num("events_scheduled", d(&Snap::eventsScheduled))
        .num("messages", d(&Snap::messages))
        .num("data_messages", d(&Snap::dataMessages))
        .num("hops", d(&Snap::hops))
        .num("ff_cycles", d(&Snap::ffCycles))
        .num("ff_jumps", d(&Snap::ffJumps))
        .num("shard_skips", d(&Snap::shardSkips))
        .num("mshr_allocations", d(&Snap::mshrAllocations))
        .num("mshr_waiter_dedups", d(&Snap::mshrWaiterDedups))
        .num("l1_fills_local", d(&Snap::fillsLocal))
        .num("l1_fills_remote", d(&Snap::fillsRemote))
        .num("upgrades", d(&Snap::upgrades))
        .num("external_served", d(&Snap::externalServed))
        .num("dir_gets", d(&Snap::dirGetS))
        .num("dir_getm", d(&Snap::dirGetM))
        .num("dir_invalidations", d(&Snap::dirInvalidations))
        .num("mispredicts", d(&Snap::mispredicts))
        .num("lq_squashes", d(&Snap::lqSquashes))
        .close();
    line.open("h")
        .real("construct_s", pr.constructS)
        .real("warm_s", pr.warmS)
        .real("warmup_run_s", pr.warmupRunS)
        .real("run_s", pr.runS)
        .real("probe_s", pr.probeS)
        .num("allocs", pr.allocs)
        .num("fetches", pr.spans.fetches)
        .num("restores", pr.spans.restores)
        .real("fetch_s", static_cast<double>(pr.spans.ns) * 1e-9)
        .real("timer_ns_per_span", pr.spanNs)
        .close();
    line.print();
}

void
printEnd(int rounds, std::uint64_t peak_rss_kb, const PcSampler* sampler)
{
    JsonLine line;
    line.str("kind", "end").num("rounds", static_cast<std::uint64_t>(rounds))
        .num("peak_rss_kb", peak_rss_kb);
    if (sampler) {
        line.open("samples").open("exe");
        char pc[24];
        for (const auto& [rel, count] : sampler->histogram()) {
            std::snprintf(pc, sizeof(pc), "%" PRIx64, rel);
            line.num(pc, count);
        }
        line.close().num("external", sampler->external()).close();
    }
    line.print();
}

/** Refuse settings that would change the simulated program. */
void
checkPinned()
{
    for (char** env = environ; *env != nullptr; ++env) {
        if (std::strncmp(*env, "INVISIFENCE_", 12) == 0)
            fail("refusing to run with %s set", *env);
    }
#ifndef NDEBUG
    fail("refusing to report numbers from a %s build without NDEBUG",
         PERFBENCH_BUILD_TYPE);
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
        fail("refusing to report numbers from a '%s' build",
             PERFBENCH_BUILD_TYPE);
}

std::uint64_t
parseU64(const char* flag, const char* text)
{
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (text[0] < '0' || text[0] > '9' || *end != '\0')
        fail("%s needs a non-negative integer", flag);
    return v;
}

} // namespace

int
main(int argc, char** argv)
{
    checkPinned();
    std::string name;
    std::uint64_t seed = 0;
    std::uint64_t seconds = 0;
    std::uint64_t trace = 0;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag == "--workload") {
            name = argv[i + 1];
        } else if (flag == "--seed") {
            seed = parseU64("--seed", argv[i + 1]);
            have_seed = true;
        } else if (flag == "--seconds") {
            seconds = parseU64("--seconds", argv[i + 1]);
        } else if (flag == "--trace") {
            trace = parseU64("--trace", argv[i + 1]);
        } else {
            fail("unknown flag %s", argv[i]);
        }
    }
    if (argc % 2 != 1 || !have_seed || trace > 1)
        fail("%s", "usage: perfbench_driver --workload NAME --seed N "
                   "--seconds S --trace 0|1");

    const std::vector<WorkloadSpec> specs = workloads();
    const WorkloadSpec* spec = nullptr;
    for (const WorkloadSpec& s : specs) {
        if (name == s.name)
            spec = &s;
    }
    if (!spec)
        fail("unknown workload '%s'", name.c_str());
    const Workload& wl = workloadByName(spec->preset);

    // Reference results: every driver run must reproduce runExperiment
    // exactly. This pass also warms the allocator before any timing.
    std::vector<Point> points = makePoints(*spec, seed);
    for (Point& point : points) {
        RunConfig cfg;
        cfg.warmupCycles = spec->warmupCycles;
        cfg.measureCycles = spec->measureCycles;
        cfg.seed = point.seed;
        cfg.system = spec->system;
        point.reference = runExperiment(wl, point.kind, cfg);
    }

    std::vector<Trace> passes = {Trace::Off};
    std::unique_ptr<PcSampler> sampler;
    if (trace) {
        passes.push_back(Trace::Spans);
        passes.push_back(Trace::Sampled);
        // Room for every sample of a process that runs for 200 s.
        sampler = std::make_unique<PcSampler>(
            static_cast<std::size_t>(200) * 1'000'000'000 / kSamplePeriodNs,
            kSamplePeriodNs);
    }

    // Interleaved rounds; the starting point rotates so no point always
    // runs first.
    const auto start = Clock::now();
    const std::size_t n = points.size();
    HostProbe probe;
    int rounds = 0;
    std::uint64_t peak_rss_kb = 0;
    resetPeakRss();
    while (rounds < kMinRounds ||
           secondsSince(start) < static_cast<double>(seconds)) {
        ++rounds;
        for (std::size_t k = 0; k < n; ++k) {
            const Point& point =
                points[(k + static_cast<std::size_t>(rounds)) % n];
            for (const Trace pass : passes) {
                PointRun pr = runPoint(*spec, wl, point.kind, point.seed,
                                       pass, sampler.get());
                // The peak RSS covers the point runs only: the probe's
                // table and the sampler's buffer are the benchmark's.
                if (pass == Trace::Off) {
                    peak_rss_kb = std::max(
                        peak_rss_kb, peakRssKb() - HostProbe::kTableKb);
                }
                pr.probeS = probe.run();
                // The timer cost is calibrated next to the spans it
                // corrects: it drifts with the host.
                if (pass == Trace::Spans)
                    pr.spanNs = calibrateSpanNs();
                resetPeakRss();
                printRun(rounds, point, pass, pr);
            }
        }
    }
    printEnd(rounds, peak_rss_kb, sampler.get());
    return 0;
}
