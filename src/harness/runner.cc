#include "harness/runner.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <memory>

#include "core/invisifence.hh"
#include "sim/log.hh"
#include "workload/synthetic.hh"

namespace invisifence {

namespace {

/** Strictly parse @p text as an integer in [lo, hi]; fatal otherwise. */
std::uint64_t
parseEnvInt(const char* name, const char* text, std::uint64_t lo,
            std::uint64_t hi)
{
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    // Demand a bare digit up front: strtoull itself would skip leading
    // whitespace and wrap a '-' sign to a huge unsigned value.
    if (text[0] < '0' || text[0] > '9' || end == text ||
        *end != '\0' || errno == ERANGE || v < lo || v > hi) {
        IF_FATAL("%s='%s' is not an integer in [%llu, %llu]", name, text,
                 static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    }
    return v;
}

/** Value of env var @p name, or @p unset when absent. */
std::uint64_t
envOr(const char* name, std::uint64_t unset, std::uint64_t lo,
      std::uint64_t hi)
{
    const char* text = std::getenv(name);
    return text ? parseEnvInt(name, text, lo, hi) : unset;
}

BenchEnv
parseBenchEnv()
{
    BenchEnv e;
    e.measureCycles = static_cast<Cycle>(
        envOr("INVISIFENCE_BENCH_CYCLES", 0, 1, 100'000'000'000ull));
    e.seed = envOr("INVISIFENCE_BENCH_SEED", 0, 1, ~0ull);
    e.seeds = static_cast<std::uint32_t>(
        envOr("INVISIFENCE_BENCH_SEEDS", 1, 1, 10'000));
    e.jobs = static_cast<std::uint32_t>(
        envOr("INVISIFENCE_JOBS", 0, 1, 4096));
    e.fuzzPrograms = static_cast<std::uint32_t>(
        envOr("INVISIFENCE_FUZZ_PROGRAMS", 200, 1, 1'000'000));
    if (const char* path = std::getenv("INVISIFENCE_BENCH_JSON"))
        e.jsonPath = path;
    e.numCores = static_cast<std::uint32_t>(
        envOr("INVISIFENCE_NUM_CORES", 0, 1, SharerSet::kMaxNodes));
    e.dimX = static_cast<std::uint32_t>(
        envOr("INVISIFENCE_DIM_X", 0, 1, SharerSet::kMaxNodes));
    e.dimY = static_cast<std::uint32_t>(
        envOr("INVISIFENCE_DIM_Y", 0, 1, SharerSet::kMaxNodes));
    e.hopLatency = static_cast<Cycle>(
        envOr("INVISIFENCE_HOP_LATENCY", 0, 1, 1'000'000));
    e.dirHash =
        static_cast<int>(envOr("INVISIFENCE_DIR_HASH", std::uint64_t(-1),
                               0, 1));
    e.maxCycles = static_cast<Cycle>(
        envOr("INVISIFENCE_MAX_CYCLES", 0, 1, ~0ull));
    e.faultSeed = envOr("INVISIFENCE_FAULT_SEED", 0, 1, ~0ull);
    e.faultDrop = static_cast<std::uint32_t>(
        envOr("INVISIFENCE_FAULT_DROP", 0, 0, 65536));
    e.faultDelay = static_cast<std::uint32_t>(
        envOr("INVISIFENCE_FAULT_DELAY", 0, 0, 65536));
    e.faultDup = static_cast<std::uint32_t>(
        envOr("INVISIFENCE_FAULT_DUP", 0, 0, 65536));
    e.watchdog = static_cast<Cycle>(
        envOr("INVISIFENCE_WATCHDOG", 0, 1, ~0ull));
    return e;
}

} // namespace

const BenchEnv&
benchEnv()
{
    static const BenchEnv env = parseBenchEnv();
    return env;
}

RunConfig
RunConfig::fromEnv()
{
    const BenchEnv& env = benchEnv();
    RunConfig cfg;
    if (env.measureCycles > 0) {
        cfg.measureCycles = env.measureCycles;
        cfg.warmupCycles = env.measureCycles / 6;
    }
    if (env.seed > 0)
        cfg.seed = env.seed;
    if (env.numCores > 0)
        cfg.system.numCores = env.numCores;
    if (env.dimX > 0)
        cfg.system.net.dimX = env.dimX;
    if (env.dimY > 0)
        cfg.system.net.dimY = env.dimY;
    if (env.hopLatency > 0)
        cfg.system.net.perHopLatency = env.hopLatency;
    if (env.dirHash >= 0)
        cfg.system.dirHashHome = env.dirHash != 0;
    if (env.faultSeed != 0)
        cfg.system.fault.seed = env.faultSeed;
    if (env.faultDrop != 0 || env.faultDelay != 0 || env.faultDup != 0) {
        cfg.system.fault.dropPer64k = env.faultDrop;
        cfg.system.fault.delayPer64k = env.faultDelay;
        cfg.system.fault.dupPer64k = env.faultDup;
        // Dropped requests without retries would simply wedge the run:
        // arm a default request timeout sitting well above the
        // worst-case clean round trip of the bench torus.
        if (cfg.system.agent.retryTimeout == 0)
            cfg.system.agent.retryTimeout = 3000;
    }
    if (env.watchdog != 0)
        cfg.system.watchdog = env.watchdog;
    return cfg;
}

namespace {

std::uint64_t
clampedDelta(std::uint64_t after, std::uint64_t before)
{
    // Aborts reclassify in-flight cycles as Violation, so a category can
    // shrink slightly across the window; clamp instead of wrapping.
    return after >= before ? after - before : 0;
}

Breakdown
minus(const Breakdown& a, const Breakdown& b)
{
    Breakdown d;
    d.busy = clampedDelta(a.busy, b.busy);
    d.other = clampedDelta(a.other, b.other);
    d.sbFull = clampedDelta(a.sbFull, b.sbFull);
    d.sbDrain = clampedDelta(a.sbDrain, b.sbDrain);
    d.violation = clampedDelta(a.violation, b.violation);
    return d;
}

struct Counters
{
    std::uint64_t retired = 0;
    std::uint64_t abortedRetired = 0;
    std::uint64_t coreCycles = 0;
    Breakdown breakdown{};
    std::uint64_t speculating = 0;
    std::uint64_t aborts = 0;
    std::uint64_t commits = 0;
    std::uint64_t mshrFullStalls = 0;
    std::uint64_t dirStaleWritebacks = 0;
    std::uint64_t dirQueuedRequests = 0;
    std::uint64_t retries = 0;
    std::uint64_t dropsInjected = 0;
    std::uint64_t dupsSquashed = 0;
    std::uint64_t retryBackoffMax = 0;
};

Counters
sample(System& sys)
{
    Counters c;
    c.retired = sys.totalRetired();
    c.coreCycles = sys.totalCoreCycles();
    c.breakdown = sys.totalBreakdown();
    c.speculating = sys.totalSpeculatingCycles();
    c.mshrFullStalls = sys.totalMshrFullStalls();
    c.dirStaleWritebacks = sys.totalDirStaleWritebacks();
    c.dirQueuedRequests = sys.totalDirQueuedRequests();
    c.retries = sys.totalRetries();
    c.dropsInjected = sys.totalDropsInjected();
    c.dupsSquashed = sys.totalDupsSquashed();
    c.retryBackoffMax = sys.maxRetryBackoff();
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        if (auto* spec = dynamic_cast<SpeculativeImpl*>(&sys.impl(i))) {
            c.aborts += spec->statAborts;
            c.commits += spec->statCommits;
            c.abortedRetired += spec->statAbortedRetired;
        }
    }
    return c;
}

} // namespace

void
warmSystem(System& sys, const SyntheticParams& params,
           double sharer_fraction)
{
    if (sharer_fraction != 0.0) {
        IF_FATAL("warmSystem: sharer_fraction=%g, but only "
                 "everywhere-shared priming (0) is supported",
                 sharer_fraction);
    }
    const std::uint32_t n = sys.numCores();
    const BlockData zero{};
    // Never prime more than fits comfortably: overflowing the L2 here
    // would trigger an eviction storm before the run even starts.
    const std::uint32_t l2_blocks = static_cast<std::uint32_t>(
        sys.agent(0).params().l2Size / kBlockBytes);
    const std::uint32_t priv_cap = l2_blocks / 2;
    const std::uint32_t shared_cap = l2_blocks / 4;

    const HomeMap& homes = sys.homeMap();
    const SharerSet sharers = SharerSet::firstN(n);
    const auto prime_shared = [&](Addr block) {
        sharers.forEach([&](NodeId t) {
            sys.agent(t).primeBlock(block, CoherenceState::Shared, zero);
        });
        sys.directory(homes.homeOf(block)).primeShared(block, sharers);
    };

    // Private working sets: Exclusive at their owning core.
    const std::uint32_t priv =
        std::min<std::uint32_t>(params.privateBlocks, priv_cap);
    for (std::uint32_t t = 0; t < n; ++t) {
        const Addr base = kPrivateRegion + t * kPrivateStride;
        for (std::uint32_t b = 0; b < priv; ++b) {
            const Addr block = base + static_cast<Addr>(b) * kBlockBytes;
            sys.agent(t).primeBlock(block, CoherenceState::Exclusive,
                                    zero);
            sys.directory(homes.homeOf(block)).primeOwned(block, t);
        }
    }

    // Shared region and lock words: Shared at every node.
    const std::uint32_t shared =
        std::min<std::uint32_t>(params.sharedBlocks, shared_cap);
    for (std::uint32_t b = 0; b < shared; ++b)
        prime_shared(kSharedRegion + static_cast<Addr>(b) * kBlockBytes);
    const std::uint32_t locks =
        std::min<std::uint32_t>(params.numLocks, l2_blocks / 16);
    for (std::uint32_t l = 0; l < locks; ++l)
        prime_shared(lockAddr(l));

    // Lock-protected data: migratory; start at a round-robin owner.
    for (std::uint32_t l = 0; l < locks; ++l) {
        const NodeId owner = l % n;
        const Addr base = kLockDataRegion +
                          static_cast<Addr>(l) * params.lockDataBlocks *
                              kBlockBytes;
        for (std::uint32_t b = 0; b < params.lockDataBlocks; ++b) {
            const Addr block = base + static_cast<Addr>(b) * kBlockBytes;
            sys.agent(owner).primeBlock(block, CoherenceState::Exclusive,
                                        zero);
            sys.directory(homes.homeOf(block)).primeOwned(block, owner);
        }
    }
}

RunResult
runExperiment(const Workload& workload, ImplKind kind,
              const RunConfig& cfg)
{
    std::vector<std::unique_ptr<ThreadProgram>> programs;
    for (std::uint32_t t = 0; t < cfg.system.numCores; ++t) {
        programs.push_back(std::make_unique<SyntheticProgram>(
            workload.params, t, cfg.seed));
    }
    System sys(cfg.system, std::move(programs), kind);
    if (cfg.warmStart)
        warmSystem(sys, workload.params);

    sys.run(cfg.warmupCycles);
    const Counters before = sample(sys);
    sys.run(cfg.measureCycles);
    const Counters after = sample(sys);

    RunResult r;
    r.workload = workload.name;
    r.impl = implKindName(kind);
    r.seed = cfg.seed;
    // Committed instructions only: retirements discarded by an abort are
    // re-executed and would otherwise be double counted. Clamp: an abort
    // right after the sample can discard work retired before it.
    const std::uint64_t committed_after =
        after.retired >= after.abortedRetired
            ? after.retired - after.abortedRetired
            : 0;
    const std::uint64_t committed_before =
        before.retired >= before.abortedRetired
            ? before.retired - before.abortedRetired
            : 0;
    r.retired = committed_after >= committed_before
                    ? committed_after - committed_before
                    : 0;
    r.coreCycles = after.coreCycles - before.coreCycles;
    r.breakdown = minus(after.breakdown, before.breakdown);
    r.speculatingCycles = after.speculating - before.speculating;
    r.aborts = after.aborts - before.aborts;
    r.commits = after.commits - before.commits;
    r.mshrFullStalls = after.mshrFullStalls - before.mshrFullStalls;
    r.dirStaleWritebacks =
        after.dirStaleWritebacks - before.dirStaleWritebacks;
    r.dirQueuedRequests =
        after.dirQueuedRequests - before.dirQueuedRequests;
    r.retries = after.retries - before.retries;
    r.dropsRecovered = after.dropsInjected - before.dropsInjected;
    r.dupsSquashed = after.dupsSquashed - before.dupsSquashed;
    // A high-water mark, not a rate: report the absolute maximum the
    // run ever reached rather than a meaningless window difference.
    r.timeoutBackoffMax = after.retryBackoffMax;
    return r;
}

BreakdownShares
shares(const RunResult& r)
{
    BreakdownShares s;
    const double total = static_cast<double>(r.coreCycles);
    if (total <= 0)
        return s;
    s.busy = static_cast<double>(r.breakdown.busy) / total;
    s.other = static_cast<double>(r.breakdown.other) / total;
    s.sbFull = static_cast<double>(r.breakdown.sbFull) / total;
    s.sbDrain = static_cast<double>(r.breakdown.sbDrain) / total;
    s.violation = static_cast<double>(r.breakdown.violation) / total;
    return s;
}

BreakdownShares
normalizedShares(const RunResult& r, const RunResult& baseline)
{
    BreakdownShares s = shares(r);
    const double thr = r.throughput();
    if (thr <= 0)
        return s;
    const double scale = baseline.throughput() / thr;
    s.busy *= scale;
    s.other *= scale;
    s.sbFull *= scale;
    s.sbDrain *= scale;
    s.violation *= scale;
    return s;
}

} // namespace invisifence
