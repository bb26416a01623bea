/**
 * @file
 * Simulator-throughput tracker: simulated kilocycles per wall-clock
 * second, per implementation kind, with the quiescence-aware
 * fast-forward scheduler off (legacy per-cycle loop) and on.
 *
 * Run via the `bench_wallclock` binary; the `bench_wallclock_json`
 * CMake target regenerates the committed BENCH_wallclock.json so the
 * perf trajectory is tracked PR-over-PR, the same flow as
 * BENCH_baseline.json. Two figure configurations are measured: the
 * gentler interconnect used by the fig08/fig09 benches ("bench") and
 * the paper's Figure 6 parameters ("paper"), where 100-cycle hops make
 * stall windows long and the event-driven scheduler shines.
 *
 * Schema v2 adds two columns per point: events/sec (event-queue
 * executions per wall second, fastfwd mode) and allocs/cycle (global
 * operator-new calls per simulated cycle across the measure window —
 * 0.000 is the pooled event path's contract). Schema v3 adds the
 * memory-system accounting counters (mshr_full_stalls,
 * dir_stale_writebacks, dir_queued_requests) so perfsmoke shows stall
 * behavior drifting alongside raw throughput; comparing against a
 * pre-v3 artifact prints "-" for the committed side.
 *
 * Usage:
 *   bench_wallclock [out.json]                 measure, optionally write
 *   bench_wallclock --config bench             restrict to one config
 *   bench_wallclock --impl Invisi_sc           restrict to one impl
 *   bench_wallclock --against FILE --min-ratio R
 *       after measuring, compare each point's kcps_fastfwd against the
 *       committed FILE; exit 1 if any ratio drops below R (ci.sh
 *       perfsmoke uses this with R sized for a noisy 1-CPU box).
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"

// ---------------------------------------------------------------------
// Global allocation counter (this binary only): proves the zero-alloc
// steady-state property in the committed perf artifact.
// ---------------------------------------------------------------------

namespace {
std::uint64_t g_allocCount = 0;
}

// The counting replacements pair malloc with free by design; GCC's
// mismatched-new-delete heuristic cannot see that both sides are
// replaced together.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void*
operator new(std::size_t size)
{
    ++g_allocCount;
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
using namespace invisifence::bench;

namespace {

struct Point
{
    std::string config;
    std::string impl;
    double kcpsLegacy = 0;    //!< sim kilocycles / wall second, legacy
    double kcpsFastfwd = 0;   //!< same with INVISIFENCE_FASTFWD on
    double speedup = 0;
    double dormantFrac = 0;   //!< core cycles skipped while dormant
    double eventsPerSec = 0;  //!< event executions / wall second (fastfwd)
    double allocsPerCycle = 0; //!< operator new calls / simulated cycle
    /** @{ Whole-run memory-system accounting (fastfwd run): MSHR-full
     *  stall episodes, stale writebacks and queued requests at the
     *  directories. Schema v3 fields. */
    std::uint64_t mshrFullStalls = 0;
    std::uint64_t dirStaleWritebacks = 0;
    std::uint64_t dirQueuedRequests = 0;
    /** @} */
};

/** Wall-time one full run (warmup + measure) and return kcycles/s. */
double
timedRun(const Workload& wl, ImplKind kind, const RunConfig& cfg,
         int fast_forward, Point* out)
{
    RunConfig run_cfg = cfg;
    run_cfg.system.fastForward = fast_forward;
    std::vector<std::unique_ptr<ThreadProgram>> programs;
    for (std::uint32_t t = 0; t < run_cfg.system.numCores; ++t) {
        programs.push_back(std::make_unique<SyntheticProgram>(
            wl.params, t, run_cfg.seed));
    }
    System sys(run_cfg.system, std::move(programs), kind);
    warmSystem(sys, wl.params);
    const Cycle cycles = run_cfg.warmupCycles + run_cfg.measureCycles;
    const auto t0 = std::chrono::steady_clock::now();
    sys.run(run_cfg.warmupCycles);
    // Events and allocations are sampled over the measure window only,
    // so their wall-time denominator starts here, not at t0 (kcps keeps
    // the full-run window for continuity with the committed history).
    const auto t_measure = std::chrono::steady_clock::now();
    const std::uint64_t allocs0 = g_allocCount;
    const std::uint64_t events0 = sys.eventQueue().executedCount();
    sys.run(run_cfg.measureCycles);
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t allocs1 = g_allocCount;
    const std::uint64_t events1 = sys.eventQueue().executedCount();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const double measure_secs =
        std::chrono::duration<double>(t1 - t_measure).count();
    if (out) {
        const double total = static_cast<double>(sys.totalCoreCycles());
        out->dormantFrac =
            total > 0
                ? static_cast<double>(sys.statFastForwardedCycles) / total
                : 0.0;
        out->eventsPerSec =
            measure_secs > 0
                ? static_cast<double>(events1 - events0) / measure_secs
                : 0.0;
        out->allocsPerCycle =
            static_cast<double>(allocs1 - allocs0) /
            static_cast<double>(run_cfg.measureCycles);
        out->mshrFullStalls = sys.totalMshrFullStalls();
        out->dirStaleWritebacks = sys.totalDirStaleWritebacks();
        out->dirQueuedRequests = sys.totalDirQueuedRequests();
    }
    return secs > 0 ? static_cast<double>(cycles) / secs / 1000.0 : 0.0;
}

void
writeJson(std::ostream& os, const std::vector<Point>& points, Cycle cycles)
{
    os << "{\n  \"schema\": \"invisifence-wallclock-v3\",\n";
    os << "  \"cycles\": " << cycles << ",\n  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& p = points[i];
        char buf[512];
        std::snprintf(buf, sizeof(buf),
                      "    {\"config\": \"%s\", \"impl\": \"%s\", "
                      "\"kcps_legacy\": %.1f, \"kcps_fastfwd\": %.1f, "
                      "\"speedup\": %.2f, \"dormant_frac\": %.3f, "
                      "\"events_per_sec\": %.0f, "
                      "\"allocs_per_cycle\": %.3f, "
                      "\"mshr_full_stalls\": %llu, "
                      "\"dir_stale_writebacks\": %llu, "
                      "\"dir_queued_requests\": %llu}%s\n",
                      p.config.c_str(), p.impl.c_str(), p.kcpsLegacy,
                      p.kcpsFastfwd, p.speedup, p.dormantFrac,
                      p.eventsPerSec, p.allocsPerCycle,
                      static_cast<unsigned long long>(p.mshrFullStalls),
                      static_cast<unsigned long long>(
                          p.dirStaleWritebacks),
                      static_cast<unsigned long long>(
                          p.dirQueuedRequests),
                      i + 1 < points.size() ? "," : "");
        os << buf;
    }
    os << "  ]\n}\n";
}

/**
 * Committed-JSON regression check: naive line scan for
 * (config, impl, kcps_fastfwd) triples — the artifact is machine-written
 * with one point per line, so no JSON parser is needed. Prints a
 * per-point delta table (measured vs committed kcps, absolute delta,
 * ratio) plus the geomean ratio, so a perfsmoke run shows the shape of
 * a drift, not just pass/fail.
 */
bool
checkAgainst(const std::string& path, const std::vector<Point>& points,
             double min_ratio, const std::string& skip_impl)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "cannot read committed JSON '%s'\n",
                     path.c_str());
        return false;
    }
    const auto field = [](const std::string& line, const char* key)
        -> std::string {
        const std::string tag = std::string("\"") + key + "\": ";
        const std::size_t at = line.find(tag);
        if (at == std::string::npos)
            return "";
        std::size_t from = at + tag.size();
        std::size_t to = line.find_first_of(",}", from);
        std::string v = line.substr(from, to - from);
        if (!v.empty() && v.front() == '"')
            v = v.substr(1, v.size() - 2);
        return v;
    };
    // The v3 stat fields print as measured/committed pairs; a "-"
    // committed side means the compared artifact predates schema v3.
    // They are informational columns, not part of the kcps gate.
    const auto pair = [](std::uint64_t measured,
                         const std::string& committed) -> std::string {
        return std::to_string(measured) + "/" +
               (committed.empty() ? "-" : committed);
    };
    bool ok = true;
    int compared = 0;
    double log_ratio_sum = 0.0;
    std::printf("  %-6s %-16s %9s %9s %9s %7s %11s %10s %11s\n",
                "config", "impl", "measured", "committed", "delta",
                "ratio", "mshr_stall", "stale_wb", "dir_queued");
    std::string line;
    while (std::getline(is, line)) {
        const std::string config = field(line, "config");
        const std::string impl = field(line, "impl");
        const std::string committed = field(line, "kcps_fastfwd");
        if (config.empty() || impl.empty() || committed.empty())
            continue;
        if (impl == skip_impl)
            continue;
        for (const Point& p : points) {
            if (p.config != config || p.impl != impl)
                continue;
            const double base = std::atof(committed.c_str());
            if (base <= 0)
                continue;
            const double ratio = p.kcpsFastfwd / base;
            ++compared;
            log_ratio_sum += std::log(ratio);
            std::printf(
                "  %-6s %-16s %9.1f %9.1f %+9.1f %6.2fx %11s %10s %11s%s\n",
                config.c_str(), impl.c_str(), p.kcpsFastfwd, base,
                p.kcpsFastfwd - base, ratio,
                pair(p.mshrFullStalls,
                     field(line, "mshr_full_stalls")).c_str(),
                pair(p.dirStaleWritebacks,
                     field(line, "dir_stale_writebacks")).c_str(),
                pair(p.dirQueuedRequests,
                     field(line, "dir_queued_requests")).c_str(),
                ratio < min_ratio ? "  REGRESSED" : "");
            if (ratio < min_ratio)
                ok = false;
        }
    }
    if (compared == 0) {
        std::fprintf(stderr, "perfcheck compared no points\n");
        return false;
    }
    std::printf("  geomean ratio over %d points: %.2fx (gate: %.2f "
                "per point)\n",
                compared, std::exp(log_ratio_sum / compared), min_ratio);
    return ok;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string json_out;
    std::string only_config;
    std::string only_impl;
    std::string against;
    std::string skip_check_impl;
    double min_ratio = 0.75;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc)
                IF_FATAL("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--config") {
            only_config = next();
        } else if (arg == "--impl") {
            only_impl = next();
        } else if (arg == "--against") {
            against = next();
        } else if (arg == "--min-ratio") {
            const char* text = next();
            char* end = nullptr;
            min_ratio = std::strtod(text, &end);
            if (end == text || *end != '\0' || min_ratio <= 0.0 ||
                min_ratio > 10.0) {
                IF_FATAL("--min-ratio '%s' is not a number in (0, 10]",
                         text);
            }
        } else if (arg == "--skip-check-impl") {
            skip_check_impl = next();
        } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
            IF_FATAL("unknown option '%s'", arg.c_str());
        } else {
            json_out = arg;
        }
    }

    const RunConfig base = RunConfig::fromEnv();
    const Workload& wl = workloadByName("Apache");
    const Cycle cycles = base.warmupCycles + base.measureCycles;

    struct Config
    {
        const char* name;
        SystemParams params;
    };
    const std::vector<Config> configs = {
        {"bench", SystemParams::bench()},
        {"paper", SystemParams::paper()},
    };

    std::vector<Point> points;
    Table table("Simulator wall-clock throughput (Apache, " +
                std::to_string(cycles) + " cycles)");
    table.setHeader({"config", "impl", "kcyc/s legacy", "kcyc/s fastfwd",
                     "speedup", "dormant", "events/s", "allocs/cyc",
                     "mshr stl", "stale wb", "dir q"});
    for (const Config& config : configs) {
        if (!only_config.empty() && only_config != config.name)
            continue;
        for (const ImplKind kind : {
                 ImplKind::ConvSC, ImplKind::ConvTSO, ImplKind::ConvRMO,
                 ImplKind::InvisiSC, ImplKind::InvisiTSO,
                 ImplKind::InvisiRMO, ImplKind::InvisiSC2Ckpt,
                 ImplKind::Continuous, ImplKind::ContinuousCoV,
                 ImplKind::Aso}) {
            if (!only_impl.empty() && only_impl != implKindName(kind))
                continue;
            RunConfig cfg = base;
            cfg.system = config.params;
            Point p;
            p.config = config.name;
            p.impl = implKindName(kind);
            p.kcpsLegacy = timedRun(wl, kind, cfg, 0, nullptr);
            p.kcpsFastfwd = timedRun(wl, kind, cfg, 1, &p);
            p.speedup =
                p.kcpsLegacy > 0 ? p.kcpsFastfwd / p.kcpsLegacy : 0.0;
            table.addRow({p.config, p.impl, Table::num(p.kcpsLegacy, 1),
                          Table::num(p.kcpsFastfwd, 1),
                          Table::num(p.speedup, 2) + "x",
                          Table::pct(p.dormantFrac),
                          Table::num(p.eventsPerSec, 0),
                          Table::num(p.allocsPerCycle, 3),
                          std::to_string(p.mshrFullStalls),
                          std::to_string(p.dirStaleWritebacks),
                          std::to_string(p.dirQueuedRequests)});
            points.push_back(std::move(p));
        }
    }
    table.print(std::cout);

    if (!json_out.empty()) {
        std::ofstream os(json_out);
        if (!os)
            IF_FATAL("cannot write '%s'", json_out.c_str());
        writeJson(os, points, cycles);
        std::cerr << "  wrote wall-clock JSON to " << json_out
                  << std::endl;
    }
    if (!against.empty() &&
        !checkAgainst(against, points, min_ratio, skip_check_impl)) {
        std::fprintf(stderr, "perfcheck FAILED (min ratio %.2f)\n",
                     min_ratio);
        return 1;
    }
    return 0;
}
