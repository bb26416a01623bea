/**
 * @file
 * Event-queue microbenchmark: schedule/pop throughput of the pooled
 * timing wheel, for the three shapes the simulator produces —
 * inline-callback events, message-delivery events (the dominant
 * coherence case), and self-rescheduling chains (steady-state churn).
 *
 * No google-benchmark dependency (availability varies per container);
 * prints events/second per shape and runs in the smoke tier so the
 * numbers can never silently rot. An optional argv[1] scales the event
 * count (default 2'000'000, which the smoke tier runs).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstdint>

#include "coh/message.hh"
#include "sim/event_queue.hh"

using namespace invisifence;

namespace {

std::uint64_t g_sink = 0;

double
eventsPerSec(std::uint64_t count, double secs)
{
    return secs > 0 ? static_cast<double>(count) / secs : 0.0;
}

/** Schedule @p count near-future callbacks, then drain. */
double
benchCallbacks(std::uint64_t count)
{
    EventQueue eq;
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t scheduled = 0;
    while (scheduled < count) {
        // A burst of mixed-latency callbacks, then drain the window:
        // resembles the per-cycle shape of the simulator.
        for (int i = 0; i < 64 && scheduled < count; ++i, ++scheduled) {
            eq.schedule(static_cast<Cycle>(1 + (i % 37)),
                        []() { ++g_sink; });
        }
        eq.advanceTo(eq.now() + 40);
    }
    eq.drain();
    const auto t1 = std::chrono::steady_clock::now();
    return eventsPerSec(count,
                        std::chrono::duration<double>(t1 - t0).count());
}

/**
 * Same shape with full Msg payloads: each event is a callback whose
 * closure carries {receiver, endpoint index, Msg} — the closure Network
 * schedules for every delivery, and the largest the queue stores.
 */
double
benchMessages(std::uint64_t count)
{
    EventQueue eq;
    std::uint64_t* const sink = &g_sink;
    Msg msg;
    msg.type = MsgType::Inv;
    msg.hasData = true;
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t scheduled = 0;
    while (scheduled < count) {
        for (int i = 0; i < 64 && scheduled < count; ++i, ++scheduled) {
            msg.blockAddr = scheduled * kBlockBytes;
            const auto idx = static_cast<std::uint32_t>(i % 32);
            const auto deliver = [sink, idx, msg]() {
                *sink += msg.blockAddr + idx;
            };
            static_assert(sizeof(deliver) == kEventInlineBytes,
                          "message events must fill the inline payload");
            eq.schedule(static_cast<Cycle>(1 + (i % 37)), deliver);
        }
        eq.advanceTo(eq.now() + 40);
    }
    eq.drain();
    const auto t1 = std::chrono::steady_clock::now();
    return eventsPerSec(count,
                        std::chrono::duration<double>(t1 - t0).count());
}

/** Self-rescheduling chains: pure steady-state node recycling. */
double
benchChains(std::uint64_t count)
{
    struct Chain
    {
        EventQueue* eq;
        std::uint64_t remaining;

        void
        step()
        {
            ++g_sink;
            if (--remaining == 0)
                return;
            Chain* self = this;
            eq->schedule(3, [self]() { self->step(); });
        }
    };
    EventQueue eq;
    constexpr int kChains = 16;
    Chain chains[kChains];
    for (int c = 0; c < kChains; ++c) {
        chains[c] = Chain{&eq, count / kChains};
        Chain* self = &chains[c];
        eq.schedule(static_cast<Cycle>(c + 1), [self]() { self->step(); });
    }
    const auto t0 = std::chrono::steady_clock::now();
    eq.drain();
    const auto t1 = std::chrono::steady_clock::now();
    return eventsPerSec(eq.executedCount(),
                        std::chrono::duration<double>(t1 - t0).count());
}

} // namespace

int
main(int argc, char** argv)
{
    std::uint64_t count = 2'000'000;
    if (argc > 1)
        count = std::strtoull(argv[1], nullptr, 10);
    if (const char* env = std::getenv("INVISIFENCE_BENCH_CYCLES")) {
        // Smoke tier reuses the global budget knob to stay brief.
        const std::uint64_t budget = std::strtoull(env, nullptr, 10);
        if (budget > 0 && budget * 500 < count)
            count = budget * 500;
    }

    const double cb = benchCallbacks(count);
    const double msg = benchMessages(count);
    const double chain = benchChains(count);
    std::printf("== Event-queue throughput (%llu events per shape) ==\n",
                static_cast<unsigned long long>(count));
    std::printf("  callbacks : %12.0f events/s\n", cb);
    std::printf("  messages  : %12.0f events/s\n", msg);
    std::printf("  chains    : %12.0f events/s\n", chain);
    // Keep g_sink observable so the work cannot be optimized away.
    std::fprintf(stderr, "  (checksum %llu)\n",
                 static_cast<unsigned long long>(g_sink));
    return 0;
}
