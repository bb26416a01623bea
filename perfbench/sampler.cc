#include "sampler.hh"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <link.h>
#include <ucontext.h>

namespace perfbench {

namespace {

// Signal-handler state. Only one sampler exists at a time; the buffer
// is owned by it and published here while it is armed.
std::uintptr_t* g_buf = nullptr;
std::size_t g_cap = 0;
std::atomic<std::size_t> g_count{0};

void
onSample(int, siginfo_t*, void* context)
{
    const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
    const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "PcSampler: unsupported architecture"
#endif
    const std::size_t i = g_count.load(std::memory_order_relaxed);
    if (i < g_cap) {   // the owner sizes the buffer for its lifetime
        g_buf[i] = pc;
        g_count.store(i + 1, std::memory_order_relaxed);
    }
}

struct TextRange
{
    std::uintptr_t bias = 0, lo = 0, hi = 0;
};

/** Load bias and executable-segment span of the main program. */
int
findMainText(dl_phdr_info* info, std::size_t, void* data)
{
    auto* range = static_cast<TextRange*>(data);
    range->bias = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr)& ph = info->dlpi_phdr[i];
        if (ph.p_type != PT_LOAD || !(ph.p_flags & PF_X))
            continue;
        const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
        const std::uintptr_t hi = lo + ph.p_memsz;
        if (range->lo == 0 || lo < range->lo)
            range->lo = lo;
        if (hi > range->hi)
            range->hi = hi;
    }
    return 1;   // the first object reported is the main program
}

[[noreturn]] void
die(const char* what)
{
    std::perror(what);
    std::exit(2);
}

} // namespace

PcSampler::PcSampler(std::size_t capacity, long period_ns)
    : periodNs_(period_ns)
{
    TextRange range;
    dl_iterate_phdr(findMainText, &range);
    if (range.hi == 0)
        die("PcSampler: no executable segment found");
    bias_ = range.bias;
    textLo_ = range.lo;
    textHi_ = range.hi;

    g_buf = new std::uintptr_t[capacity];
    g_cap = capacity;
    g_count.store(0);

    struct sigaction sa{};
    sa.sa_sigaction = onSample;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0)
        die("PcSampler: sigaction");

    sigevent sev{};
    sev.sigev_notify = SIGEV_SIGNAL;
    sev.sigev_signo = SIGPROF;
    timer_t timer{};
    if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0)
        die("PcSampler: timer_create");
    timer_ = timer;
}

PcSampler::~PcSampler()
{
    stop();
    timer_delete(static_cast<timer_t>(timer_));
    signal(SIGPROF, SIG_IGN);
    delete[] g_buf;
    g_buf = nullptr;
    g_cap = 0;
}

void
PcSampler::start()
{
    itimerspec spec{};
    spec.it_interval.tv_nsec = periodNs_;
    spec.it_value.tv_nsec = periodNs_;
    if (timer_settime(static_cast<timer_t>(timer_), 0, &spec, nullptr) != 0)
        die("PcSampler: timer_settime");
}

void
PcSampler::stop()
{
    const itimerspec off{};
    timer_settime(static_cast<timer_t>(timer_), 0, &off, nullptr);
    // Move the buffered PCs into the histograms and empty the buffer.
    const std::size_t n = g_count.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uintptr_t pc = g_buf[i];
        if (pc >= textLo_ && pc < textHi_)
            ++hist_[pc - bias_];
        else
            ++external_;
    }
    g_count.store(0, std::memory_order_relaxed);
}

} // namespace perfbench
