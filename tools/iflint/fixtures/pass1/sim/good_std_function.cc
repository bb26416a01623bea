// Fixture (hot-path dir): devirtualized hooks — no findings.

namespace fixture {

struct Dispatcher {
    // OK: function pointer + context, the EventQueue::setWakeHook idiom.
    using Hook = void (*)(void* ctx, int payload);
    Hook hook = nullptr;
    void* ctx = nullptr;
};

void
fire(Dispatcher& d, int payload)
{
    if (d.hook)
        d.hook(d.ctx, payload);
}

} // namespace fixture
