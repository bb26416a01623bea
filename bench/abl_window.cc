/**
 * @file
 * Ablation of this implementation's bounded-window policy: the
 * speculative-footprint cap that starts commit pressure before the
 * speculation overflows the L1 (see SpecConfig::specFootprintCap: the
 * paper's cache-overflow commit, applied proactively). Cap 0 disables
 * bounding.
 */

#include "bench_util.hh"
#include "core/invisifence.hh"

using namespace invisifence;
using namespace invisifence::bench;

int
main()
{
    const RunConfig base = RunConfig::fromEnv();
    Table table("Ablation: speculative footprint cap for Invisi_sc "
                "(throughput relative to the default cap of 320 lines)");
    table.setHeader({"workload", "cap=64", "cap=160", "cap=320",
                     "cap=640"});
    const std::vector<const char*> names = {"Apache", "OLTP-DB2",
                                            "Ocean"};
    const std::vector<std::uint32_t> caps = {64, 160, 320, 640};
    const auto thr = runAblation(
        names, caps, ImplKind::InvisiSC, base,
        [](RunConfig& cfg, std::uint32_t cap) {
            // The cap rides on SpecConfig; expose it via the shared
            // override used by makeImpl.
            cfg.system.specFootprintCap = cap;
        });
    for (const char* name : names) {
        const std::vector<double>& t = thr.at(name);
        table.addRow({name, Table::num(t[0] / t[2], 3),
                      Table::num(t[1] / t[2], 3), "1.000",
                      Table::num(t[3] / t[2], 3)});
    }
    table.print(std::cout);
    std::cout << "Small caps commit too eagerly (drain stalls); large\n"
                 "caps risk L1 overflow stalls and aborts.\n";
    return 0;
}
