/**
 * @file
 * Figure 10: application case studies (BFS, Bloom filter,
 * Memcached) plus the 4-read microbenchmark comparator, on one and
 * eight cores, prefetch vs. software queues, 1 us device.
 *
 * Methodology exactly as the paper's: each application's core
 * data-structure access stream is captured from a functional run
 * (post-access work replaced by the benign work loop), then replayed
 * through the timing model with the application's natural batching —
 * 4 reads for Memcached and Bloom, 2 for BFS. Each bar is normalized
 * to the DRAM baseline running the same access plan.
 *
 * Claims reproduced: single-core prefetch lands between ~35-65 % of
 * DRAM (LFB-bound), single-core queues lower at ~20-50 %; on eight
 * cores prefetch is chip-queue-bound while queues scale to ~1.2-2x
 * the single-core DRAM baseline.
 */

#include <iterator>

#include "apps/workloads.hh"
#include "bench/fig_common.hh"

using namespace kmu;

namespace
{

struct AppSeries
{
    std::string name;
    std::function<IterationPlan(CoreId, ThreadId, std::uint64_t)> plan;
    double meanBatch;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Capture the application access traces (functional runs). This
    // is the figure's set-up: it happens before figureMain handles
    // the arguments, so the capture printouts are not swallowed by
    // the collect pass. Each capture is one point on the worker pool
    // and comes back as one byte per access group, its batch size.
    AppWorkloadParams params;
    params.bfsScale = 13;
    params.bloomKeys = 30000;
    params.bloomQueries = 20000;
    params.kvItems = 20000;
    params.kvQueries = 10000;
    const AppKind apps[] = {AppKind::Bfs, AppKind::Bloom,
                            AppKind::Memcached};
    sweep::SweepRunner pool;
    const std::vector<sweep::SweepRunner::Payload> captured =
        pool.runPayloads(
            std::size(apps),
            [&](std::size_t i) {
                const AccessTrace trace =
                    runAndTrace(apps[i], params).trace;
                sweep::SweepRunner::Payload batches(trace.size());
                for (std::size_t g = 0; g < trace.size(); ++g)
                    batches[g] = std::uint8_t(trace.batchAt(g));
                return batches;
            },
            sweep::SweepRunner::argvJobs(argc, argv));

    // Per-read benign work: the ported applications keep only the
    // core data-structure accesses plus a small dependent work loop
    // (~100 instructions per read), lighter than the synthetic
    // microbenchmark's default.
    constexpr std::uint32_t appWork = 100;
    std::vector<AppSeries> series;
    for (std::size_t i = 0; i < std::size(apps); ++i) {
        AccessTrace trace;
        for (const std::uint8_t batch : captured[i])
            trace.add(batch);
        series.push_back(AppSeries{appName(apps[i]),
                                   trace.makePlan(appWork),
                                   trace.meanBatch()});
        std::cout << appName(apps[i]) << ": " << trace.size()
                  << " access groups, mean batch "
                  << Table::num(trace.meanBatch(), 2) << "\n";
    }
    // The paper's 4-read microbenchmark comparator.
    series.push_back(AppSeries{
        "4-read ubench",
        [](CoreId, ThreadId, std::uint64_t) {
            return IterationPlan{4, appWork};
        },
        4.0});

    return figureMain(argc, argv, "fig10_applications",
                      [&series](FigureRunner &runner) {
        // One DRAM baseline per application plan (shared by every
        // mechanism/core/thread point of that series). Plans carry
        // closures, so these go through the sequenced per-call path
        // rather than the shape-keyed baseline cache.
        std::vector<RunResult> baselines;
        for (const AppSeries &app : series) {
            SystemConfig cfg;
            cfg.plan = app.plan;
            baselines.push_back(runner.run(baselineConfig(cfg)));
        }

        for (unsigned cores : {1u, 8u}) {
            for (Mechanism mech :
                 {Mechanism::Prefetch, Mechanism::SwQueue}) {
                Table table(csprintf(
                    "Fig. 10 — applications, %s, %u core(s), 1 us",
                    mechanismName(mech), cores));
                table.setHeader({"threads/core", series[0].name,
                                 series[1].name, series[2].name,
                                 series[3].name});
                for (unsigned threads : {1u, 2u, 4u, 8u, 16u, 32u}) {
                    std::vector<std::string> row;
                    row.push_back(Table::num(std::uint64_t(threads)));
                    for (std::size_t s = 0; s < series.size(); ++s) {
                        SystemConfig cfg;
                        cfg.mechanism = mech;
                        cfg.numCores = cores;
                        cfg.threadsPerCore = threads;
                        cfg.plan = series[s].plan;
                        const auto res = runner.run(cfg);
                        row.push_back(Table::num(
                            normalizedWorkIpc(res, baselines[s]),
                            4));
                    }
                    table.addRow(std::move(row));
                }
                runner.emit(table,
                            csprintf("fig10_%s_%ucores.csv",
                                     mech == Mechanism::Prefetch
                                         ? "prefetch"
                                         : "queue",
                                     cores));
            }
        }
    });
}
