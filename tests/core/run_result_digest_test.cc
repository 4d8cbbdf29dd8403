/**
 * @file
 * Byte-identity pin for whole RunResults.
 *
 * The golden and figure gates compare printed curves; they would not
 * notice an event added to or dropped from a run as long as the
 * curve stayed put. This suite runs the benchmark's anchor shapes at
 * the figures' 600 us window, each with its plan-matched DRAM
 * baseline, and compares the FNV-1a digest of the bit-exact wire
 * encoding — which carries kernelEvents and every other RunResult
 * field — against recorded digests. A refactor of the model must
 * keep them; an intended model change re-records them (the failure
 * message prints the new digest).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"
#include "core/run_result_wire.hh"
#include "core/sim_system.hh"

using namespace kmu;

namespace
{

std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint8_t b : bytes)
        h = (h ^ b) * 0x100000001b3ull;
    return h;
}

std::uint64_t
digest(const SystemConfig &cfg)
{
    return fnv1a(serializeRunResult(runSystem(cfg)));
}

struct Pin
{
    std::string name;
    SystemConfig cfg;
    std::uint64_t run;      //!< digest of the point's RunResult
    std::uint64_t baseline; //!< digest of its baselineConfig run
};

/** The benchmark's model_steady points at the default 600 us window. */
std::vector<Pin>
pins()
{
    std::vector<Pin> out;
    const auto add = [&out](std::string name, Mechanism mech,
                            std::uint32_t cores, std::uint32_t threads,
                            unsigned latency_us, std::uint64_t run,
                            std::uint64_t baseline) -> SystemConfig & {
        SystemConfig cfg;
        cfg.mechanism = mech;
        cfg.numCores = cores;
        cfg.threadsPerCore = threads;
        cfg.device.latency = microseconds(latency_us);
        out.push_back({std::move(name), cfg, run, baseline});
        return out.back().cfg;
    };
    add("fig03_prefetch_1x10", Mechanism::Prefetch, 1, 10, 1,
        0x74fbbd8ef5a2cc2aull, 0x62d43ccb9e734915ull);
    add("fig05_prefetch_8x8", Mechanism::Prefetch, 8, 8, 1,
        0x1c89fedab11fb812ull, 0x62d43ccb9e734915ull);
    add("fig07_swqueue_1x16", Mechanism::SwQueue, 1, 16, 1,
        0x080fe533b07ae1beull, 0x62d43ccb9e734915ull);
    add("fig08_swqueue_8x24", Mechanism::SwQueue, 8, 24, 1,
        0x051ffab909ca52bdull, 0x62d43ccb9e734915ull);
    add("fig09_swqueue_1x16_b4", Mechanism::SwQueue, 1, 16, 1,
        0xc18a3c34fa477814ull, 0x5edee3cd3e2b4795ull)
        .batch = 4;
    SystemConfig &mix = add("write_mix_swqueue_1x24_b2",
                            Mechanism::SwQueue, 1, 24, 1,
                            0xa7c52153ed722a7eull, 0x37931eb3c3c4a3c1ull);
    mix.batch = 2;
    mix.writeFraction = 0.5;
    mix.topo.shards = 4;
    SystemConfig &open = add("open_loop_swqueue_1x16",
                             Mechanism::SwQueue, 1, 16, 4,
                             0x13a095761b8dc74bull, 0x62d43ccb9e734915ull);
    open.serve.arrival = serve::ArrivalKind::Poisson;
    open.serve.lambdaPerUs = 0.875;
    open.serve.zipfTheta = 0.99;
    open.serve.valueLines = 4;
    open.serve.sloUs = 20.0;
    open.serve.seed = 1;
    return out;
}

class RunResultDigest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(RunResultDigest, MatchesRecordedBytes)
{
    const Pin pin = pins().at(GetParam());
    const std::uint64_t run = digest(pin.cfg);
    const std::uint64_t baseline = digest(baselineConfig(pin.cfg));
    EXPECT_EQ(run, pin.run)
        << pin.name << ": RunResult digest is now "
        << csprintf("0x%016llxull", (unsigned long long)run);
    EXPECT_EQ(baseline, pin.baseline)
        << pin.name << ".baseline: RunResult digest is now "
        << csprintf("0x%016llxull", (unsigned long long)baseline);
}

INSTANTIATE_TEST_SUITE_P(
    AnchorShapes, RunResultDigest,
    ::testing::Range(std::size_t(0), pins().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return pins().at(info.param).name;
    });

} // anonymous namespace
