/**
 * @file
 * Application-level invariants of the ported workloads: BFS tree
 * properties over the Kronecker graph, key-value store round trips,
 * and the Bloom filter's device-path false-positive behaviour.
 * These pin down *semantic* correctness of the app code, a level
 * above the per-structure unit tests.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "access/runtime.hh"
#include "apps/bloom/bloom_filter.hh"
#include "apps/graph/bfs.hh"
#include "apps/graph/csr.hh"
#include "apps/graph/kronecker.hh"
#include "apps/kv/kv_store.hh"
#include "common/random.hh"

namespace kmu
{
namespace
{

CsrGraph
smallGraph()
{
    KroneckerParams p;
    p.scale = 9;
    p.edgeFactor = 8;
    p.seed = 5;
    return CsrGraph(p.vertices(), generateKronecker(p));
}

TEST(WorkloadInvariantsTest, BfsLevelsFormValidTree)
{
    const CsrGraph graph = smallGraph();
    const std::uint64_t src = graph.maxDegreeVertex();
    const BfsResult res = bfsReference(graph, src);

    ASSERT_EQ(res.level.size(), graph.vertexCount());
    EXPECT_EQ(res.level[src], 0);

    std::uint64_t reached = 0;
    std::int64_t depth = -1;
    for (std::uint64_t v = 0; v < graph.vertexCount(); ++v) {
        const std::int64_t lv = res.level[v];
        if (lv < 0)
            continue;
        reached++;
        depth = std::max(depth, lv);

        std::int64_t best = lv;
        for (std::uint64_t n : graph.neighbors(v)) {
            const std::int64_t ln = res.level[n];
            // A neighbor of a reached vertex is reached, and BFS
            // levels across an edge differ by at most one.
            ASSERT_GE(ln, 0) << "unreached neighbor of reached " << v;
            ASSERT_LE(std::abs(ln - lv), 1);
            best = std::min(best, ln);
        }
        // Every non-source vertex was discovered from the previous
        // frontier: some neighbor sits exactly one level up.
        if (v != src && lv > 0) {
            EXPECT_EQ(best, lv - 1) << "vertex " << v;
        }
    }
    EXPECT_EQ(res.reached, reached);
    EXPECT_EQ(res.depth, depth);
    EXPECT_GE(res.edgesTraversed, res.reached - 1);
}

TEST(WorkloadInvariantsTest, BfsDeviceAgreesWithReference)
{
    const CsrGraph graph = smallGraph();
    const std::uint64_t src = graph.maxDegreeVertex();
    const BfsResult ref = bfsReference(graph, src);

    DeviceGraphLayout layout;
    auto image = buildDeviceImage(graph, layout);
    Runtime rt(std::move(image), {.mechanism = Mechanism::OnDemand});
    BfsResult dev;
    rt.spawnWorker([&](AccessEngine &engine) {
        dev = bfsDevice(engine, layout, src);
    });
    rt.run();

    EXPECT_EQ(dev.level, ref.level);
    EXPECT_EQ(dev.reached, ref.reached);
    EXPECT_EQ(dev.depth, ref.depth);
}

TEST(WorkloadInvariantsTest, KvEveryKeyRoundTrips)
{
    KvParams p;
    p.buckets = 1 << 8; // force chains: ~4 items per bucket
    KvBuilder builder(p);
    std::vector<std::string> keys;
    for (int i = 0; i < 1000; ++i) {
        keys.push_back("key-" + std::to_string(i));
        builder.put(keys.back(),
                    "value-" + std::to_string(i * 7) +
                        std::string(150, char('a' + i % 26)));
    }

    Runtime rt(builder.deviceImage(),
               {.mechanism = Mechanism::Prefetch});
    KvProber prober(p);
    bool ok = true;
    std::uint64_t misses = 0;
    rt.spawnWorker([&](AccessEngine &engine) {
        for (int i = 0; i < 1000; ++i) {
            const auto got = prober.get(engine, keys[i]);
            ok &= got.has_value() &&
                  *got == "value-" + std::to_string(i * 7) +
                              std::string(150, char('a' + i % 26));
        }
        // Absent keys (same shape, disjoint namespace) miss cleanly
        // even when they hash into populated buckets.
        for (int i = 0; i < 1000; ++i)
            misses += !prober.get(engine, "nokey-" +
                                              std::to_string(i));
    });
    rt.run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(misses, 1000u);
}

TEST(WorkloadInvariantsTest, KvUpdateIsReadBack)
{
    KvParams p;
    p.buckets = 1 << 6;
    KvBuilder builder(p);
    for (int i = 0; i < 50; ++i) {
        // Appending, not "k" + std::to_string(i): gcc 12's -Wrestrict
        // misfires on operator+(const char *, std::string &&).
        std::string key = "k";
        key += std::to_string(i);
        builder.put(key, std::string(130, 'x'));
    }

    Runtime rt(builder.deviceImage(),
               {.mechanism = Mechanism::SwQueue,
                .deviceLatency = std::chrono::nanoseconds(200)});
    KvProber prober(p);
    bool updated = false, same_len_read = false;
    bool absent_rejected = false, resize_rejected = false;
    rt.spawnWorker([&](AccessEngine &engine) {
        const std::string fresh(130, 'y');
        updated = prober.update(engine, "k7", fresh);
        const auto got = prober.get(engine, "k7");
        same_len_read = got.has_value() && *got == fresh;
        absent_rejected =
            !prober.update(engine, "missing", fresh);
        resize_rejected =
            !prober.update(engine, "k8", std::string(10, 'z'));
    });
    rt.run();
    EXPECT_TRUE(updated);
    EXPECT_TRUE(same_len_read);
    EXPECT_TRUE(absent_rejected);
    EXPECT_TRUE(resize_rejected);
}

TEST(WorkloadInvariantsTest, BloomDeviceFprTracksTheory)
{
    BloomParams p;
    p.bits = 1 << 18;
    p.hashes = 4;
    BloomBuilder builder(p);
    Rng rng(21);
    const std::uint64_t n = 30000;
    for (std::uint64_t i = 0; i < n; ++i)
        builder.insert(rng.next());

    Runtime rt(builder.deviceImage(),
               {.mechanism = Mechanism::OnDemand});
    BloomProber prober(p);
    int fp = 0;
    const int probes = 20000;
    rt.spawnWorker([&](AccessEngine &engine) {
        Rng probe(909); // disjoint stream: all keys absent (whp)
        for (int i = 0; i < probes; ++i)
            fp += prober.contains(engine, probe.next());
    });
    rt.run();

    const double measured = double(fp) / probes;
    const double theory = p.theoreticalFpr(n);
    EXPECT_GT(theory, 0.01);
    EXPECT_NEAR(measured, theory, 0.5 * theory);
}

} // anonymous namespace
} // namespace kmu
