/**
 * @file
 * ScopedAllocGuard unit tests plus the dynamic half of the
 * allocation-free steady-state contract: after warm-up, a full Trainer
 * epoch (fused fp32 and bf16, sharded with compression), a
 * GnnModel::inference call (flat and sharded) and a fused kernel call
 * whose warm-up ran on one worker only must perform zero heap
 * allocations. graphite_lint enforces
 * the same property statically inside the kernel hot loops; these
 * tests prove it end to end across kernels, pool dispatch and the
 * model's persistent workspaces.
 *
 * The zero-allocation assertions are gated on
 * ScopedAllocGuard::interpositionActive(): the counting interposer is
 * compiled in only under GRAPHITE_CHECKS (the checks/sanitizer CI
 * jobs), and asserting against a dead counter would pass vacuously.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/alloc_guard.h"
#include "gnn/gnn_model.h"
#include "gnn/trainer.h"
#include "graph/generators.h"
#include "kernels/fused_layer.h"
#include "parallel/thread_pool.h"

namespace graphite {
namespace {

CsrGraph
testGraph()
{
    return generateErdosRenyi(150, 1200, false, 97);
}

/**
 * Deliberately allocate. The pointer is laundered through an asm
 * barrier: C++14 allows the compiler to elide new/delete pairs it can
 * prove unobservable, which is exactly what -O2 does to a plain
 * make_unique here.
 */
void
touchHeap()
{
    std::uint64_t *p = new std::uint64_t(42);
    asm volatile("" : : "g"(p) : "memory");
    delete p;
}

TEST(ScopedAllocGuardTest, CountsADeliberateAllocation)
{
    ScopedAllocGuard guard("deliberate");
    touchHeap();
    if (ScopedAllocGuard::interpositionActive())
        EXPECT_GE(guard.allocations(), 1u);
    else
        EXPECT_EQ(guard.allocations(), 0u);
}

TEST(ScopedAllocGuardTest, NestsCorrectly)
{
    ScopedAllocGuard outer("outer");
    touchHeap();
    {
        ScopedAllocGuard inner("inner");
        touchHeap();
        if (ScopedAllocGuard::interpositionActive()) {
            EXPECT_GE(inner.allocations(), 1u);
            // The outer guard saw the inner guard's allocations too.
            EXPECT_GE(outer.allocations(), inner.allocations() + 1);
        }
    }
    EXPECT_STREQ(outer.label(), "outer");
}

TEST(ScopedAllocGuardTest, NoOpWhenChecksOff)
{
#ifdef GRAPHITE_ENABLE_DCHECKS
    EXPECT_TRUE(ScopedAllocGuard::interpositionActive());
#else
    EXPECT_FALSE(ScopedAllocGuard::interpositionActive());
    ScopedAllocGuard guard("off");
    touchHeap();
    EXPECT_EQ(guard.allocations(), 0u);
#endif
}

TEST(ScopedAllocGuardTest, CountsPoolWorkerAllocations)
{
    if (!ScopedAllocGuard::interpositionActive())
        GTEST_SKIP() << "interposer compiled out (GRAPHITE_CHECKS off)";
    // Warm the pool (thread spawn allocates).
    parallelFor(0, 8, 1, [](std::size_t, std::size_t, std::size_t) {});
    ScopedAllocGuard guard("pool");
    parallelFor(0, 8, 1, [](std::size_t, std::size_t, std::size_t) {
        touchHeap();
    });
    EXPECT_GE(guard.allocations(), 8u);
}

/**
 * The pool's dispatch itself must be allocation-free: entering a
 * parallel region sits inside the per-block hot path, and FunctionRef
 * dispatch (unlike the std::function it replaced) never touches the
 * heap.
 */
TEST(ScopedAllocGuardTest, PoolDispatchIsAllocationFree)
{
    if (!ScopedAllocGuard::interpositionActive())
        GTEST_SKIP() << "interposer compiled out (GRAPHITE_CHECKS off)";
    std::vector<std::uint64_t> sums(64, 0);
    auto body = [&](std::size_t b, std::size_t e, std::size_t) {
        for (std::size_t i = b; i < e; ++i)
            sums[i % sums.size()] += i;
    };
    parallelFor(0, 1024, 16, body); // warm-up (lazy pool construction)
    ScopedAllocGuard guard("dispatch");
    for (int rep = 0; rep < 10; ++rep)
        parallelFor(0, 1024, 16, body);
    EXPECT_EQ(guard.allocations(), 0u);
}

struct SteadyStateFixture
{
    explicit SteadyStateFixture(const TechniqueConfig &tech)
        : graph(testGraph()), features(graph.numVertices(), 12),
          labels(graph.numVertices())
    {
        GnnModelConfig config;
        config.featureWidths = {12, 24, 5};
        model = std::make_unique<GnnModel>(graph, config);
        features.fillUniform(-1.0f, 1.0f, 11);
        for (VertexId v = 0; v < graph.numVertices(); ++v)
            labels[v] = static_cast<std::int32_t>(v % 5);
        trainerConfig.epochs = 1;
        trainerConfig.tech = tech;
        trainer = std::make_unique<Trainer>(*model, features, labels,
                                            trainerConfig);
    }

    CsrGraph graph;
    DenseMatrix features;
    std::vector<std::int32_t> labels;
    TrainerConfig trainerConfig;
    std::unique_ptr<GnnModel> model;
    std::unique_ptr<Trainer> trainer;
};

void
expectEpochAllocationFree(const TechniqueConfig &tech, const char *what)
{
    if (!ScopedAllocGuard::interpositionActive())
        GTEST_SKIP() << "interposer compiled out (GRAPHITE_CHECKS off)";
    SteadyStateFixture fx(tech);
    // Warm-up epochs size every persistent buffer, thread-local
    // scratch and cached plan/order.
    fx.trainer->trainEpoch();
    fx.trainer->trainEpoch();
    ScopedAllocGuard guard(what);
    fx.trainer->trainEpoch();
    EXPECT_EQ(guard.allocations(), 0u)
        << what << ": steady-state epoch allocated";
}

TEST(SteadyStateAllocFree, FusedFp32Training)
{
    expectEpochAllocationFree(TechniqueConfig::withFusion(),
                              "fused-fp32-epoch");
}

TEST(SteadyStateAllocFree, FusedBf16Training)
{
    TechniqueConfig tech = TechniqueConfig::withFusion();
    tech.precision = Precision::Bf16;
    expectEpochAllocationFree(tech, "fused-bf16-epoch");
}

TEST(SteadyStateAllocFree, CombinedLocalityTraining)
{
    expectEpochAllocationFree(TechniqueConfig::combinedLocality(),
                              "combined-locality-epoch");
}

TEST(SteadyStateAllocFree, ShardedCompressedTraining)
{
    TechniqueConfig tech = TechniqueConfig::combined();
    tech.shards = 4;
    expectEpochAllocationFree(tech, "sharded-compressed-epoch");
}

void
expectInferenceAllocationFree(const TechniqueConfig &tech, const char *what)
{
    if (!ScopedAllocGuard::interpositionActive())
        GTEST_SKIP() << "interposer compiled out (GRAPHITE_CHECKS off)";
    SteadyStateFixture fx(tech);
    fx.model->inference(fx.features, tech); // warm-up sizes the buffers
    fx.model->inference(fx.features, tech);
    ScopedAllocGuard guard(what);
    const DenseMatrix &logits = fx.model->inference(fx.features, tech);
    EXPECT_EQ(guard.allocations(), 0u)
        << what << ": steady-state inference allocated";
    EXPECT_EQ(logits.rows(), fx.graph.numVertices());
}

TEST(SteadyStateAllocFree, FusedInference)
{
    expectInferenceAllocationFree(TechniqueConfig::withFusion(),
                                  "fused-inference");
}

TEST(SteadyStateAllocFree, ShardedInference)
{
    TechniqueConfig tech = TechniqueConfig::withFusion();
    tech.shards = 4;
    expectInferenceAllocationFree(tech, "sharded-inference");
}

TEST(SteadyStateAllocFree, ShardedBf16Inference)
{
    TechniqueConfig tech = TechniqueConfig::withFusion();
    tech.shards = 4;
    tech.precision = Precision::Bf16;
    expectInferenceAllocationFree(tech, "sharded-bf16-inference");
}

/**
 * Pool scratch (the fused driver's block buffers, the block GEMM's pack
 * scratch) is sized on every worker on every call, not only on the
 * workers that happen to draw a task. Warm up on a graph smaller than
 * one task, so at most one worker runs it; then a call of the same
 * widths on a graph with many tasks per worker must not allocate.
 */
TEST(SteadyStateAllocFree, WorkersThatDrewNoTaskStayAllocationFree)
{
    if (!ScopedAllocGuard::interpositionActive())
        GTEST_SKIP() << "interposer compiled out (GRAPHITE_CHECKS off)";
    // One worker would make the check vacuous.
    const std::size_t threads = ThreadPool::global().numThreads();
    if (threads < 4)
        ThreadPool::setGlobalThreads(4);

    const CsrGraph tiny = generateErdosRenyi(32, 128, false, 5);
    const CsrGraph large = generateErdosRenyi(20000, 200000, false, 6);
    const AggregationSpec tinySpec = gcnSpec(tiny);
    const AggregationSpec largeSpec = gcnSpec(large);
    DenseMatrix weights(64, 32);
    weights.fillUniform(-0.2f, 0.2f, 7);
    const GemmPlan plan(GemmMode::NN, weights);
    const std::vector<Feature> bias(32, 0.1f);
    const UpdateOp update{&weights, bias, true, &plan};
    DenseMatrix tinyIn(tiny.numVertices(), 64);
    DenseMatrix largeIn(large.numVertices(), 64);
    tinyIn.fillUniform(-1.0f, 1.0f, 8);
    largeIn.fillUniform(-1.0f, 1.0f, 9);
    DenseMatrix tinyOut(tiny.numVertices(), 32);
    DenseMatrix largeOut(large.numVertices(), 32);

    fusedLayer(tiny, tinyIn, tinySpec, update, tinyOut);
    std::size_t allocations = 0;
    {
        ScopedAllocGuard guard("fused-after-one-task-warm-up");
        fusedLayer(large, largeIn, largeSpec, update, largeOut);
        allocations = guard.allocations();
    }
    if (threads < 4)
        ThreadPool::setGlobalThreads(threads);
    EXPECT_EQ(allocations, 0u)
        << "a worker grew its scratch in the steady-state call";
}

} // namespace
} // namespace graphite
