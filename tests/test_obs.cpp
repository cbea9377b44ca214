/**
 * @file
 * Unit tests for the observability layer: metrics registry merging,
 * disabled-path no-ops, trace span nesting, ring overflow, the JSON
 * emitters' well-formedness (checked with a tiny JSON parser below),
 * and the schema of both dumps after a run over the hot paths.
 *
 * The tests exercise the process-global registry/recorder the real
 * instrumentation writes to, so every test starts by resetting both and
 * restores the disabled state on exit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dma/pipelined_runner.h"
#include "gnn/gnn_layer.h"
#include "graph/generators.h"
#include "kernels/aggregation.h"
#include "kernels/fused_layer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "tensor/gemm.h"

namespace graphite {
namespace {

using obs::MetricsRegistry;
using obs::TraceRecorder;

/** Enable both global sinks for one test; reset + disable on exit. */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        MetricsRegistry::global().reset();
        TraceRecorder::global().reset();
        MetricsRegistry::global().setEnabled(true);
        TraceRecorder::global().setEnabled(true);
    }

    void
    TearDown() override
    {
        MetricsRegistry::global().setEnabled(false);
        TraceRecorder::global().setEnabled(false);
        MetricsRegistry::global().reset();
        TraceRecorder::global().reset();
    }
};

/** A parsed JSON value: just enough structure to check the dumps. */
struct Json
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };
    Kind kind = Kind::Null;
    double number = 0.0;
    /** The number literal is digits only (no sign, fraction, exponent). */
    bool unsignedInteger = false;
    /** String contents, escapes left as written. */
    std::string text;
    std::vector<Json> items;
    std::vector<std::pair<std::string, Json>> members;

    /** Member @p key of an object, or null when absent. */
    const Json *
    find(const std::string &key) const
    {
        for (const auto &[name, value] : members)
            if (name == key)
                return &value;
        return nullptr;
    }
};

/**
 * Minimal recursive-descent JSON parser. Good enough to catch trailing
 * commas, unbalanced braces and unescaped strings in the emitters, and
 * to read their output back for the schema checks.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        Json ignored;
        return parse(ignored);
    }

    bool
    parse(Json &out)
    {
        pos_ = 0;
        if (!value(out))
            return false;
        skipSpace();
        return pos_ == text_.size();
    }

  private:
    bool
    value(Json &out)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return false;
        const char c = text_[pos_];
        if (c == '{')
            return object(out);
        if (c == '[')
            return array(out);
        if (c == '"') {
            out.kind = Json::Kind::String;
            return string(out.text);
        }
        if (c == '-' || (c >= '0' && c <= '9'))
            return number(out);
        if (literal("true") || literal("false")) {
            out.kind = Json::Kind::Bool;
            return true;
        }
        return literal("null");
    }

    bool
    object(Json &out)
    {
        out.kind = Json::Kind::Object;
        ++pos_; // '{'
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipSpace();
            std::string key;
            if (!string(key))
                return false;
            skipSpace();
            if (peek() != ':')
                return false;
            ++pos_;
            out.members.emplace_back(std::move(key), Json{});
            if (!value(out.members.back().second))
                return false;
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array(Json &out)
    {
        out.kind = Json::Kind::Array;
        ++pos_; // '['
        skipSpace();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            out.items.emplace_back();
            if (!value(out.items.back()))
                return false;
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string(std::string &out)
    {
        if (peek() != '"')
            return false;
        const std::size_t start = ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\')
                ++pos_;
            ++pos_;
        }
        if (pos_ >= text_.size())
            return false;
        out = text_.substr(start, pos_ - start);
        ++pos_; // closing '"'
        return true;
    }

    bool
    number(Json &out)
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            return false;
        const std::string token = text_.substr(start, pos_ - start);
        out.kind = Json::Kind::Number;
        out.number = std::strtod(token.c_str(), nullptr);
        out.unsignedInteger =
            std::all_of(token.begin(), token.end(), [](char c) {
                return std::isdigit(static_cast<unsigned char>(c)) != 0;
            });
        return true;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return {};
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

TEST_F(ObsTest, CounterMergesAcrossPoolWorkers)
{
    obs::Counter &c = MetricsRegistry::global().counter("test.pool_adds");
    constexpr std::size_t kItems = 10000;
    parallelFor(0, kItems, 64,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i)
            c.add(1);
    });
    EXPECT_EQ(c.value(), kItems);
}

TEST_F(ObsTest, DisabledRegistryDropsWrites)
{
    obs::Counter &c = MetricsRegistry::global().counter("test.disabled");
    obs::Gauge &g = MetricsRegistry::global().gauge("test.disabled_g");
    obs::Histogram &h =
        MetricsRegistry::global().histogram("test.disabled_h");
    MetricsRegistry::global().setEnabled(false);
    c.add(42);
    g.set(3.5);
    h.observe(7);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0.0);
    EXPECT_EQ(h.count(), 0u);

    MetricsRegistry::global().setEnabled(true);
    c.add(1);
    EXPECT_EQ(c.value(), 1u); // same handle works once re-enabled
}

TEST_F(ObsTest, GaugeLastWriterWins)
{
    obs::Gauge &g = MetricsRegistry::global().gauge("test.gauge");
    g.set(1.25);
    g.set(-7.5);
    EXPECT_DOUBLE_EQ(g.value(), -7.5);
}

TEST_F(ObsTest, HistogramAccounting)
{
    obs::Histogram &h = MetricsRegistry::global().histogram("test.hist");
    h.observe(0);
    h.observe(1);
    h.observe(5);
    h.observe(1024);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 1030u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1024u);
    const std::vector<std::uint64_t> buckets = h.buckets();
    ASSERT_EQ(buckets.size(), obs::Histogram::kBuckets);
    EXPECT_EQ(buckets[0], 1u);  // value 0
    EXPECT_EQ(buckets[1], 1u);  // value 1 (bit width 1)
    EXPECT_EQ(buckets[3], 1u);  // value 5 (bit width 3)
    EXPECT_EQ(buckets[11], 1u); // value 1024 (bit width 11)
}

TEST_F(ObsTest, EstimateQuantileHandlesEmptyAndSingleValue)
{
    std::vector<std::uint64_t> buckets(obs::Histogram::kBuckets, 0);
    EXPECT_DOUBLE_EQ(obs::estimateQuantile(buckets, 0, 0, 0, 0.99), 0.0);
    // 100 identical samples of 7 (bit width 3): every quantile clamps
    // to the observed min == max == 7, exactly.
    buckets[3] = 100;
    for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(obs::estimateQuantile(buckets, 100, 7, 7, q),
                         7.0);
}

TEST_F(ObsTest, EstimateQuantileInterpolatesWithinBucketRanges)
{
    // 50 samples of 1, 40 samples in [4, 8), 10 samples of ~1000: p50
    // must land in bucket 1's range [1, 2), p90 in [4, 8), p99 in
    // [512, 1000] (upper end clamped to the observed max).
    std::vector<std::uint64_t> buckets(obs::Histogram::kBuckets, 0);
    buckets[1] = 50;
    buckets[3] = 40;
    buckets[10] = 10;
    const double p50 =
        obs::estimateQuantile(buckets, 100, 1, 1000, 0.50);
    const double p90 =
        obs::estimateQuantile(buckets, 100, 1, 1000, 0.90);
    const double p99 =
        obs::estimateQuantile(buckets, 100, 1, 1000, 0.99);
    EXPECT_GE(p50, 1.0);
    EXPECT_LT(p50, 2.0);
    EXPECT_GE(p90, 4.0);
    EXPECT_LT(p90, 8.0);
    EXPECT_GE(p99, 512.0);
    EXPECT_LE(p99, 1000.0);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
}

TEST_F(ObsTest, SnapshotReportsHistogramQuantiles)
{
    obs::Histogram &h =
        MetricsRegistry::global().histogram("test.quantiles");
    // Latency-like distribution: a tight body and a 100x tail.
    for (int i = 0; i < 98; ++i)
        h.observe(10);
    h.observe(1000);
    h.observe(1500);
    const obs::MetricsSnapshot snap =
        MetricsRegistry::global().snapshot();
    const auto it = std::find_if(
        snap.histograms.begin(), snap.histograms.end(),
        [](const auto &e) { return e.name == "test.quantiles"; });
    ASSERT_NE(it, snap.histograms.end());
    EXPECT_GE(it->p50, 8.0);
    EXPECT_LT(it->p50, 16.0); // the body's bucket
    EXPECT_GE(it->p99, 512.0);
    EXPECT_LE(it->p99, 1500.0); // the tail, clamped to max
    EXPECT_LE(it->p50, it->p90);
    EXPECT_LE(it->p90, it->p99);
    // The JSON emitter must surface the same fields.
    const std::string json = MetricsRegistry::global().toJson();
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p90\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST_F(ObsTest, ResetZeroesButKeepsHandles)
{
    obs::Counter &c = MetricsRegistry::global().counter("test.reset");
    c.add(9);
    MetricsRegistry::global().reset();
    EXPECT_EQ(c.value(), 0u);
    c.add(2);
    EXPECT_EQ(c.value(), 2u);
}

TEST_F(ObsTest, SpanNestingDepthAndContainment)
{
    {
        GRAPHITE_TRACE_SPAN("outer");
        {
            GRAPHITE_TRACE_SPAN("inner");
        }
    }
    const std::vector<obs::TraceEvent> events =
        TraceRecorder::global().collect();
    ASSERT_EQ(events.size(), 2u);
    // collect() sorts by start: outer opened first.
    EXPECT_STREQ(events[0].name, "outer");
    EXPECT_STREQ(events[1].name, "inner");
    EXPECT_EQ(events[0].depth, 0u);
    EXPECT_EQ(events[1].depth, 1u);
    // The child interval nests inside the parent's.
    EXPECT_GE(events[1].start, events[0].start);
    EXPECT_LE(events[1].start + events[1].duration,
              events[0].start + events[0].duration);
}

TEST_F(ObsTest, SpansFromPoolWorkersAllCollected)
{
    constexpr std::size_t kItems = 256;
    parallelFor(0, kItems, 16,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
            GRAPHITE_TRACE_SPAN("worker.unit");
        }
    });
    const std::vector<obs::PhaseSummary> phases =
        TraceRecorder::global().summarize();
    ASSERT_EQ(phases.size(), 1u);
    EXPECT_EQ(phases[0].name, "worker.unit");
    EXPECT_EQ(phases[0].count, kItems);
    EXPECT_GE(phases[0].seconds, 0.0);
}

TEST_F(ObsTest, RingOverflowDropsOldestAndCounts)
{
    // Default per-thread capacity is 1 << 15; overflow it from this
    // thread only.
    constexpr std::size_t kSpans = (std::size_t{1} << 15) + 100;
    for (std::size_t i = 0; i < kSpans; ++i) {
        GRAPHITE_TRACE_SPAN("spin");
    }
    EXPECT_EQ(TraceRecorder::global().droppedEvents(), 100u);
    const std::vector<obs::TraceEvent> events =
        TraceRecorder::global().collect();
    EXPECT_EQ(events.size(), std::size_t{1} << 15);
}

TEST_F(ObsTest, DisabledTracingRecordsNothing)
{
    TraceRecorder::global().setEnabled(false);
    {
        GRAPHITE_TRACE_SPAN("ghost");
    }
    EXPECT_TRUE(TraceRecorder::global().collect().empty());
}

TEST_F(ObsTest, MetricsJsonIsWellFormed)
{
    MetricsRegistry::global().counter("test.counter\"quoted").add(3);
    MetricsRegistry::global().gauge("test.gauge").set(0.5);
    MetricsRegistry::global().histogram("test.hist").observe(17);
    const std::string json = MetricsRegistry::global().toJson();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    EXPECT_NE(json.find("counters"), std::string::npos);
    EXPECT_NE(json.find("gauges"), std::string::npos);
    EXPECT_NE(json.find("histograms"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceJsonIsWellFormed)
{
    {
        GRAPHITE_TRACE_SPAN("phase.a");
        GRAPHITE_TRACE_SPAN("phase.b");
    }
    const std::string path = "test_obs_trace.json";
    ASSERT_TRUE(TraceRecorder::global().writeChromeJson(path));
    const std::string json = slurp(path);
    std::remove(path.c_str());
    ASSERT_FALSE(json.empty());
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    EXPECT_NE(json.find("traceEvents"), std::string::npos);
    EXPECT_NE(json.find("phase.a"), std::string::npos);
    EXPECT_NE(json.find("phase.b"), std::string::npos);
}

/** Member @p key of @p object as a number; fails the test if absent. */
double
numberAt(const Json &object, const char *key)
{
    const Json *member = object.find(key);
    EXPECT_TRUE(member != nullptr && member->kind == Json::Kind::Number)
        << "missing number '" << key << "'";
    return member != nullptr ? member->number : 0.0;
}

/**
 * One tiny run of each instrumented hot path (basic aggregation, GEMM,
 * fused backward, DMA pipelined layer), dumped with writeChromeJson and
 * writeJson. Every rule is checked on the JSON text of the two files,
 * parsed back, so a fault in the emitters shows as well as one in the
 * registry or recorder they serialise.
 */
TEST_F(ObsTest, HotPathDumpsMatchTheirSchemas)
{
    const CsrGraph graph = generateBarabasiAlbert(300, 4, 3);
    const CsrGraph transposed = graph.transposed();
    const AggregationSpec spec = gcnSpec(graph);
    const AggregationSpec tSpec = transposeSpec(graph, spec, transposed);
    const std::size_t n = graph.numVertices();
    constexpr std::size_t kIn = 32;
    constexpr std::size_t kOut = 16;
    DenseMatrix x(n, kIn);
    x.fillUniform(-1.0f, 1.0f, 1);
    DenseMatrix weights(kIn, kOut);
    weights.fillUniform(-0.5f, 0.5f, 2);

    DenseMatrix agg(n, kIn);
    aggregate(graph, x, agg, spec);
    GemmPlan planNN;
    planNN.pack(GemmMode::NN, weights);
    DenseMatrix z(n, kOut);
    gemm(GemmMode::NN, agg, planNN, z);
    GemmPlan planNT;
    planNT.pack(GemmMode::NT, weights);
    DenseMatrix gradIn(n, kIn);
    fusedLayerBackward(transposed, z, tSpec, planNT, gradIn);
    DenseMatrix dmaAgg(n, kIn);
    DenseMatrix dmaOut(n, kOut);
    dma::pipelinedDmaLayer(graph, x, spec, UpdateOp{&weights, {}, true},
                           dmaAgg, dmaOut);

    const std::string tracePath = "test_obs_hot_path_trace.json";
    const std::string metricsPath = "test_obs_hot_path_metrics.json";
    ASSERT_TRUE(TraceRecorder::global().writeChromeJson(tracePath));
    ASSERT_TRUE(MetricsRegistry::global().writeJson(metricsPath));
    const std::string traceText = slurp(tracePath);
    const std::string metricsText = slurp(metricsPath);
    std::remove(tracePath.c_str());
    std::remove(metricsPath.c_str());

    // Trace: complete ("X") events with the fields a trace viewer
    // needs, covering every hot path run above.
    Json trace;
    ASSERT_TRUE(JsonChecker(traceText).parse(trace)) << traceText;
    const Json *events = trace.find("traceEvents");
    ASSERT_TRUE(events != nullptr && events->kind == Json::Kind::Array);
    ASSERT_FALSE(events->items.empty());
    std::set<std::string> names;
    for (const Json &event : events->items) {
        ASSERT_EQ(event.kind, Json::Kind::Object);
        for (const char *key : {"name", "ph", "pid", "tid", "ts", "dur"})
            ASSERT_NE(event.find(key), nullptr) << "event lacks " << key;
        EXPECT_EQ(event.find("ph")->text, "X");
        EXPECT_EQ(event.find("ts")->kind, Json::Kind::Number);
        EXPECT_EQ(event.find("dur")->kind, Json::Kind::Number);
        names.insert(event.find("name")->text);
    }
    for (const char *span :
         {"agg.basic", "gemm", "fused.backward", "dma.pipeline"})
        EXPECT_EQ(names.count(span), 1u) << "required span " << span;

    // Metrics: integer counters, and histograms whose 65 log2 buckets
    // add up to their count with ordered quantiles inside [min, max].
    Json metrics;
    ASSERT_TRUE(JsonChecker(metricsText).parse(metrics)) << metricsText;
    const Json *counters = metrics.find("counters");
    const Json *histograms = metrics.find("histograms");
    ASSERT_TRUE(counters != nullptr && counters->kind == Json::Kind::Object);
    ASSERT_TRUE(histograms != nullptr &&
                histograms->kind == Json::Kind::Object);
    ASSERT_NE(metrics.find("gauges"), nullptr);
    EXPECT_FALSE(counters->members.empty());
    for (const auto &[name, value] : counters->members)
        EXPECT_TRUE(value.kind == Json::Kind::Number &&
                    value.unsignedInteger)
            << "counter " << name << " is not a non-negative integer";
    std::size_t observed = 0;
    for (const auto &[name, hist] : histograms->members) {
        SCOPED_TRACE("histogram " + name);
        const Json *buckets = hist.find("log2_buckets");
        ASSERT_TRUE(buckets != nullptr &&
                    buckets->kind == Json::Kind::Array);
        ASSERT_EQ(buckets->items.size(), obs::Histogram::kBuckets);
        double bucketSum = 0.0;
        for (const Json &bucket : buckets->items) {
            EXPECT_TRUE(bucket.unsignedInteger);
            bucketSum += bucket.number;
        }
        const double count = numberAt(hist, "count");
        EXPECT_EQ(bucketSum, count);
        const double p50 = numberAt(hist, "p50");
        const double p90 = numberAt(hist, "p90");
        const double p99 = numberAt(hist, "p99");
        EXPECT_LE(p50, p90);
        EXPECT_LE(p90, p99);
        if (count > 0.0) {
            ++observed;
            EXPECT_LE(numberAt(hist, "min"), p50);
            EXPECT_LE(p99, numberAt(hist, "max"));
        }
    }
    EXPECT_GT(observed, 0u) << "no histogram saw a sample";
}

TEST_F(ObsTest, CrossKindNameCollisionDies)
{
    MetricsRegistry::global().counter("test.kind_clash");
    EXPECT_DEATH(MetricsRegistry::global().gauge("test.kind_clash"),
                 "kind");
}

} // namespace
} // namespace graphite
