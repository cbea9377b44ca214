/**
 * @file
 * The traced run's layer sweep: one timed call into each module's
 * public functions, on the workload's own graph, features and model.
 */

#include <span>

#include "graph/delta_csr.h"
#include "graph/reorder.h"
#include "kernels/aggregation.h"
#include "kernels/fused_layer.h"
#include "open_loop.h"
#include "perf.h"
#include "sampling/neighbor_sampler.h"
#include "sim/machine.h"
#include "sim/workloads.h"
#include "tensor/gemm.h"

namespace graphite::perf {

namespace {

/** Edges inserted into the overlay whose compaction is timed. */
constexpr EdgeId kCompactInserts = 8192;
/** Requests in the sampling and serve-service probe stream. */
constexpr std::size_t kProbeRequests = 2048;
/** Repetitions of the gnn layer and model probes (median reported). */
constexpr int kGnnReps = 5;
/** Rows of one serve batch at layer 0: 64 requests x (fan-out 10 + 1). */
constexpr std::size_t kServeBatchRows = 64 * 11;

double
gbps(const PhaseStats &phase)
{
    return static_cast<double>(phase.work.kernelBytes) / phase.seconds *
           1e-9;
}

} // namespace

void
sweepLayers(const SweepInputs &in, const Ceilings &ceilings,
            LayerTrace &trace, Report &report)
{
    const CsrGraph &graph = *in.graph;
    const DenseMatrix &features = *in.features;
    GnnModel &model = *in.model;
    const GnnModel &constModel = model;
    const GnnLayer &layer0 = constModel.layer(0);
    const GnnLayer &layer1 = constModel.layer(1);
    const AggregationSpec &spec = model.spec();
    const VertexId n = graph.numVertices();
    const std::size_t hidden = layer0.outFeatures();
    const std::size_t classes = layer1.outFeatures();
    Rng rng(in.seed ^ 0x5eed5eedull);

    report.metric("ceiling.stream_gbps", ceilings.streamGbps, "GB/s");
    report.metric("ceiling.gemm_gflops", ceilings.gemmGflops, "GFLOP/s");
    report.metric("ceiling.llc_bytes",
                  static_cast<double>(ceilings.llcBytes), "B");
    report.metric("ceiling.stream_array_bytes",
                  static_cast<double>(ceilings.streamArrayBytes), "B");

    // --- graph -----------------------------------------------------------
    report.metric("graph.build_s", in.buildSeconds, "s");
    CsrGraph transposed;
    report.metric("graph.transpose_s",
                  trace.run("graph.transpose",
                            [&] { transposed = graph.transposed(); })
                      .seconds,
                  "s");
    ProcessingOrder order;
    report.metric("graph.locality_order_s",
                  trace.run("graph.locality_order",
                            [&] { order = localityOrder(graph); })
                      .seconds,
                  "s");
    {
        DeltaCsr overlay(CsrGraph(graph), kCompactInserts);
        while (overlay.deltaEdges() < kCompactInserts) {
            overlay.addEdge(static_cast<VertexId>(rng.uniformInt(n)),
                            static_cast<VertexId>(rng.uniformInt(n)));
        }
        report.metric("graph.compact_s",
                      trace.run("graph.compact", [&] { overlay.compact(); })
                          .seconds,
                      "s");
    }

    // --- kernels -----------------------------------------------------------
    DenseMatrix scratch(n, features.cols());
    const PhaseStats agg = trace.run("kernels.agg", [&] {
        aggregateBasic(graph, features, scratch, spec);
    });
    report.metric("kernels.agg_s", agg.seconds, "s");
    report.metric("kernels.agg_gbps", gbps(agg), "GB/s");
    report.metric("kernels.agg_frac_stream", gbps(agg) / ceilings.streamGbps,
                  "frac");

    const UpdateOp update0{&layer0.weights(), layer0.bias(), layer0.hasRelu(),
                           &layer0.packedWeights()};
    const UpdateOp update1{&layer1.weights(), layer1.bias(), layer1.hasRelu(),
                           &layer1.packedWeights()};
    DenseMatrix hidden0(n, hidden);
    DenseMatrix logits(n, classes);
    const PhaseStats fused = trace.run("kernels.fused_fwd", [&] {
        fusedLayerInference(graph, features, spec, update0, hidden0);
        fusedLayerInference(graph, hidden0, spec, update1, logits);
    });
    report.metric("kernels.fused_fwd_s", fused.seconds, "s");
    report.metric("kernels.fused_fwd_gbps", gbps(fused), "GB/s");
    report.metric("kernels.fused_fwd_frac_stream",
                  gbps(fused) / ceilings.streamGbps, "frac");

    {
        const AggregationSpec transposedSpec =
            transposeSpec(graph, spec, transposed);
        DenseMatrix dz(n, classes);
        dz.fillUniform(-1.0f, 1.0f, in.seed);
        scratch.reshape(n, hidden);
        const PhaseStats bwd = trace.run("kernels.fused_bwd", [&] {
            fusedLayerBackward(transposed, dz, transposedSpec,
                               layer1.packedWeightsTransposed(), scratch);
        });
        report.metric("kernels.fused_bwd_s", bwd.seconds, "s");
        report.metric("kernels.fused_bwd_gbps", gbps(bwd), "GB/s");
    }

    // --- tensor ------------------------------------------------------------
    {
        DenseMatrix weights(hidden, hidden);
        weights.fillUniform(-0.1f, 0.1f, in.seed + 1);
        const GemmPlan plan(GemmMode::NN, weights);
        scratch.reshape(n, hidden);
        const PhaseStats gemmPhase = trace.run("tensor.gemm", [&] {
            gemm(GemmMode::NN, hidden0, plan, scratch);
        });
        const double gflops = 2.0 * n * hidden * hidden /
                              gemmPhase.seconds * 1e-9;
        report.metric("tensor.gemm_s", gemmPhase.seconds, "s");
        report.metric("tensor.gemm_gflops", gflops, "GFLOP/s");
        report.metric("tensor.gemm_frac_peak", gflops / ceilings.gemmGflops,
                      "frac");

        const std::size_t rows = std::min<std::size_t>(kServeBatchRows, n);
        std::vector<double> blockUs;
        trace.run("tensor.gemm_block", [&] {
            for (int rep = 0; rep < 200; ++rep) {
                Timer timer;
                gemmBlockSerial(hidden0.row(0), rows, hidden0.rowStride(),
                                plan, scratch.row(0), scratch.rowStride(),
                                hidden);
                blockUs.push_back(timer.seconds() * 1e6);
            }
        });
        report.metric("tensor.gemm_block_us", median(blockUs), "us");
    }

    // --- sim: predicted DRAM traffic of the layer-1 aggregation ----------
    if (in.trains) {
        scratch.reshape(n, hidden);
        const PhaseStats measured = trace.run("sim.measured_agg", [&] {
            aggregateBasic(graph, hidden0, scratch, spec, order);
        });
        double predicted = 0.0;
        trace.run("sim.simulate", [&] {
            sim::Machine machine(sim::paperMachine(1));
            sim::LayerWorkload workload;
            workload.graph = &graph;
            workload.order = &order;
            workload.fIn = hidden;
            workload.fOut = classes;
            workload.impl = sim::LayerImpl::Basic;
            workload.doUpdate = false;
            predicted = static_cast<double>(
                sim::simulateLayer(machine, workload).dram.bytes());
        });
        report.metric("sim.dram_bytes_pred", predicted, "B");
        report.metric("sim.pred_over_measured",
                      predicted /
                          static_cast<double>(measured.work.kernelBytes),
                      "frac");
    } else {
        report.metric("sim.dram_bytes_pred", 0.0, "B");
        report.metric("sim.pred_over_measured", 0.0, "frac");
    }

    scratch = DenseMatrix(); // the papers-scale sweep is memory-heavy

    // --- compress ----------------------------------------------------------
    CompressedMatrix packed(n, hidden);
    report.metric("compress.pack_s",
                  trace.run("compress.pack",
                            [&] { packed.compressFrom(hidden0); })
                      .seconds,
                  "s");
    report.metric("compress.ratio",
                  static_cast<double>(packed.compressedTrafficBytes()) /
                      static_cast<double>(packed.denseTrafficBytes()),
                  "frac");

    // --- gnn: each layer's forward, driven the way GnnModel drives it ---
    {
        const std::span<const VertexId> layerOrder =
            model.localityOrderFor(in.tech);
        CompressedMatrix *packedOut = in.tech.compression ? &packed : nullptr;
        std::vector<double> first;
        std::vector<double> second;
        std::vector<double> passes;
        // Interleaved, so host drift between them does not bias the ratio.
        for (int rep = 0; rep < kGnnReps; ++rep) {
            first.push_back(
                trace.run("gnn.layer0", [&] {
                         layer0.forwardInference(graph, spec, features,
                                                 nullptr, nullptr, hidden0,
                                                 packedOut, nullptr,
                                                 layerOrder, nullptr,
                                                 in.tech);
                     })
                    .seconds);
            second.push_back(
                trace.run("gnn.layer1", [&] {
                         layer1.forwardInference(graph, spec, hidden0,
                                                 packedOut, nullptr, logits,
                                                 nullptr, nullptr,
                                                 layerOrder, nullptr,
                                                 in.tech);
                     })
                    .seconds);
            if (!in.trains) {
                passes.push_back(
                    trace.run("gnn.inference", [&] {
                             model.inference(features, in.tech);
                         })
                        .seconds);
            }
        }
        report.metric("gnn.layer0_s", median(first), "s");
        report.metric("gnn.layer1_s", median(second), "s");
        if (!in.trains) {
            const double share =
                (median(first) + median(second)) / median(passes);
            report.metric("gnn.forward_share", share, "frac");
            report.metric("gnn.loss_share", 0.0, "frac");
            report.metric("gnn.backward_share", 0.0, "frac");
            report.metric("gnn.sgd_share", 0.0, "frac");
            report.metric("gnn.phase_sum_ratio", share, "frac");
        }
    }

    // --- sampling and serve: the workload's popularity law -------------
    const TargetSampler targets(graph, in.zipf);
    serve::InferenceServer server(graph, features,
                                  {&model.layer(0), &model.layer(1)},
                                  servingConfig(graph));
    server.warmup();
    {
        const std::vector<VertexId> &fanouts = server.config().fanouts;
        SamplerScratch samplerScratch(n);
        SampledTree tree;
        std::vector<double> treeUs;
        std::vector<double> serviceUs;
        std::vector<Feature> reply(server.outFeatures());
        EdgeId scanned = 0;
        Rng streamRng(in.seed + 2);
        std::vector<VertexId> stream(kProbeRequests);
        for (VertexId &v : stream)
            v = targets.draw(streamRng);
        trace.run("sampling.tree", [&] {
            for (std::size_t id = 0; id < stream.size(); ++id) {
                Rng sampleRng(requestSeed(id));
                Timer timer;
                sampleTree(graph, stream[id], fanouts, sampleRng,
                           samplerScratch, tree);
                treeUs.push_back(timer.seconds() * 1e6);
                // Every destination's whole row is scanned by the
                // reservoir draw, whatever the fan-out keeps.
                for (const FlatBlock &block : tree.blocks) {
                    for (const VertexId dst : block.dstVertices)
                        scanned += graph.degree(dst);
                }
            }
        });
        trace.run("serve.service", [&] {
            for (std::size_t id = 0; id < stream.size(); ++id) {
                Timer timer;
                server.serveOneHubExact(id, stream[id], reply.data());
                serviceUs.push_back(timer.seconds() * 1e6);
            }
        });
        report.metric("sampling.tree_us_p50", median(treeUs), "us");
        report.metric("sampling.tree_us_p99", quantile(treeUs, 0.99),
                      "us");
        report.metric("sampling.neighbors_scanned",
                      static_cast<double>(scanned), "count");
        report.metric("serve.service_us_p50", median(serviceUs),
                      "us");
    }
    if (!in.serves) {
        Traffic traffic;
        traffic.rate = 5000.0;
        traffic.seconds = 2.0;
        traffic.seed = in.seed + 3;
        StepResult step;
        trace.run("serve.open_loop",
                  [&] { step = runOpenLoop(server, targets, traffic); });
        reportServing(step, report);
    }
    serve::InferenceServer saturated(graph, features,
                                     {&model.layer(0), &model.layer(1)},
                                     servingConfig(graph));
    saturated.warmup();
    double goodput = 0.0;
    trace.run("serve.saturation", [&] {
        goodput = saturatedGoodput(saturated, targets, 2.0, in.seed + 4);
    });
    report.metric("serve.saturation_rps", goodput, "1/s");
}

} // namespace graphite::perf
