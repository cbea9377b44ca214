/**
 * @file
 * Umbrella header: include everything a Graphite user typically needs.
 *
 *   #include "graphite.h"
 *
 * Fine-grained headers remain available for compile-time-sensitive
 * consumers; this exists for examples, tools and quick starts.
 */

#pragma once

// Common substrate.
#include "common/aligned_buffer.h"
#include "common/logging.h"
#include "common/options.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/types.h"

// Graphs.
#include "graph/csr_graph.h"
#include "graph/datasets.h"
#include "graph/edge_list_io.h"
#include "graph/binary_io.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"

// Tensors and kernels.
#include "compress/compressed_matrix.h"
#include "kernels/aggregation.h"
#include "kernels/fused_layer.h"
#include "tensor/bf16_matrix.h"
#include "tensor/dense_matrix.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"
#include "tensor/spmm.h"

// Models and training.
#include "gnn/gnn_model.h"
#include "gnn/minibatch_trainer.h"
#include "gnn/serialization.h"
#include "gnn/trainer.h"
#include "sampling/neighbor_sampler.h"

// Hardware model.
#include "dma/descriptor.h"
#include "dma/dma_engine.h"
#include "dma/pipelined_runner.h"
#include "sim/machine.h"
#include "sim/workloads.h"
