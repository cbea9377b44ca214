#include "graph/graph_stats.h"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "graph/delta_csr.h"

namespace graphite {

template <GraphView G>
GraphStats
computeGraphStats(const G &graph)
{
    GraphStats stats;
    stats.numVertices = graph.numVertices();
    stats.numEdges = graph.numEdges();
    if (stats.numVertices == 0)
        return stats;

    double sum = 0.0;
    double sumSq = 0.0;
    for (VertexId v = 0; v < stats.numVertices; ++v) {
        const EdgeId degree = graph.degree(v);
        const double deg = static_cast<double>(degree);
        sum += deg;
        sumSq += deg * deg;
        if (degree > stats.maxDegree)
            stats.maxDegree = degree;
    }
    const double n = stats.numVertices;
    stats.avgDegree = sum / n;
    stats.degreeVariance = sumSq / n - stats.avgDegree * stats.avgDegree;
    stats.adjacencySparsity =
        1.0 - static_cast<double>(stats.numEdges) / (n * n);
    return stats;
}

template <GraphView G>
EdgeId
degreeAtRank(const G &graph, std::size_t rank, std::vector<EdgeId> &degrees)
{
    const VertexId n = graph.numVertices();
    if (n == 0)
        return 0;
    degrees.resize(n);
    for (VertexId v = 0; v < n; ++v)
        degrees[v] = graph.degree(v);
    const std::size_t nth = std::min<std::size_t>(rank, n - 1);
    std::nth_element(degrees.begin(),
                     degrees.begin() + static_cast<std::ptrdiff_t>(nth),
                     degrees.end(), std::greater<EdgeId>());
    return degrees[nth];
}

template GraphStats computeGraphStats(const CsrGraph &);
template GraphStats computeGraphStats(const DeltaCsr &);
template EdgeId degreeAtRank(const CsrGraph &, std::size_t,
                             std::vector<EdgeId> &);
template EdgeId degreeAtRank(const DeltaCsr &, std::size_t,
                             std::vector<EdgeId> &);

IncrementalGraphStats::IncrementalGraphStats(const GraphStats &initial)
    : numVertices_(initial.numVertices), numEdges_(initial.numEdges),
      maxDegree_(initial.maxDegree)
{
    // Rebuild the running moments from the summary: sumSq follows from
    // the variance identity var = sumSq/n - avg².
    const double n = numVertices_;
    sumDeg_ = initial.avgDegree * n;
    sumSq_ = (initial.degreeVariance +
              initial.avgDegree * initial.avgDegree) *
             n;
}

void
IncrementalGraphStats::onEdgeInserted(EdgeId newDegree)
{
    GRAPHITE_ASSERT(newDegree > 0,
                    "onEdgeInserted: post-insert degree must be > 0");
    numEdges_ += 1;
    sumDeg_ += 1.0;
    // d² → (d+1)² adds 2d + 1 with d = newDegree - 1.
    sumSq_ += 2.0 * static_cast<double>(newDegree) - 1.0;
    if (newDegree > maxDegree_)
        maxDegree_ = newDegree;
}

GraphStats
IncrementalGraphStats::current() const
{
    GraphStats stats;
    stats.numVertices = numVertices_;
    stats.numEdges = numEdges_;
    stats.maxDegree = maxDegree_;
    if (numVertices_ == 0)
        return stats;
    const double n = numVertices_;
    stats.avgDegree = sumDeg_ / n;
    stats.degreeVariance = sumSq_ / n - stats.avgDegree * stats.avgDegree;
    stats.adjacencySparsity =
        1.0 - static_cast<double>(numEdges_) / (n * n);
    return stats;
}

std::string
formatGraphStats(const std::string &name, const GraphStats &stats,
                 std::size_t inputFeatures)
{
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-10s |V|=%-9u |E|=%-11llu avgDeg=%-7.1f maxDeg=%-8llu "
                  "varDeg=%-11.1f F_in=%zu",
                  name.c_str(), stats.numVertices,
                  static_cast<unsigned long long>(stats.numEdges),
                  stats.avgDegree,
                  static_cast<unsigned long long>(stats.maxDegree),
                  stats.degreeVariance, inputFeatures);
    return line;
}

} // namespace graphite
