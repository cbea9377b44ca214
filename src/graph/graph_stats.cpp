#include "graph/graph_stats.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

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
degreeAtRank(const G &graph, std::size_t rank)
{
    const VertexId n = graph.numVertices();
    if (n == 0)
        return 0;
    std::vector<EdgeId> degrees(n);
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
template EdgeId degreeAtRank(const CsrGraph &, std::size_t);
template EdgeId degreeAtRank(const DeltaCsr &, std::size_t);

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
