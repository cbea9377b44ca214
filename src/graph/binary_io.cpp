#include "graph/binary_io.h"

#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

#include "common/assert.h"

namespace graphite {

namespace {

constexpr char kMagic[4] = {'G', 'C', 'S', 'R'};
constexpr std::uint32_t kVersion = 1;

} // namespace

void
saveCsr(const CsrGraph &graph, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    out.write(kMagic, sizeof(kMagic));
    out.write(reinterpret_cast<const char *>(&kVersion),
              sizeof(kVersion));
    const std::uint64_t numVertices = graph.numVertices();
    const std::uint64_t numEdges = graph.numEdges();
    out.write(reinterpret_cast<const char *>(&numVertices),
              sizeof(numVertices));
    out.write(reinterpret_cast<const char *>(&numEdges),
              sizeof(numEdges));
    out.write(reinterpret_cast<const char *>(graph.rowPtr().data()),
              static_cast<std::streamsize>(
                  graph.rowPtr().size() * sizeof(EdgeId)));
    out.write(reinterpret_cast<const char *>(graph.colIdx().data()),
              static_cast<std::streamsize>(
                  graph.colIdx().size() * sizeof(VertexId)));
    if (!out)
        fatal("write error on '%s'", path.c_str());
}

CsrGraph
loadCsr(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    char magic[4];
    in.read(magic, sizeof(magic));
    if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        fatal("'%s' is not a graphite CSR file", path.c_str());
    std::uint32_t version = 0;
    in.read(reinterpret_cast<char *>(&version), sizeof(version));
    if (version != kVersion)
        fatal("unsupported CSR file version %u", version);
    std::uint64_t numVertices = 0;
    std::uint64_t numEdges = 0;
    in.read(reinterpret_cast<char *>(&numVertices), sizeof(numVertices));
    in.read(reinterpret_cast<char *>(&numEdges), sizeof(numEdges));
    if (!in)
        fatal("truncated CSR header in '%s'", path.c_str());
    // Check the header against the file before sizing anything from it,
    // so a corrupt count is refused instead of wrapping or allocating.
    if (numVertices > std::numeric_limits<VertexId>::max()) {
        fatal("'%s' claims %llu vertices, more than a 32-bit vertex id "
              "can name", path.c_str(),
              static_cast<unsigned long long>(numVertices));
    }
    const std::streamoff arraysAt = in.tellg();
    in.seekg(0, std::ios::end);
    const auto bytesLeft =
        static_cast<std::uint64_t>(in.tellg() - arraysAt);
    in.seekg(arraysAt);
    // numEdges is bounded first, so the byte count cannot wrap.
    if (numEdges > bytesLeft / sizeof(VertexId) ||
        (numVertices + 1) * sizeof(EdgeId) +
                numEdges * sizeof(VertexId) != bytesLeft) {
        fatal("'%s' claims %llu vertices and %llu edges, which do not fit "
              "the %llu bytes after its header", path.c_str(),
              static_cast<unsigned long long>(numVertices),
              static_cast<unsigned long long>(numEdges),
              static_cast<unsigned long long>(bytesLeft));
    }

    std::vector<EdgeId> rowPtr(numVertices + 1);
    std::vector<VertexId> colIdx(numEdges);
    in.read(reinterpret_cast<char *>(rowPtr.data()),
            static_cast<std::streamsize>(rowPtr.size() * sizeof(EdgeId)));
    in.read(reinterpret_cast<char *>(colIdx.data()),
            static_cast<std::streamsize>(colIdx.size() *
                                         sizeof(VertexId)));
    if (!in)
        fatal("truncated CSR arrays in '%s'", path.c_str());
    // The CsrGraph constructor revalidates the invariants, so corrupt
    // files panic with a clear message rather than producing UB.
    return CsrGraph(std::move(rowPtr), std::move(colIdx));
}

bool
isCsrFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    char magic[4];
    in.read(magic, sizeof(magic));
    return in && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

} // namespace graphite
