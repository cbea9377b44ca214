#include "gnn/serialization.h"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "common/assert.h"

namespace graphite {

namespace {

constexpr char kMagic[4] = {'G', 'R', 'P', 'H'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void
writeScalar(std::ofstream &out, T value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
T
readScalar(std::ifstream &in)
{
    T value{};
    in.read(reinterpret_cast<char *>(&value), sizeof(T));
    return value;
}

} // namespace

void
saveModel(const GnnModel &model, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open checkpoint '%s' for writing", path.c_str());
    out.write(kMagic, sizeof(kMagic));
    writeScalar<std::uint32_t>(out, kVersion);
    writeScalar<std::uint32_t>(
        out, static_cast<std::uint32_t>(model.numLayers()));
    for (std::size_t k = 0; k < model.numLayers(); ++k) {
        const GnnLayer &layer = model.layer(k);
        writeScalar<std::uint64_t>(out, layer.inFeatures());
        writeScalar<std::uint64_t>(out, layer.outFeatures());
        writeScalar<std::uint8_t>(out, layer.hasRelu() ? 1 : 0);
        const DenseMatrix &weights = layer.weights();
        for (std::size_t r = 0; r < weights.rows(); ++r) {
            out.write(reinterpret_cast<const char *>(weights.row(r)),
                      weights.cols() * sizeof(Feature));
        }
        const auto &bias = layer.bias();
        out.write(reinterpret_cast<const char *>(bias.data()),
                  bias.size() * sizeof(Feature));
    }
    if (!out)
        fatal("write error on checkpoint '%s'", path.c_str());
}

void
loadModel(GnnModel &model, const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open checkpoint '%s'", path.c_str());
    char magic[4];
    in.read(magic, sizeof(magic));
    if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        fatal("'%s' is not a graphite checkpoint", path.c_str());
    const auto version = readScalar<std::uint32_t>(in);
    if (version != kVersion)
        fatal("unsupported checkpoint version %u", version);
    const auto layers = readScalar<std::uint32_t>(in);
    if (layers != model.numLayers())
        fatal("checkpoint has %u layers, model has %zu", layers,
              model.numLayers());
    for (std::size_t k = 0; k < model.numLayers(); ++k) {
        GnnLayer &layer = model.layer(k);
        const auto inF = readScalar<std::uint64_t>(in);
        const auto outF = readScalar<std::uint64_t>(in);
        const auto relu = readScalar<std::uint8_t>(in);
        if (inF != layer.inFeatures() || outF != layer.outFeatures() ||
            (relu != 0) != layer.hasRelu()) {
            fatal("checkpoint layer %zu shape mismatch", k);
        }
        layer.updateParameters([&](DenseMatrix &weights,
                                   std::span<Feature> bias) {
            for (std::size_t r = 0; r < weights.rows(); ++r) {
                in.read(reinterpret_cast<char *>(weights.row(r)),
                        weights.cols() * sizeof(Feature));
            }
            in.read(reinterpret_cast<char *>(bias.data()),
                    bias.size() * sizeof(Feature));
        });
    }
    if (!in)
        fatal("truncated checkpoint '%s'", path.c_str());
}

bool
isCheckpointFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    char magic[4];
    in.read(magic, sizeof(magic));
    return in && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

} // namespace graphite
