#include "gnn/technique_config.h"

namespace graphite {

TechniqueConfig
TechniqueConfig::basic()
{
    return {};
}

TechniqueConfig
TechniqueConfig::withFusion()
{
    TechniqueConfig config;
    config.fusion = true;
    return config;
}

TechniqueConfig
TechniqueConfig::withCompression()
{
    TechniqueConfig config;
    config.compression = true;
    return config;
}

TechniqueConfig
TechniqueConfig::combined()
{
    TechniqueConfig config;
    config.fusion = true;
    config.compression = true;
    return config;
}

TechniqueConfig
TechniqueConfig::combinedLocality()
{
    TechniqueConfig config = combined();
    config.locality = true;
    return config;
}

std::string
TechniqueConfig::label() const
{
    std::string base;
    if (fusion && compression && locality)
        base = "c-locality";
    else if (fusion && compression)
        base = "combined";
    else if (fusion)
        base = "fusion";
    else if (compression)
        base = "compression";
    else if (locality)
        base = "locality";
    else
        base = "basic";
    if (precision == Precision::Bf16)
        base += "-bf16";
    if (shards >= 2) {
        base += "-k" + std::to_string(shards);
        if (partition == PartitionStrategy::Hash)
            base += "-hash";
    }
    return base;
}

std::string
gnnKindName(GnnKind kind)
{
    switch (kind) {
      case GnnKind::Gcn:  return "GCN";
      case GnnKind::Sage: return "GraphSAGE";
      case GnnKind::Gin:  return "GIN";
    }
    return "?";
}

const char *
precisionName(Precision precision)
{
    return precision == Precision::Bf16 ? "bf16" : "fp32";
}

bool
parsePrecision(const std::string &text, Precision &out)
{
    if (text == "fp32") {
        out = Precision::Fp32;
        return true;
    }
    if (text == "bf16") {
        out = Precision::Bf16;
        return true;
    }
    return false;
}

} // namespace graphite
