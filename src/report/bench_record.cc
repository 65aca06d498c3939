#include "report/bench_record.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/cpu_features.h"
#include "obs/telemetry.h"
#include "platform/topology.h"
#include "smart/kernel_table.h"

namespace sa::report {

namespace {

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out + "\"";
}

// Integral values print exactly; measured ones to seven digits.
std::string Number(double value) {
  char buf[32];
  if (value == std::trunc(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", value);
  } else {
    std::snprintf(buf, sizeof buf, "%.7g", value);
  }
  return buf;
}

// One letter per width 1..64: B = block, V = AVX2 v2, Z = AVX-512.
std::string KernelLetters(bool predicate) {
  std::string letters;
  for (uint32_t bits = 1; bits <= 64; ++bits) {
    const smart::CodecOps& ops = smart::CodecFor(bits);
    switch (predicate ? ops.predicate_kind : ops.kind) {
      case smart::KernelKind::kBlock:
        letters.push_back('B');
        break;
      case smart::KernelKind::kAvx2V2:
        letters.push_back('V');
        break;
      case smart::KernelKind::kAvx512:
        letters.push_back('Z');
        break;
    }
  }
  return letters;
}

std::string HostRecord(const std::string& bench) {
  const platform::Topology topology = platform::Topology::Host();
  const CpuFeatures& cpu = HostCpuFeatures();
  std::string isa = cpu.avx2 ? "avx2" : "";
  if (cpu.avx512) {
    isa += " avx512";
  }
  return "{\"bench\": " + Quoted(bench) + ", \"series\": \"host\", \"cores\": " +
         std::to_string(topology.num_cpus()) +
         ", \"sockets\": " + std::to_string(topology.num_sockets()) +
         ", \"isa\": " + Quoted(isa) + ", \"sum_kernels\": " + Quoted(KernelLetters(false)) +
         ", \"predicate_kernels\": " + Quoted(KernelLetters(true)) +
         ", \"sa_obs\": " + (obs::Enabled() ? "true" : "false") +
         ", \"fast\": " + (FastMode() ? "true" : "false") + "}";
}

}  // namespace

bool FastMode() {
  const char* fast = std::getenv("SA_BENCH_FAST");
  return fast != nullptr && fast[0] != '\0' && std::strcmp(fast, "0") != 0;
}

BenchWriter::BenchWriter(std::string bench) : bench_(std::move(bench)) {}

void BenchWriter::Add(const Key& key, double value, const char* unit) {
  std::string record = "{\"bench\": " + Quoted(bench_);
  const auto text = [&](const char* name, const std::string& field) {
    if (!field.empty()) {
      record += ", \"" + std::string(name) + "\": " + Quoted(field);
    }
  };
  const auto number = [&](const char* name, double field) {
    if (field != 0.0) {
      record += ", \"" + std::string(name) + "\": " + Number(field);
    }
  };
  text("series", key.series);
  text("op", key.op);
  text("metric", key.metric);
  number("width", key.width);
  text("encoding", key.encoding);
  text("placement", key.placement);
  number("threads", key.threads);
  text("distribution", key.distribution);
  number("selectivity", key.selectivity);
  record += ", \"value\": " + Number(value) + ", \"unit\": " + Quoted(unit) + "}";
  records_.push_back(std::move(record));
}

bool BenchWriter::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "[\n  %s", HostRecord(bench_).c_str());
  for (const std::string& record : records_) {
    std::fprintf(f, ",\n  %s", record.c_str());
  }
  std::fprintf(f, "\n]\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote %s (%zu records)\n", path.c_str(), records_.size());
  return true;
}

}  // namespace sa::report
