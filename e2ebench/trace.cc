// In-memory span store and sample statistics.
#include <algorithm>
#include <cmath>
#include <fstream>

#include "e2ebench/e2e.h"

namespace txml::e2e {

void Tracer::Record(uint64_t id, std::string name, uint64_t request,
                    uint64_t parent, int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      Span{id, parent, request, std::move(name), start_ns, end_ns});
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& span : spans_) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":"
        << span.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least p% of samples <= it.
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  if (rank == 0) rank = 1;
  return samples[std::min(rank, samples.size()) - 1];
}

}  // namespace txml::e2e
