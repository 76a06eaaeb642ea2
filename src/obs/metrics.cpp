#include "obs/metrics.hpp"

#include <ostream>
#include <sstream>

namespace xk::obs {

std::string MetricsSnapshot::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent), ' ');
  std::ostringstream os;
  os << "{\n";
  os << pad << "  \"nworkers\": " << nworkers << ",\n";
  os << pad << "  \"root_occupied\": " << root_occupied << ",\n";
  os << pad << "  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << pad << "    \"" << counters[i].first
       << "\": " << counters[i].second;
  }
  os << "\n" << pad << "  },\n";
  os << pad << "  \"domains\": [";
  for (std::size_t i = 0; i < domains.size(); ++i) {
    const DomainGauge& d = domains[i];
    os << (i == 0 ? "\n" : ",\n") << pad << "    {\"rank\": " << d.rank
       << ", \"occupied\": " << d.occupied << "}";
  }
  os << "\n" << pad << "  ]\n";
  os << pad << "}";
  return os.str();
}

void MetricsSnapshot::dump(std::ostream& os) const {
  os << "[xk] stats nworkers=" << nworkers
     << " root_occupied=" << root_occupied << "\n[xk] counters";
  for (const auto& [name, value] : counters) {
    os << " " << name << "=" << value;
  }
  os << "\n";
  for (const DomainGauge& d : domains) {
    os << "[xk] domain rank=" << d.rank << " occupied=" << d.occupied
       << "\n";
  }
}

}  // namespace xk::obs
