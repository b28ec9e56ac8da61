#include "common/metrics.h"

#include <algorithm>
#include <sstream>

namespace zidian {

namespace {

// The table's compare rules. Per-node vectors compare with zero-padding:
// a run that never resized the histogram did the same logical work as
// one holding all-zero slots.
template <typename T>
bool Compared(const T& a, const T& b) {
  return a == b;
}
bool Compared(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b) {
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    uint64_t va = i < a.size() ? a[i] : 0;
    uint64_t vb = i < b.size() ? b[i] : 0;
    if (va != vb) return false;
  }
  return true;
}
template <typename T>
bool Ignored(const T&, const T&) {
  return true;
}

template <typename T>
void PrintNonZero(std::ostream& os, const char* name, T v) {
  if (v != 0) os << ' ' << name << '=' << v;
}
void PrintNonZero(std::ostream& os, const char* name,
                  const std::vector<uint64_t>& v) {
  if (std::all_of(v.begin(), v.end(), [](uint64_t x) { return x == 0; })) {
    return;
  }
  os << ' ' << name << "=[";
  for (size_t i = 0; i < v.size(); ++i) os << (i == 0 ? "" : " ") << v[i];
  os << ']';
}

}  // namespace

std::string QueryMetrics::ToString() const {
  std::ostringstream os;
  os << "comm=" << CommBytes();
#define ZIDIAN_METRICS_PRINT(type, name, merge, compare) \
  PrintNonZero(os, #name, name);
  ZIDIAN_QUERY_METRICS_FIELDS(ZIDIAN_METRICS_PRINT)
#undef ZIDIAN_METRICS_PRINT
  return os.str();
}

bool CountersEqual(const QueryMetrics& a, const QueryMetrics& b) {
#define ZIDIAN_METRICS_EQUAL(type, name, merge, compare) \
  &&compare(a.name, b.name)
  return true ZIDIAN_QUERY_METRICS_FIELDS(ZIDIAN_METRICS_EQUAL);
#undef ZIDIAN_METRICS_EQUAL
}

}  // namespace zidian
