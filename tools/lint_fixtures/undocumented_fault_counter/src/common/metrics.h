// Fixture: the fault counter `net_retries` is a row of the field table
// (so the struct, merge and CountersEqual all carry it) but has no row
// in the glossary — the documentation check must still bite. This is the
// drift mode new availability counters (net_faults_injected, net_hedges,
// ...) are most likely to rot into: wired for determinism, never explained.
#define ZIDIAN_QUERY_METRICS_FIELDS(X)                          \
  X(uint64_t, get_calls, Sum, Compared)                         \
  X(uint64_t, net_retries, Sum, Compared)
