// Fixture: a QueryMetrics field table whose every row has a glossary row
// (see the sibling docs/ARCHITECTURE.md).
#define ZIDIAN_QUERY_METRICS_FIELDS(X)                          \
  /* Point lookups. */                                          \
  X(uint64_t, get_calls, Sum, Compared)                         \
  X(std::vector<uint64_t>, node_trips, ByNode, Compared)        \
  /* Nondeterministic: glossary yes, equality no. */            \
  X(double, wall_seconds, Sum, Ignored)
