// Fixture: a region that dispatches on the pool by hand ("pool, else
// loop") instead of through the free ParallelFor(pool, n, fn) — a second
// dispatch, so the dispatch check must reject it.
#include "common/thread_pool.h"

void ScanChunks(ThreadPool* pool, size_t chunks,
                const std::function<void(size_t)>& chunk) {
  if (pool != nullptr) {
    pool->ParallelFor(chunks, chunk);
  } else {
    for (size_t w = 0; w < chunks; ++w) chunk(w);
  }
}
