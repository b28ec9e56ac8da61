// Helpers shared by the suites: one-key and one-block reads through the
// storage layers' batched read paths, every node's key/value pairs read
// straight off the backends, and a scratch directory for
// SaveToDir/LoadFromDir round trips.
#ifndef ZIDIAN_TESTS_TEST_SUPPORT_H_
#define ZIDIAN_TESTS_TEST_SUPPORT_H_

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "baav/baav_store.h"
#include "common/result.h"
#include "storage/cluster.h"

namespace zidian {

/// One key through Cluster::MultiGet: its value, NotFound when the key is
/// absent, or the fetch's error (kUnavailable) when it is unreachable.
inline Result<std::string> GetOne(const Cluster& cluster, std::string key,
                                  QueryMetrics* m,
                                  CacheFill fill = CacheFill::kFill) {
  MultiGetResult got = cluster.MultiGet({std::move(key)}, m, fill,
                                        FanoutMode::kSerial);
  if (!got.ok()) return got.status;
  if (!got[0].has_value()) return Status::NotFound();
  return std::move(*got[0]);
}

/// One block through BaavStore::MultiGetBlocks: its rows, none when the
/// key is absent, or its status when it was unreachable.
inline Result<std::vector<Tuple>> ReadBlock(const BaavStore& store,
                                            const KvSchema& kv,
                                            const Tuple& key,
                                            QueryMetrics* m) {
  ZIDIAN_ASSIGN_OR_RETURN(
      std::vector<BaavStore::FetchedBlock> blocks,
      store.MultiGetBlocks({{&kv, &key}}, m, FanoutMode::kOverlapped,
                           nullptr));
  ZIDIAN_RETURN_NOT_OK(blocks[0].status);
  return std::move(blocks[0].rows);
}

/// A BaaV maintenance install alone, as one commit of `cluster`.
inline Status InstallCommit(Cluster* cluster, BaavStore* store,
                            const BaavStore::Maintenance& update) {
  return cluster->Write(
      [&](Cluster::Writer& w) { return store->Install(update, w); });
}

/// One node's key/value pairs, in key order.
using Pairs = std::vector<std::pair<std::string, std::string>>;

/// Every node's key/value pairs, read straight off the backends.
inline std::vector<Pairs> NodePairs(const Cluster& cluster) {
  std::vector<Pairs> nodes(static_cast<size_t>(cluster.num_nodes()));
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    auto it = cluster.node(n).NewIterator();
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      nodes[static_cast<size_t>(n)].emplace_back(std::string(it->key()),
                                                 std::string(it->value()));
    }
  }
  return nodes;
}

/// A snapshot directory of this process's own, removed afterwards: a
/// suite's plain and `_cached` runs go concurrently and must not overwrite
/// each other's node files.
class ScopedDir {
 public:
  explicit ScopedDir(const std::string& name)
      : path_((std::filesystem::path(::testing::TempDir()) /
               (name + "-" + std::to_string(::getpid())))
                  .string()) {
    std::filesystem::create_directories(path_);
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace zidian

#endif  // ZIDIAN_TESTS_TEST_SUPPORT_H_
