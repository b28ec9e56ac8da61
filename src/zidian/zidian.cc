#include "zidian/zidian.h"

#include "zidian/connection.h"

namespace zidian {

Zidian::Zidian(const Catalog* catalog, Cluster* cluster,
               BaavSchema baav_schema, ZidianOptions options)
    : catalog_(catalog),
      cluster_(cluster),
      store_(cluster, std::move(baav_schema), catalog, options.store),
      options_(options) {}

Connection Zidian::Connect() { return Connection(this); }

Status Zidian::LoadTaav(const std::map<std::string, Relation>& db) {
  for (const auto& [name, data] : db) {
    ZIDIAN_ASSIGN_OR_RETURN(TableSchema schema, catalog_->Get(name));
    ZIDIAN_RETURN_NOT_OK(TaavLoadRelation(cluster_, schema, data));
  }
  cluster_->FlushAll();
  return Status::OK();
}

Status Zidian::BuildBaav(const std::map<std::string, Relation>& db) {
  ZIDIAN_RETURN_NOT_OK(store_.BuildAll(db));
  cluster_->FlushAll();
  return Status::OK();
}

Status Zidian::Insert(const std::string& relation, const Tuple& tuple) {
  return Mutate(relation, tuple, /*insert=*/true);
}

Status Zidian::Delete(const std::string& relation, const Tuple& tuple) {
  return Mutate(relation, tuple, /*insert=*/false);
}

Status Zidian::Mutate(const std::string& relation, const Tuple& tuple,
                      bool insert) {
  if (batch_ != nullptr) return batch_->Stage(relation, tuple, insert);
  WriteBatch one(this);
  ZIDIAN_RETURN_NOT_OK(one.Stage(relation, tuple, insert));
  return one.Commit();
}

Zidian::WriteBatch::WriteBatch(Zidian* zidian) : zidian_(zidian) {
  if (zidian_->batch_ != nullptr) {
    status_ = Status::InvalidArgument("a write batch is already open");
    return;
  }
  zidian_->batch_ = this;
}

Zidian::WriteBatch::~WriteBatch() { Close(); }

void Zidian::WriteBatch::Close() {
  if (zidian_->batch_ == this) zidian_->batch_ = nullptr;
}

Status Zidian::WriteBatch::Stage(const std::string& relation,
                                 const Tuple& tuple, bool insert) {
  ZIDIAN_RETURN_NOT_OK(status_);
  status_ = StageOne(relation, tuple, insert);
  return status_;
}

// The BaaV read phase runs before the TaaV write is staged, and both land
// only at Commit, so a failed mutation leaves both layouts as they were.
Status Zidian::WriteBatch::StageOne(const std::string& relation,
                                    const Tuple& tuple, bool insert) {
  ZIDIAN_ASSIGN_OR_RETURN(TableSchema schema,
                          zidian_->catalog_->Get(relation));
  if (tuple.size() != schema.arity()) {
    return Status::InvalidArgument("tuple arity mismatch for " + relation);
  }
  const BaavStore& store = zidian_->store_;
  ZIDIAN_RETURN_NOT_OK(insert ? store.ReadForInsert(relation, tuple, &baav_)
                              : store.ReadForDelete(relation, tuple, &baav_));
  taav_.push_back({EncodeTaavEntry(schema, tuple), insert});
  return Status::OK();
}

Status Zidian::WriteBatch::Commit() {
  Close();
  ZIDIAN_RETURN_NOT_OK(status_);
  status_ = Status::InvalidArgument("write batch already committed");
  // One commit: the TaaV writes and every staged block land under one
  // hold of the storage gate's exclusive side, and the epoch advances
  // once, so no read sees the batch partly applied.
  return zidian_->cluster_->Write([&](Cluster::Writer& w) -> Status {
    for (const auto& [entry, put] : taav_) {
      ZIDIAN_RETURN_NOT_OK(put ? w.Put(entry.key, entry.value)
                               : w.Delete(entry.key));
    }
    return zidian_->store_.Install(baav_, w);
  });
}

}  // namespace zidian
